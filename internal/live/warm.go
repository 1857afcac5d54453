package live

import (
	"math"

	"repro/internal/offline"
)

// Warm-start epoch replanning for the off-line strategies.
//
// A batch close re-runs the whole planner over the epoch's arrivals — for
// offline and offline-batched that is the forest-table DP, O(n * W) cells
// for W arrivals per window at about two split candidates each, a bill
// paid at the boundary even though most of the epoch was known long
// before it.  tablesWarm instead absorbs arrivals into resumable forest
// tables (offline.Tables.Extend, which advances the partition DP with the
// columns) as they are admitted (observe), so the close (replan) pays
// only for the un-absorbed tail.  It is the off-line pair's only close,
// and the contract is strict bit-identity with the batch replanners
// (replanOffline, replanOfflineBatched), which remain as BatchReference's
// oracle: the same PlanOutcome, and a failure exactly where they fail.
// Both refuse an epoch through offline.CheckSize, the close on the batch
// replanner's own inputs and mid-epoch absorption on the starts so far, a
// subset of them, so an epoch refused mid-epoch is refused at the close
// too; and both fail on a cancelled context.  Consecutive epochs have
// disjoint epoch-relative traces, so the tables' contents never outlive
// their epoch: the scheduler resets them at every close (and hence at
// drain).  Their storage does: offline.Tables.Reset keeps what the epoch
// reached, so each object grows one table for its whole life.
//
// Every other epoch strategy runs its batch planner at the close: their
// planners are single passes over the epoch's arrivals with no
// superlinear work that retained state could save (DESIGN.md); their
// closes count in ReplanStats.Replans with zero warm replans.

// tablesWarm is the resumable off-line replanner (offline and
// offline-batched): it grows one retained offline.Tables handle by
// Extend as arrivals are absorbed, so the close costs only the tail and
// the walk of the split table.  All methods run on the shard event loop,
// single-goroutine.
type tablesWarm struct {
	p       PlanParams
	batched bool // offline-batched: the DP input is occupied slot ends

	// starts is the DP input observed so far: occupied slot ends for
	// offline-batched (arrivals.Trace.BatchTimes float for float), raw
	// times for offline, with ties collapsed by offline.AppendDistinct
	// (the guarded solve's tie handling; equal slot ends are one slot).
	starts []float64

	// tab covers the first tab.N() starts (nil until the first absorb).
	tab *offline.Tables
	// tried is len(starts) at the last mid-epoch absorption, whether or
	// not the caps let it run.
	tried int
}

// warmAbsorbMin batches absorption: a chunk is worth an Extend once it
// reaches max(warmAbsorbMin, tried/8) deduplicated arrivals, keeping
// per-arrival overhead O(1) amortized while the close's tail stays small.
const warmAbsorbMin = 32

// observe absorbs one admitted arrival (epoch-relative, nondecreasing;
// exactly the values appended to the scheduler's trace).
func (w *tablesWarm) observe(rel float64) {
	if w.batched {
		rel = float64(int64(math.Floor(rel/w.p.Delay))+1) * w.p.Delay
	}
	n := len(w.starts)
	if w.starts = offline.AppendDistinct(w.starts, rel); len(w.starts) == n {
		return
	}
	if n = len(w.starts); n-w.tried >= warmAbsorbMin+w.tried/8 {
		w.tried = n
		if offline.CheckSize(w.starts, w.p.MediaLength, 0, 0) == nil {
			// Whatever fails here fails the close too, which reports it.
			_ = w.absorb()
		}
	}
}

// absorb extends the tables (creating them on first use) over the pending
// starts.  A failed Extend leaves them part-filled, so it empties them.
func (w *tablesWarm) absorb() error {
	if w.tab == nil {
		tab, err := offline.ComputeTables(w.p.Ctx, nil, offline.ReceiveTwo, w.p.MediaLength, 1)
		if err != nil {
			return err
		}
		w.tab = tab
	}
	if err := w.tab.Extend(w.p.Ctx, w.starts[w.tab.N():], 1); err != nil {
		w.tab.Reset()
		return err
	}
	return nil
}

// replan answers an epoch close over the full recorded trace, which the
// close covers (it ends after the last arrival).  The outcome, or the
// failure, is the batch replanner's on the same inputs, bit for bit, and
// the close's reuse accounting is added to rs.  The caller resets the
// state afterwards.
func (w *tablesWarm) replan(times []float64, rs *ReplanStats) (PlanOutcome, error) {
	// The batch replanner's instance caps on its exact inputs: raw times
	// for offline, batched slot ends (== starts) for offline-batched.
	batchIn := times
	if w.batched {
		batchIn = w.starts
	}
	if err := offline.CheckSize(batchIn, w.p.MediaLength, 0, 0); err != nil {
		return PlanOutcome{}, err
	}
	// Its DP fails on a cancelled context even when no start is pending
	// here.
	if err := w.p.Ctx.Err(); err != nil {
		return PlanOutcome{}, err
	}
	var reused int64
	if w.tab != nil {
		reused = w.tab.Cells()
	}
	if err := w.absorb(); err != nil {
		return PlanOutcome{}, err
	}
	// The streams come off the split table in the order appendForestStreams
	// walks SolveForest's trees, with the same float expressions, so the
	// finalization order, and with it the busy-time sum, is the batch
	// replanner's.  They go into the shard's shared plan buffer, which the
	// returned outcome aliases until the shard's next warm close.
	streams := w.p.Cache.streams[:0]
	busy, err := w.tab.ForestStreams(w.p.MediaLength, func(start, length float64) {
		streams = append(streams, Stream{Start: start, Length: length})
	})
	w.p.Cache.streams = streams
	if err != nil {
		return PlanOutcome{}, err
	}
	rs.WarmReplans++
	rs.CellsReused += reused
	rs.CellsRecomputed += w.tab.Cells() - reused
	// Forest.NormalizedCost's division: the cost in media streams.
	return PlanOutcome{
		Cost:    busy / w.p.MediaLength,
		Busy:    busy,
		Streams: streams,
	}, nil
}

// reset discards all per-epoch state.  The table keeps the storage the
// epoch reached (offline.Tables.Reset), and starts its capacity unless
// that is more than twice what the epoch reached.
func (w *tablesWarm) reset() {
	w.starts = fit(w.starts, len(w.starts))
	if w.tab != nil {
		w.tab.Reset()
	}
	w.tried = 0
}
