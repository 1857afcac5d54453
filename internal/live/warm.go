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
// Both refuse an epoch through offline.CheckSize's caps: the close on the
// batch replanner's own inputs, and mid-epoch absorption on counts of the
// starts so far, a subset of them, so an epoch refused mid-epoch is
// refused at the close too; and both fail on a cancelled context.
// Consecutive epochs have disjoint epoch-relative traces, so the tables'
// contents never outlive their epoch: the scheduler resets them at every
// close (and hence at drain).  Their storage does: offline.Tables.Reset
// keeps what the epoch reached, so an object whose epochs absorb
// mid-epoch grows one table for its whole life, and the others close on
// their shard's scratch table (Cache).
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
	p       *PlanParams // the scheduler's
	batched bool        // offline-batched: the DP input is occupied slot ends

	// The epoch's starts, the DP input observed so far, are each held
	// once: the first tab.N() in the tables (nil until the first absorb),
	// the rest in tail.  They are occupied slot ends for offline-batched
	// (arrivals.Trace.BatchTimes float for float), raw times for offline,
	// with ties collapsed as offline.AppendDistinct collapses them (the
	// guarded solve's tie handling; equal slot ends are one slot).
	tab  *offline.Tables
	tail []float64

	// n counts the starts and cells their window band, the two counts
	// offline.CheckSize checks, kept by the sweep offline.BandCells runs:
	// lo is the first start the newest start's window still covers.
	n     int
	cells int64
	lo    int
	// tried is n at the last mid-epoch absorption, whether or not the caps
	// let it run.
	tried int
	// err is a failed absorption's error.  Extend fails only on a
	// cancelled context, so the close fails too; until the epoch's reset
	// the warm state absorbs and counts nothing more.
	err error
}

// warmAbsorbMin batches absorption: a chunk is worth an Extend once it
// reaches max(warmAbsorbMin, tried/8) deduplicated arrivals, keeping
// per-arrival overhead O(1) amortized while the close's tail stays small.
const warmAbsorbMin = 32

// observe absorbs one admitted arrival (epoch-relative, nondecreasing;
// exactly the values appended to the scheduler's trace).  The size check
// on the starts so far reads the running counts, so it costs O(1).
func (w *tablesWarm) observe(rel float64) {
	if w.err != nil {
		return
	}
	if w.batched {
		rel = float64(int64(math.Floor(rel/w.p.Delay))+1) * w.p.Delay
	}
	if w.n > 0 && w.start(w.n-1) == rel {
		return
	}
	w.tail = append(w.tail, rel)
	for rel-w.start(w.lo) >= w.p.MediaLength {
		w.lo++
	}
	w.cells += int64(w.n-w.lo) + 1
	w.n++
	if w.n-w.tried >= warmAbsorbMin+w.tried/8 {
		w.tried = w.n
		if offline.CheckCounts(w.n, w.cells, 0, 0) == nil {
			// Whatever fails here fails the close too, which reports it.
			_ = w.absorb()
		}
	}
}

// start returns the epoch's i-th start, from the tables or the tail.
func (w *tablesWarm) start(i int) float64 {
	if w.tab != nil {
		if k := w.tab.N(); i < k {
			return w.tab.Time(i)
		}
		i -= w.tab.N()
	}
	return w.tail[i]
}

// absorb extends the tables (creating them on first use) over the tail.
// A failed Extend leaves them part-filled, so it empties them, and the
// failure sticks until the epoch's reset.
func (w *tablesWarm) absorb() error {
	if w.err != nil {
		return w.err
	}
	if w.tab == nil {
		tab, err := offline.ComputeTables(w.p.Ctx, nil, offline.ReceiveTwo, w.p.MediaLength, 1)
		if err != nil {
			w.err = err
			return err
		}
		w.tab = tab
	}
	if err := w.tab.Extend(w.p.Ctx, w.tail, 1); err != nil {
		w.tab.Reset()
		w.err = err
		return err
	}
	w.tail = w.tail[:0]
	return nil
}

// replan answers an epoch close over the full recorded trace, which the
// close covers (it ends after the last arrival).  The outcome, or the
// failure, is the batch replanner's on the same inputs, bit for bit, and
// the close's reuse accounting is added to rs.  The caller resets the
// state afterwards.
func (w *tablesWarm) replan(times []float64, rs *ReplanStats) (PlanOutcome, error) {
	// The batch replanner's instance caps on its exact inputs: the raw
	// times for offline, and for offline-batched the batched slot ends,
	// which are the starts the counts cover.
	var err error
	if w.batched {
		err = offline.CheckCounts(w.n, w.cells, 0, 0)
	} else {
		err = offline.CheckSize(times, w.p.MediaLength, 0, 0)
	}
	if err != nil {
		return PlanOutcome{}, err
	}
	// Its DP fails on a cancelled context even when no start is pending
	// here.
	if err := w.p.Ctx.Err(); err != nil {
		return PlanOutcome{}, err
	}
	tab, reused := w.tab, int64(0)
	if tab == nil {
		// Nothing was absorbed mid-epoch, so the tail holds every start,
		// a few as a rule: the shard's scratch table, hot in cache, takes
		// them rather than a table of the object's own.
		var err error
		if tab, err = w.p.Cache.scratch(w.p.Ctx, w.p.MediaLength); err != nil {
			return PlanOutcome{}, err
		}
		if err := tab.Extend(w.p.Ctx, w.tail, 1); err != nil {
			return PlanOutcome{}, err
		}
	} else {
		reused = tab.Cells()
		if err := w.absorb(); err != nil {
			return PlanOutcome{}, err
		}
	}
	// The streams come off the split table in the order appendForestStreams
	// walks SolveForest's trees, with the same float expressions, so the
	// finalization order, and with it the busy-time sum, is the batch
	// replanner's.  They go into the shard's shared plan buffer, which the
	// returned outcome aliases until the shard's next warm close.
	streams := w.p.Cache.streams[:0]
	busy, err := tab.ForestStreams(w.p.MediaLength, func(start, length float64) {
		streams = append(streams, Stream{Start: start, Length: length})
	})
	w.p.Cache.streams = streams
	if err != nil {
		return PlanOutcome{}, err
	}
	rs.WarmReplans++
	rs.CellsReused += reused
	rs.CellsRecomputed += tab.Cells() - reused
	// Forest.NormalizedCost's division: the cost in media streams.
	return PlanOutcome{
		Cost:    busy / w.p.MediaLength,
		Busy:    busy,
		Streams: streams,
	}, nil
}

// reset discards all per-epoch state.  The table keeps the storage the
// epoch reached (offline.Tables.Reset), and the tail the capacity an
// epoch of n starts can use between absorptions.
func (w *tablesWarm) reset() {
	w.tail = fit(w.tail, warmAbsorbMin+w.n/8)
	if w.tab != nil {
		w.tab.Reset()
	}
	w.n, w.cells, w.lo, w.tried, w.err = 0, 0, 0, 0, nil
}
