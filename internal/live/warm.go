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
// only for the un-absorbed tail.  The contract is strict bit-identity: a
// warm replan either reproduces the batch replanner's PlanOutcome (and
// errors) exactly, or declines with handled == false and the batch
// replanner runs untouched.  Consecutive epochs have disjoint
// epoch-relative traces, so the tables' contents never outlive their
// epoch: the scheduler resets them at every close (and hence at drain).
// Their storage does: offline.Tables.Reset keeps what the epoch reached,
// so each object grows one table for its whole life.
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

	tab      *offline.Tables
	absorbed int  // prefix of starts already extended into tab
	dead     bool // absorption failed or over budget: batch close this epoch
}

// warmAbsorbMin batches absorption: a chunk is worth an Extend once it
// reaches max(warmAbsorbMin, absorbed/8) deduplicated arrivals, keeping
// per-arrival overhead O(1) amortized while the close's tail stays small.
const warmAbsorbMin = 32

// warmAbsorbBudget caps mid-epoch table growth at 2/3 of the batch
// replanner's table cap: epochs headed past it are left to the batch
// close (which re-checks its own caps on its own inputs and falls back
// identically with or without retained tables).
const warmAbsorbBudget = offline.DefaultMaxTableBytes * 2 / 3

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
	if !w.dead && len(w.starts)-w.absorbed >= warmAbsorbMin+w.absorbed/8 {
		w.absorb()
	}
}

// absorb extends the retained table (creating it on first use) over the
// pending deduplicated suffix.  Any failure — over budget, cancelled
// context — marks the state dead for the rest of the epoch and drops the
// table with its storage; the batch close then reproduces exactly what it
// would have done alone.
func (w *tablesWarm) absorb() {
	if offline.BandBytes(w.starts, w.p.MediaLength) > warmAbsorbBudget {
		w.kill()
		return
	}
	if w.tab == nil {
		tab, err := offline.ComputeTables(w.p.Ctx, nil, offline.ReceiveTwo, w.p.MediaLength, 1)
		if err != nil {
			w.kill()
			return
		}
		w.tab = tab
	}
	if err := w.tab.Extend(w.p.Ctx, w.starts[w.absorbed:], 1); err != nil {
		w.kill()
		return
	}
	w.absorbed = len(w.starts)
}

func (w *tablesWarm) kill() {
	w.dead = true
	w.tab = nil
}

// replan answers an epoch close over the full recorded trace.  When
// handled is true the outcome (or error) is bit-identical to the batch
// replanner's on the same inputs, and the close's reuse accounting is
// added to rs; when false the caller must run the batch replanner.
// Either way the caller resets the state afterwards.
func (w *tablesWarm) replan(times []float64, relHorizon float64, rs *ReplanStats) (out PlanOutcome, handled bool, err error) {
	if w.dead || len(times) == 0 {
		return PlanOutcome{}, false, nil
	}
	if times[len(times)-1] >= relHorizon {
		// Clipping would drop arrivals; only the batch replanner does that
		// (never reached by the epoch scheduler, whose closes always
		// cover the recorded trace — defensive).
		return PlanOutcome{}, false, nil
	}
	// Re-check the batch replanner's instance caps on its exact inputs —
	// raw times for offline, batched slot ends (== starts) for
	// offline-batched — so both paths refuse the same epochs.
	batchIn := times
	if w.batched {
		batchIn = w.starts
	}
	if offline.CheckSize(batchIn, w.p.MediaLength, 0, 0) != nil {
		return PlanOutcome{}, false, nil
	}
	var reused int64
	if w.tab != nil {
		reused = w.tab.Cells()
	}
	if w.tab == nil || w.absorbed < len(w.starts) {
		w.absorb()
		if w.dead {
			return PlanOutcome{}, false, nil
		}
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
	rs.WarmReplans++
	rs.CellsReused += reused
	rs.CellsRecomputed += w.tab.Cells() - reused
	if err != nil {
		// The batch DP fails identically on this instance; report the
		// error so the close falls back exactly like a batch failure.
		return PlanOutcome{}, true, err
	}
	// Forest.NormalizedCost's division: the cost in media streams.
	return PlanOutcome{
		Cost:    busy / w.p.MediaLength,
		Busy:    busy,
		Streams: streams,
	}, true, nil
}

// reset discards all per-epoch state.  The table keeps the storage the
// epoch reached (offline.Tables.Reset), and starts its capacity unless
// that is more than twice what the epoch reached.
func (w *tablesWarm) reset() {
	w.starts = fit(w.starts, len(w.starts))
	if w.tab != nil {
		w.tab.Reset()
	}
	w.absorbed = 0
	w.dead = false
}
