package live

import (
	"context"
	"math"

	"repro/internal/arrivals"
	"repro/internal/dyadic"
	"repro/internal/offline"
)

// Warm-start epoch replanning.
//
// A cold epoch close re-runs the whole batch planner over the epoch's
// arrivals — for the off-line strategies that is the banded Knuth DP,
// O(n * W) cells for W arrivals per window at about two split candidates
// each, a bill paid at the boundary even though most of the epoch was
// known long before it.  A warmState instead absorbs arrivals
// into resumable planner state as they are admitted (observe), so the
// close (replan) pays only for the un-absorbed tail.  The contract is
// strict bit-identity: a warm replan either reproduces the cold
// replanner's PlanOutcome (and errors) exactly, or declines with
// handled == false and the cold path runs untouched.  Consecutive epochs
// have disjoint epoch-relative traces, so warm state never outlives its
// epoch — the scheduler resets it at every close (and hence at drain).
//
// Strategy coverage: offline and offline-batched carry resumable banded
// tables (offline.Tables.Extend + AdvancePartition); batching, dyadic,
// and dyadic-batched carry their deduplicated service-time prefix, which
// is the whole of their planner input.  Unicast's replan is O(n) copying
// with no reusable state, and the hybrid's mode classification is a
// single O(n + slots) sweep with no superlinear component, so both stay
// cold by design (documented in DESIGN.md); their closes still count in
// ReplanStats.Replans.

// warmReport is the per-close reuse accounting a warm replan returns.
type warmReport struct {
	// cellsReused are the off-line DP cells already present from mid-epoch
	// absorption; cellsRecomputed are the cells the close itself filled.
	cellsReused, cellsRecomputed int64
}

// warmState is one epoch strategy's resumable replanning state.  All
// methods run on the shard event loop, single-goroutine.
type warmState interface {
	// observe absorbs one admitted arrival (epoch-relative, nondecreasing;
	// exactly the values appended to the scheduler's trace).
	observe(rel float64)
	// replan answers an epoch close over the full recorded trace.  When
	// handled is true the outcome (or error) is bit-identical to the cold
	// replanner's on the same inputs; when false the caller must run the
	// cold path.  Either way the caller resets the state afterwards.
	replan(times []float64, relHorizon float64) (PlanOutcome, warmReport, bool, error)
	// reset discards all per-epoch state (retained capacity may be kept).
	reset()
}

// dedupTrace accumulates a planner-input trace incrementally: occupied
// slot ends for batched strategies (mirroring arrivals.Trace.BatchTimes
// float for float), adjacent-equal-collapsed raw times for immediate ones
// (mirroring the dyadic and off-line tie handling).
type dedupTrace struct {
	delay   float64
	batched bool

	times    []float64
	lastSlot int64
	hasSlot  bool
}

func (d *dedupTrace) observe(rel float64) bool {
	if d.batched {
		slot := int64(math.Floor(rel / d.delay))
		if d.hasSlot && slot == d.lastSlot {
			return false
		}
		d.hasSlot = true
		d.lastSlot = slot
		d.times = append(d.times, float64(slot+1)*d.delay)
		return true
	}
	if n := len(d.times); n > 0 && rel == d.times[n-1] {
		return false
	}
	d.times = append(d.times, rel)
	return true
}

func (d *dedupTrace) reset() {
	d.times = d.times[:0]
	d.hasSlot = false
}

// tablesWarm is the resumable off-line replanner (offline and
// offline-batched): it grows one retained offline.Tables handle by
// Extend as arrivals are absorbed and advances the partition prefix DP
// alongside, so SolveForest at the close costs only the tail.
type tablesWarm struct {
	p  PlanParams
	in dedupTrace

	tab      *offline.Tables
	absorbed int  // prefix of in.times already extended into tab
	dead     bool // absorption failed or over budget: cold for this epoch
}

// warmAbsorbMin batches absorption: a chunk is worth an Extend once it
// reaches max(warmAbsorbMin, absorbed/8) deduplicated arrivals, keeping
// per-arrival overhead O(1) amortized while the close's tail stays small.
const warmAbsorbMin = 32

// warmAbsorbBudget caps mid-epoch table growth at 2/3 of the cold path's
// instance cap: epochs headed past it are left to the cold close (which
// re-checks its own caps on its own inputs and falls back identically
// with or without warm state).
const warmAbsorbBudget = maxOfflineEpochTableBytes * 2 / 3

func newTablesWarm(batched bool) func(p PlanParams) warmState {
	return func(p PlanParams) warmState {
		return &tablesWarm{p: p, in: dedupTrace{delay: p.Delay, batched: batched}}
	}
}

func (w *tablesWarm) observe(rel float64) {
	if !w.in.observe(rel) || w.dead {
		return
	}
	if len(w.in.times)-w.absorbed >= warmAbsorbMin+w.absorbed/8 {
		w.absorb()
	}
}

// absorb extends the retained table (creating it on first use) over the
// pending deduplicated suffix and advances the partition DP.  Any
// failure — over budget, cancelled context, uncoverable gap — marks the
// state dead for the rest of the epoch; the cold close then reproduces
// exactly what cold-only mode would have done.
func (w *tablesWarm) absorb() {
	if offline.BandBytes(w.in.times, w.p.MediaLength) > warmAbsorbBudget {
		w.kill()
		return
	}
	ctx := w.p.Ctx
	if ctx == nil {
		//modlint:ignore ctxflow defensive root for directly-built PlanParams; scheduler configs always carry a context
		ctx = context.Background()
	}
	if w.tab == nil {
		tab, err := offline.ComputeTables(ctx, nil, offline.ReceiveTwo, w.p.MediaLength, 1)
		if err != nil {
			w.kill()
			return
		}
		w.tab = tab
	}
	if err := w.tab.Extend(ctx, w.in.times[w.absorbed:], 1); err != nil {
		w.kill()
		return
	}
	w.absorbed = len(w.in.times)
	if err := w.tab.AdvancePartition(w.p.MediaLength); err != nil {
		// An uncoverable gap: the cold close will hit the identical error
		// in its own partition DP and fall back, warm or not.
		w.kill()
	}
}

func (w *tablesWarm) kill() {
	w.dead = true
	w.tab = nil
}

func (w *tablesWarm) replan(times []float64, relHorizon float64) (PlanOutcome, warmReport, bool, error) {
	var rep warmReport
	if w.dead || len(times) == 0 {
		return PlanOutcome{}, rep, false, nil
	}
	if times[len(times)-1] >= relHorizon {
		// Clipping would drop arrivals; only the cold path does that
		// (never reached by the epoch scheduler, whose closes always
		// cover the recorded trace — defensive).
		return PlanOutcome{}, rep, false, nil
	}
	// Re-check the cold path's instance caps on the cold path's exact
	// inputs — raw times for offline, batched slot ends (== in.times) for
	// offline-batched — so warm-on and warm-off refuse the same epochs.
	coldIn := times
	if w.in.batched {
		coldIn = w.in.times
	}
	if len(coldIn) > maxOfflineEpochArrivals {
		return PlanOutcome{}, rep, false, nil
	}
	if offline.BandBytes(coldIn, w.p.MediaLength) > maxOfflineEpochTableBytes {
		return PlanOutcome{}, rep, false, nil
	}
	if w.tab != nil {
		rep.cellsReused = w.tab.Cells()
	}
	if w.tab == nil || w.absorbed < len(w.in.times) {
		w.absorb()
		if w.dead {
			return PlanOutcome{}, rep, false, nil
		}
	}
	f, err := w.tab.SolveForest(w.p.MediaLength)
	rep.cellsRecomputed = w.tab.Cells() - rep.cellsReused
	if err != nil {
		// The cold DP fails identically on this instance; report the error
		// so the close falls back exactly like a cold failure.
		return PlanOutcome{}, rep, true, err
	}
	return PlanOutcome{
		Cost:    f.NormalizedCost(),
		Busy:    f.Cost,
		Streams: appendForestStreams(nil, f.Forest),
	}, rep, true, nil
}

func (w *tablesWarm) reset() {
	w.in.reset()
	w.tab = nil
	w.absorbed = 0
	w.dead = false
}

// startsWarm carries the deduplicated service-start prefix that is the
// entire planner input of the batching and dyadic strategies: the close
// skips the O(n) clip+batch/dedupe rescan over the raw trace and plans
// straight from the maintained starts.
type startsWarm struct {
	p  PlanParams
	in dedupTrace
	// forest: build the dyadic merge forest over the starts (dyadic,
	// dyadic-batched); otherwise one full stream per start (batching).
	forest bool
}

func newStartsWarm(batched, forest bool) func(p PlanParams) warmState {
	return func(p PlanParams) warmState {
		return &startsWarm{p: p, in: dedupTrace{delay: p.Delay, batched: batched}, forest: forest}
	}
}

func (w *startsWarm) observe(rel float64) { w.in.observe(rel) }

func (w *startsWarm) replan(times []float64, relHorizon float64) (PlanOutcome, warmReport, bool, error) {
	var rep warmReport
	if len(times) == 0 {
		return PlanOutcome{}, rep, false, nil
	}
	if times[len(times)-1] >= relHorizon {
		return PlanOutcome{}, rep, false, nil
	}
	if w.forest {
		// dyadic.BuildForest dedupes internally, so feeding it the already
		// deduplicated starts is bit-identical to the cold call on the raw
		// (or cold-batched) trace.
		f, err := dyadic.BuildForest(arrivals.Trace(w.in.times), w.p.MediaLength, w.p.dyadicParams())
		if err != nil {
			return PlanOutcome{}, rep, true, err
		}
		return forestOutcome(f), rep, true, nil
	}
	// Merging-free batching: batching.BatchedCost is exactly the occupied
	// slot count, which is len(in.times) by construction.
	out := PlanOutcome{
		Cost: float64(len(w.in.times)),
		Busy: float64(len(w.in.times)) * w.p.MediaLength,
	}
	out.Streams = make([]Stream, len(w.in.times))
	for i, t := range w.in.times {
		out.Streams[i] = Stream{Start: t, Length: w.p.MediaLength}
	}
	return out, rep, true, nil
}

func (w *startsWarm) reset() { w.in.reset() }
