package live

import (
	"context"
	"fmt"
	"math"

	"repro/internal/arrivals"
	"repro/internal/batching"
	"repro/internal/dyadic"
	"repro/internal/hybrid"
	"repro/internal/mergetree"
	"repro/internal/multiobject"
	"repro/internal/offline"
	"repro/internal/store"
)

// Stream is one planned transmission in epoch-relative time.
type Stream struct {
	// Start is the transmission start, relative to the epoch base.
	Start float64
	// Length is the transmission duration in catalog time units.
	Length float64
}

// PlanParams are the batch-planner parameters of one epoch replan: the
// settings the mod facade's planner of the same name passes its
// algorithm, which is why a whole-horizon epoch reproduces the public
// Plan() bit for bit.
type PlanParams struct {
	// MediaLength and Delay are the object's length and effective delay.
	MediaLength, Delay float64
	// SlotsPerMedia is the L of the paper for (MediaLength, Delay).
	SlotsPerMedia int64
	// Cache supplies the on-line template state the hybrid's
	// delay-guaranteed segments replay.
	Cache *Cache
	// Ctx bounds the off-line DP of a replan; it is never nil
	// (Config.withDefaults and BatchReference root the default).
	Ctx context.Context
}

// paramsFor derives the replan parameters from a scheduler configuration.
func paramsFor(cfg Config) PlanParams {
	return PlanParams{
		MediaLength:   cfg.Object.Length,
		Delay:         cfg.Object.Delay,
		SlotsPerMedia: cfg.Object.Slots(),
		Cache:         cfg.Cache,
		Ctx:           cfg.Ctx,
	}
}

// PlanOutcome is one batch replan's result: the authoritative cost the
// planner reports (never re-derived from the streams, so float summation
// order cannot drift from the batch path) plus the individual
// transmissions for gauge and bandwidth accounting.
type PlanOutcome struct {
	// Cost is the planner's bandwidth in complete media streams.
	Cost float64
	// Busy is the same bandwidth in catalog time units.
	Busy float64
	// Streams are the planned transmissions, epoch-relative.
	Streams []Stream
}

// Replanner runs one batch planner family over the (epoch-relative,
// nondecreasing) arrival times with the given horizon.
type Replanner func(times []float64, horizon float64, p PlanParams) (PlanOutcome, error)

// epochStrategy describes how one batch planner family serves live
// traffic through the epoch adapter.
type epochStrategy struct {
	name string
	// batched: arrivals wait until the end of their slot (StartAt is the
	// slot end, clients are distinct occupied slots).  Immediate-service
	// strategies start playback at the arrival itself and count distinct
	// arrival times.
	batched bool
	// perArrival: every arrival is its own client even at equal times
	// (unicast's no-sharing accounting).
	perArrival bool
	replan     Replanner
	// resumable: the close resumes forest tables absorbed mid-epoch
	// (the off-line pair, warm.go) instead of running replan, which then
	// serves only as BatchReference's oracle.
	resumable bool
}

// epochStrategies lists the live-capable batch planner families.  Names
// are the public planner registry names; each replanner calls the
// algorithm the facade's planner of the same name calls, with the same
// settings.
var epochStrategies = []epochStrategy{
	{name: "offline", replan: replanOffline, resumable: true},
	{name: "offline-batched", batched: true, replan: replanOfflineBatched, resumable: true},
	{name: "dyadic", replan: replanDyadic},
	{name: "dyadic-batched", batched: true, replan: replanDyadicBatched},
	{name: "batching", batched: true, replan: replanBatching},
	{name: "unicast", perArrival: true, replan: replanUnicast},
	{name: "hybrid", batched: true, replan: replanHybrid},
}

// epochStrategyNamed looks a family of epochStrategies up by name.
func epochStrategyNamed(name string) (epochStrategy, bool) {
	for _, st := range epochStrategies {
		if st.name == name {
			return st, true
		}
	}
	return epochStrategy{}, false
}

// epochSched makes a batch planner incremental by epoch-based replanning:
// arrivals are collected for an epoch of EpochSlots slots; when the clock
// passes the epoch boundary the batch planner is re-run over the epoch's
// arrivals and its plan is spliced in at the boundary (streams open
// through the Sink, retroactively for the parts already in the past).
// Merging never crosses an epoch boundary — the same isolation the hybrid
// applies to its mode segments — so each epoch's cost is exactly the
// batch planner's cost on that epoch, and a drain with EpochSlots at
// least the horizon reproduces the whole batch plan bit for bit.
//
//modlint:loop
type epochSched struct {
	st    epochStrategy
	sink  Sink
	p     PlanParams
	delay float64

	// origin is the absolute time of the first epoch's start; epoch k
	// spans [origin + k*epochLen, origin + (k+1)*epochLen).  epochLen <= 0
	// collects a single epoch closed only by Drain.
	origin   float64
	epochLen float64
	epoch    int64
	// dueAt caches Due for the epoch base dueOf (NaN: not computed).
	dueAt float64
	dueOf float64

	// times are the current epoch's arrivals, epoch-relative and
	// nondecreasing.
	times []float64
	// lastSlot is the largest occupied (epoch-relative) arrival slot of a
	// batched strategy (-1: none); lastTime is the latest distinct arrival
	// time of an immediate one.
	lastSlot int64
	lastTime float64
	// epochSlots mirrors Config.EpochSlots; batched Admission slots are
	// slotBase + epoch*epochSlots + relative slot, so (delay-epoch, Slot)
	// stays unambiguous across replanning epochs.  slotBase accumulates
	// the slots consumed before each re-basing (pressure closes, drains).
	epochSlots int64
	slotBase   int64
	// warm holds the off-line pair's resumable forest tables, absorbing
	// arrivals as they are admitted so the epoch close pays only for the
	// un-absorbed tail (nil for every other strategy).  now meters replan
	// latency when the serving layer injects a clock (nil on
	// deterministic paths).
	warm *tablesWarm
	now  func() int64
	// provisional holds the estimated ends of the admission gauge's
	// placeholder channels for the current epoch's clients: until the
	// plan exists, each distinct service instant conservatively occupies
	// one channel for a full media length (the unicast upper bound), so a
	// channel cap still throttles epoch strategies mid-epoch.  The close
	// replaces them with the real plan's streams.
	provisional []float64

	totals Totals
}

func newEpochSched(st epochStrategy, cfg Config) *epochSched {
	s := &epochSched{
		st:       st,
		sink:     cfg.Sink,
		p:        paramsFor(cfg),
		delay:    cfg.Object.Delay,
		origin:   cfg.Base,
		lastSlot: -1,
		lastTime: math.Inf(-1),
		dueOf:    math.NaN(),
	}
	if cfg.EpochSlots > 0 {
		s.epochLen = float64(cfg.EpochSlots) * cfg.Object.Delay
		s.epochSlots = int64(cfg.EpochSlots)
	}
	if st.resumable {
		s.warm = &tablesWarm{p: &s.p, batched: st.batched}
	}
	s.now = cfg.NowNanos
	return s
}

func (s *epochSched) Strategy() string { return s.st.name }

// Encode writes the epoch cursors, the current epoch's trace and gauge
// placeholders, and the closed epochs' totals.  The warm tables are left
// out: they are a pure function of the nondecreasing trace, so decode
// rebuilds them exactly by observing it again.
func (s *epochSched) Encode(e *store.Encoder) {
	e.U8(epochSection)
	e.F64(s.origin)
	e.I64(s.epoch)
	e.F64s(s.times)
	e.I64(s.lastSlot)
	e.F64(s.lastTime)
	e.I64(s.slotBase)
	e.F64s(s.provisional)
	s.totals.Encode(e)
}

func (s *epochSched) decode(d *store.Decoder) error {
	if err := decodeSection(d, epochSection, s.Strategy()); err != nil {
		return err
	}
	s.origin = d.F64()
	s.epoch = d.I64()
	s.times = d.F64s()
	s.lastSlot = d.I64()
	s.lastTime = d.F64()
	s.slotBase = d.I64()
	s.provisional = d.F64s()
	s.totals.Decode(d)
	if err := d.Err(); err != nil {
		return err
	}
	if s.warm != nil {
		for _, rel := range s.times {
			s.warm.observe(rel)
		}
	}
	return nil
}

// base returns the absolute start of the current epoch, computed from the
// origin so repeated boundary crossings cannot accumulate float drift.
func (s *epochSched) base() float64 {
	return s.origin + float64(s.epoch)*s.epochLen
}

// crossed reports whether t has passed the open epoch's boundary: the
// one test rollTo closes epochs on and Due searches.
func (s *epochSched) crossed(t float64) bool {
	return s.epochLen > 0 && t-s.base() >= s.epochLen
}

// rollTo closes every epoch whose boundary t has passed.
func (s *epochSched) rollTo(t float64) {
	for s.crossed(t) {
		s.closeEpoch(s.epochLen)
		s.epoch++
		s.lastSlot = -1
		s.lastTime = math.Inf(-1)
	}
}

func (s *epochSched) Advance(t float64) {
	s.rollTo(t)
}

// Due is the open epoch's boundary, even when the epoch is empty: rolling
// past it moves the frontier and the encoded epoch cursor.  Only Drain
// closes an epoch of a scheduler without EpochSlots.
func (s *epochSched) Due() float64 {
	if s.epochLen <= 0 {
		return math.Inf(1)
	}
	if b := s.base(); b != s.dueOf {
		s.dueAt, s.dueOf = earliest(b+s.epochLen, s.crossed), b
	}
	return s.dueAt
}

func (s *epochSched) Admit(t float64) Admission {
	s.rollTo(t)
	rel := t - s.base()
	if rel < 0 {
		rel = 0
	}
	if n := len(s.times); n > 0 && rel < s.times[n-1] {
		// Defensive: the shard clock is monotone, so within one epoch rel
		// cannot regress; keep the recorded trace nondecreasing anyway.
		rel = s.times[n-1]
	}
	adm := Admission{Delay: s.delay}
	newClient := false
	if s.st.batched {
		slot := int64(math.Floor(rel / s.delay))
		if slot > s.lastSlot {
			s.lastSlot = slot
			s.totals.Clients++
			newClient = true
		}
		adm.Slot = s.slotBase + s.epoch*s.epochSlots + s.lastSlot
		adm.StartAt = s.base() + float64(s.lastSlot+1)*s.delay
		// Record the raw time, not the slot end: the batch planners apply
		// their own batching to raw arrival times.
	} else {
		if s.st.perArrival || rel != s.lastTime {
			s.totals.Clients++
			newClient = true
		}
		s.lastTime = rel
		adm.Slot = s.totals.Clients - 1
		adm.StartAt = s.base() + rel
	}
	if newClient {
		// Until the epoch closes and the real plan exists, the admission
		// gauge counts this client's service as one merging-free channel —
		// the unicast upper bound — so a channel cap throttles epoch
		// strategies mid-epoch instead of discovering the load at close.
		est := adm.StartAt + s.p.MediaLength
		s.sink.ProvisionalStarted(est)
		s.provisional = append(s.provisional, est)
	}
	s.times = append(s.times, rel)
	if s.warm != nil {
		s.warm.observe(rel)
	}
	if len(s.times) >= maxEpochArrivals {
		// Pressure close: a flood of same-timestamp requests never
		// advances the clock, so without this bound the epoch (and its
		// replan instance) would grow without limit.  Close at the end of
		// the last occupied slot and continue in a fresh epoch.
		s.closeAt(slotEndAfter(rel, s.delay))
	}
	return adm
}

// closeEpoch runs the batch planner over the current epoch's arrivals
// with the given epoch-relative horizon and splices the plan in: every
// stream is opened and finalized through the Sink at its absolute time,
// and the epoch's provisional gauge placeholders are retired in the same
// breath (the real streams take over the channel accounting).
func (s *epochSched) closeEpoch(relHorizon float64) {
	if len(s.times) == 0 {
		return
	}
	closeAbs := s.base() + relHorizon
	for _, est := range s.provisional {
		if est > closeAbs {
			// Still counted by the gauge: retire the placeholder at the
			// close and cancel its pending end event.  Placeholders whose
			// estimates already passed retired themselves.
			s.sink.StreamTrimmed(closeAbs, est)
		}
	}
	s.provisional = fit(s.provisional, len(s.provisional))
	var t0 int64
	if s.now != nil {
		t0 = s.now()
	}
	out, err := s.runReplan(relHorizon)
	if s.now != nil {
		d := s.now() - t0
		s.totals.Replan.ReplanNanos += d
		if d > s.totals.Replan.MaxReplanNanos {
			s.totals.Replan.MaxReplanNanos = d
		}
	}
	if err != nil {
		// Never fail the serving path: fall back to one full unicast
		// stream per arrival (an overcount, never an undercount) and
		// surface the failure in the totals.
		out = replanFallback(s.times, s.p)
		s.totals.ReplanFailures++
	}
	base := s.base()
	for _, iv := range out.Streams {
		s.sink.StreamStarted(base + iv.Start + iv.Length)
		s.sink.StreamFinalized(base+iv.Start, iv.Length)
	}
	s.totals.Streams += int64(len(out.Streams))
	s.totals.FinalizedStreams += int64(len(out.Streams))
	s.totals.BusyTime += out.Busy
	s.totals.Cost += out.Cost
	s.times = fit(s.times, len(s.times))
}

// fit empties a per-epoch buffer that the closing epoch filled to n
// entries, replacing it with one of capacity max(n, fitFloor) when it
// holds more than twice that, so a flash epoch's capacity does not
// outlive the first smaller epoch, while an object whose epochs hold a
// few arrivals each keeps its buffers instead of reallocating them at
// every other close.
func fit[S ~[]E, E any](s S, n int) S {
	if n = max(n, fitFloor); cap(s) > 2*n {
		return make(S, 0, n)
	}
	return s[:0]
}

// fitFloor is the capacity below which fit never shrinks a buffer.
const fitFloor = 64

// runReplan answers one epoch close: from the retained tables for the
// off-line pair, which reproduce the batch planner bit for bit, from the
// batch planner for every other strategy.  The tables never outlive their
// epoch — consecutive epochs have disjoint epoch-relative traces — so
// they are reset at every close.
func (s *epochSched) runReplan(relHorizon float64) (PlanOutcome, error) {
	s.totals.Replan.Replans++
	if s.warm != nil {
		defer s.warm.reset()
		return s.warm.replan(s.times, &s.totals.Replan)
	}
	return s.st.replan(s.times, relHorizon, s.p)
}

// maxEpochArrivals bounds how many arrivals one epoch may collect before
// it is pressure-closed (a variable so tests can lower it).
var maxEpochArrivals = 1 << 17

// slotEndAfter returns where a close after the epoch-relative arrival rel
// may end without clipping it: the end of the slot Admit counts it in,
// (floor(rel/delay)+1)·delay, or the next slot boundary when rounding puts
// that end on rel itself (0.58 at delay 0.02, say).  Every replanner clips
// arrivals at or after its horizon.
func slotEndAfter(rel, delay float64) float64 {
	k := math.Floor(rel/delay) + 1
	if k*delay <= rel {
		k++
	}
	return k * delay
}

// closeAt closes the current epoch at the epoch-relative time relEnd and
// re-bases the scheduler there, returning the absolute end.
func (s *epochSched) closeAt(relEnd float64) float64 {
	s.closeEpoch(relEnd)
	end := s.base() + relEnd
	s.slotBase += s.epoch*s.epochSlots + int64(math.Ceil(relEnd/s.delay))
	s.origin = end
	s.epoch = 0
	s.lastSlot = -1
	s.lastTime = math.Inf(-1)
	return end
}

// Drain closes any full epochs before the horizon, then the final partial
// epoch, widening its horizon to the end of the last occupied slot so no
// admitted arrival is ever dropped (the batch planners clip at their
// horizon).  It returns the absolute end of the final epoch.
func (s *epochSched) Drain(horizon float64) float64 {
	s.rollTo(horizon)
	rel := horizon - s.base()
	if rel < 0 {
		rel = 0
	}
	if n := len(s.times); n > 0 {
		rel = max(rel, slotEndAfter(s.times[n-1], s.delay))
	}
	return s.closeAt(rel)
}

func (s *epochSched) Totals() Totals { return s.totals }

func (s *epochSched) ReplanNanos() int64 { return s.totals.Replan.ReplanNanos }

// Frontier is the current epoch's start: closed epochs are finalized, and
// the open epoch's plan starts no stream before its base (arrivals are
// epoch-relative and clamped at 0).
func (s *epochSched) Frontier() float64 { return s.base() }

// replanFallback is the never-fail plan: a private full stream per
// arrival (exactly the unicast strawman).  The streams go into the
// shard's plan buffer, which the outcome aliases until the next close.
func replanFallback(times []float64, p PlanParams) PlanOutcome {
	streams := p.Cache.streams[:0]
	for _, t := range times {
		streams = append(streams, Stream{Start: t, Length: p.MediaLength})
	}
	p.Cache.streams = streams
	return PlanOutcome{Cost: float64(len(times)), Busy: float64(len(times)) * p.MediaLength, Streams: streams}
}

// appendForestStreams extracts the transmissions of a real-valued merge
// forest: roots own full streams of length L, and a non-root node x
// merging into parent p transmits for 2 z(x) − x − p (Lemma 1 for general
// arrivals) — the receive-two lengths the forest costs are built from.
func appendForestStreams(dst []Stream, f *mergetree.RForest) []Stream {
	for _, tr := range f.Trees {
		tr.Walk(func(node, parent *mergetree.RTree) {
			if parent == nil {
				dst = append(dst, Stream{Start: node.Arrival, Length: f.L})
			} else {
				dst = append(dst, Stream{Start: node.Arrival, Length: 2*node.Last() - node.Arrival - parent.Arrival})
			}
		})
	}
	return dst
}

func clip(times []float64, horizon float64) arrivals.Trace {
	return arrivals.Trace(times).Clip(horizon)
}

// replanOffline is the exact off-line optimum (the banded interval DP),
// the guarded solve the facade's offline planner runs.  Live closes
// answer from the retained tables (tablesWarm.replan); this and
// replanOfflineBatched are their reference, through BatchReference and a
// scheduler whose tables are nil.
func replanOffline(times []float64, horizon float64, p PlanParams) (PlanOutcome, error) {
	return offlineOutcome(clip(times, horizon), p)
}

// replanOfflineBatched batches arrivals to their slot ends first — the
// tight lower bound for the delay-`delay` policies.
func replanOfflineBatched(times []float64, horizon float64, p PlanParams) (PlanOutcome, error) {
	return offlineOutcome(clip(times, horizon).BatchTimes(p.Delay), p)
}

// offlineOutcome runs the guarded solve with the default caps, the caps
// tablesWarm applies too, so neither runs a DP the batch facade would
// refuse: an over-cap epoch falls back to unicast streams (counted in
// ReplanFailures) instead of stalling the shard event loop on a multi-GB
// allocation.
func offlineOutcome(times []float64, p PlanParams) (PlanOutcome, error) {
	res, err := offline.SolveGuarded(p.Ctx, times, p.MediaLength, 0, 0)
	if err != nil {
		return PlanOutcome{}, err
	}
	return PlanOutcome{
		Cost:    res.NormalizedCost(),
		Busy:    res.Cost,
		Streams: appendForestStreams(nil, res.Forest),
	}, nil
}

// replanDyadic is the immediate-service dyadic baseline.
func replanDyadic(times []float64, horizon float64, p PlanParams) (PlanOutcome, error) {
	f, err := dyadic.BuildForest(clip(times, horizon), p.MediaLength, dyadic.GoldenPoisson())
	if err != nil {
		return PlanOutcome{}, err
	}
	return forestOutcome(f), nil
}

// replanDyadicBatched is the batched dyadic baseline.
func replanDyadicBatched(times []float64, horizon float64, p PlanParams) (PlanOutcome, error) {
	f, err := dyadic.BuildBatchedForest(clip(times, horizon), p.MediaLength, p.Delay, dyadic.GoldenPoisson())
	if err != nil {
		return PlanOutcome{}, err
	}
	return forestOutcome(f), nil
}

func forestOutcome(f *mergetree.RForest) PlanOutcome {
	return PlanOutcome{
		Cost:    f.NormalizedCost(),
		Busy:    f.FullCost(),
		Streams: appendForestStreams(nil, f),
	}
}

// replanBatching is merging-free batching: one full stream per occupied
// slot, started at the slot's end.  Its cost, the occupied-slot count, is
// batching.BatchedCost's, read off the batched starts instead of batching
// the trace a second time.  The starts go into the shard's scratch.
func replanBatching(times []float64, horizon float64, p PlanParams) (PlanOutcome, error) {
	p.Cache.starts = clip(times, horizon).AppendBatchTimes(p.Cache.starts[:0], p.Delay)
	return replanFallback(p.Cache.starts, p), nil
}

// replanUnicast is the no-sharing strawman: a private full stream per
// client the moment it arrives.
func replanUnicast(times []float64, horizon float64, p PlanParams) (PlanOutcome, error) {
	clipped := clip(times, horizon)
	out := replanFallback(clipped, p)
	out.Cost = batching.ImmediateUnicastCost(clipped)
	return out, nil
}

// replanHybrid replays the Section 5 mode-switching timeline: the hybrid
// engine classifies the epoch into loaded/unloaded segments, and each
// segment's streams come from its mode — the oblivious on-line group
// lengths for delay-guaranteed segments, the batched dyadic forest the
// engine priced each dyadic segment with.  The cost is the engine's
// TotalCost, so the live number is the batch hybrid's number.
func replanHybrid(times []float64, horizon float64, p PlanParams) (PlanOutcome, error) {
	res, err := hybrid.Run(clip(times, horizon), horizon, p.MediaLength, p.Delay)
	if err != nil {
		return PlanOutcome{}, err
	}
	out := PlanOutcome{Cost: res.TotalCost, Busy: res.TotalCost * p.MediaLength}
	plan := p.Cache.planFor(p.SlotsPerMedia)
	var lens []mergetree.NodeLength
	for _, seg := range res.Segments {
		switch seg.Mode {
		case hybrid.ModeDelayGuaranteed:
			n := int64(math.Round((seg.End - seg.Start) / p.Delay))
			if n < 1 {
				continue
			}
			lens = plan.onl.AppendLengths(lens[:0], n)
			for _, nl := range lens {
				out.Streams = append(out.Streams, Stream{
					Start:  seg.Start + float64(nl.Arrival)*p.Delay,
					Length: float64(nl.Length) * p.Delay,
				})
			}
		case hybrid.ModeDyadic:
			if seg.Forest != nil {
				out.Streams = appendForestStreams(out.Streams, seg.Forest)
			}
		}
	}
	return out, nil
}

// BatchReference returns the stream count and cost the named strategy's
// batch plan produces for the (relative, nondecreasing) arrival times
// over the horizon — the numbers a drained live run with EpochSlots >=
// horizon must reproduce bit for bit.  For the oblivious on-line strategy
// the horizon is rounded to slots exactly like the facade's online planner.
func BatchReference(strategy string, times []float64, horizon float64, obj multiobject.Object) (streams int64, cost float64, err error) {
	p := PlanParams{
		MediaLength:   obj.Length,
		Delay:         obj.Delay,
		SlotsPerMedia: obj.Slots(),
		Cache:         NewCache(),
		//modlint:ignore ctxflow BatchReference is a ctx-free test oracle; its off-line DP is never cancelled
		Ctx: context.Background(),
	}
	if strategy == "online" {
		n := int64(math.Round(horizon / obj.Delay))
		if n < 1 {
			n = 1
		}
		plan := p.Cache.planFor(p.SlotsPerMedia)
		return n, float64(plan.onl.CostClosed(n)) / float64(p.SlotsPerMedia), nil
	}
	st, ok := epochStrategyNamed(strategy)
	if !ok {
		return 0, 0, fmt.Errorf("%w %q", ErrUnknownStrategy, strategy)
	}
	if len(times) == 0 {
		return 0, 0, nil
	}
	out, err := st.replan(times, horizon, p)
	if err != nil {
		return 0, 0, err
	}
	return int64(len(out.Streams)), out.Cost, nil
}
