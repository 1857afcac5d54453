package serve

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/bandwidth"
	"repro/internal/live"
	"repro/internal/multiobject"
	"repro/internal/stats"
)

// routed is one submission entry: a request and its object's state as
// the router resolved it (see route).
type routed struct {
	req Request
	st  *objectState
}

// submitMsg asks the shard to admit its entries in order: one channel
// send for a Submit's single request or a SubmitBatch's whole share of
// the shard.  The submitter owns the message; the shard writes out[i]
// (and, on a durable server, the WAL record recs[i]) for reqs[i] and
// signals done exactly once, after the WAL writer's flush when durable.
// enqueueNS is the submit-side clock reading (0 = unmetered); every
// entry shares the message's queue wait.
type submitMsg struct {
	reqs      []routed
	out       []Ticket
	recs      [][walRecSize]byte
	done      chan struct{}
	enqueueNS int64
}

// pauseMsg parks the shard loop: it closes ack once parked and blocks
// until resume closes (or the server shuts down).  Used by Server.Pause
// to hold a queue at a known occupancy in overload tests.
type pauseMsg struct {
	ack    chan struct{}
	resume chan struct{}
}

// statsMsg asks the shard for a snapshot of its objects and of the
// finalized intervals from index from on (the server's fold cursor for
// the shard); a negative from asks for none.  The shard first forgets the
// intervals before from that end by the durable settle point.
type statsMsg struct {
	from    int
	durable settlePoint
	reply   chan shardSnapshot
}

// drainMsg asks the shard to finalize every object at the horizon, then
// answers like a statsMsg with the same cursor and settle point.
type drainMsg struct {
	horizon float64
	from    int
	durable settlePoint
	reply   chan shardSnapshot
}

// shardSnapshot is a shard's answer to statsMsg/drainMsg.
type shardSnapshot struct {
	// objects are the shard's object stats in shard order; index[k] is
	// objects[k]'s catalog position.
	objects []ObjectStats
	index   []int
	// intervals are the shard's finalized intervals from index from on,
	// in finalization order.
	intervals []bandwidth.Interval
	from      int
	// busy is the shard's busy-time sum (shard.busy).
	busy float64
	// frontier is the minimum live.Incremental.Frontier over the shard's
	// objects: no interval the shard finalizes later starts before it.
	frontier float64
	// stages is a copy of the shard's per-strategy stage histograms
	// (indexed like Server.stratNames); Server.Metrics merges them.
	stages []stageHist
}

// stageHist is one strategy's stage histograms on one shard: plain
// values owned by the loop goroutine, observed on the admit path with no
// allocation (stats.LogHistogram is a fixed-size value type).
type stageHist struct {
	queue  stats.LogHistogram
	plan   stats.LogHistogram
	replan stats.LogHistogram
}

// objectState is all per-object state, owned exclusively by one shard's
// event loop.  The scheduling itself lives in the live.Incremental value:
// the on-line forest natively, every other planner family through
// epoch-based replanning.
type objectState struct {
	obj      multiobject.Object
	index    int // catalog position, for stable reporting order
	strategy string
	// si is the strategy's index in Server.stratNames, addressing the
	// shard's stage histograms without a map lookup on the hot path.
	si int

	// Current delay epoch.  A degradation drains the scheduler and starts
	// a fresh one with a larger delay; Slot/Program labels are
	// epoch-relative.
	epoch int
	scale float64
	delay float64
	L     int64
	sched live.Incremental
	// carry accumulates the totals of schedulers closed by degradations.
	carry live.Totals

	arrivals int64
	rejected int64
}

// totals folds the closed epochs' accounting with the live scheduler's.
func (st *objectState) totals() live.Totals {
	t := st.carry
	t.Accumulate(st.sched.Totals())
	return t
}

// replanNanos is the object's cumulative metered replan wall time; the
// stage decomposition reads its delta across one admitCore call.  Cheap
// enough for the hot path: Totals() is a value copy on every adapter.
//
//modlint:noalloc
func (st *objectState) replanNanos() int64 {
	return st.carry.Replan.ReplanNanos + st.sched.Totals().Replan.ReplanNanos
}

// shard is one scheduler shard: a single-goroutine event loop owning the
// admission state of the objects routed to it.  The shard also implements
// live.Sink: scheduler stream events become the live channel gauge and
// the real-time bandwidth record.
//
//modlint:loop
type shard struct {
	id int
	// total is the server's shard count (at least 1, even on loop-less
	// benchmark harnesses); ticket IDs are ticketSeq*total + id + 1, so
	// IDs are dense per shard and disjoint across shards.
	total int
	srv   *Server
	msgs  chan any

	objects []*objectState
	byName  map[string]*objectState
	cache   *live.Cache

	// kept holds the finalized stream intervals the server may still
	// need, in finalization order: first the folded ones that end after
	// the durable settle point, then, from kept[folded] on, every one
	// finalized since the fold cursor.  next is the index of kept[folded]
	// in the shard's finalization order, the cursor as last reported.
	// The shard wakes the settler once len(kept) reaches settleAt, twice
	// its length after the last trim.  See DESIGN.md §6b.
	kept     []bandwidth.Interval
	folded   int
	next     int
	settleAt int
	// busy sums every finalized interval's duration in finalization
	// order, exactly as bandwidth.Usage.Total would.
	busy float64
	// durable is the durable settle point the shard last heard of.
	durable settlePoint
	// onFinalize, when a test installs it while the shard is paused, sees
	// every finalized interval; it is nil in production.
	onFinalize func(bandwidth.Interval)
	// ends is a min-heap of gauge events: each started stream contributes a
	// -1 at its (estimated) end time, and an epoch truncation contributes a
	// corrective -1 at the true end plus a cancelling +1 at the stale
	// estimate, so the live gauge never overcounts streams a degradation
	// has already cut short.  Events are applied as time passes them.
	ends []endEvent
	// now is the shard's monotone virtual clock.
	now float64
	// drained is set once Drain has finalized the shard's objects, state
	// no log record or snapshot may carry (see checkpoint).
	drained bool
	// minDelay is the smallest initial object delay on the shard (delays
	// only grow under degradation), the slot unit of the MaxSlotJump guard.
	minDelay float64

	// stages holds the per-strategy stage histograms (indexed like
	// Server.stratNames), preallocated before the loop starts; Observe
	// never allocates, so the admit path stays 0 allocs/op with stage
	// metering on.
	stages []stageHist
	// lastPlanNS/lastReplanNS carry one admission's stage split from
	// admitCore to the ticket materialization (loop-owned scratch).
	lastPlanNS   int64
	lastReplanNS int64

	// Durability state (nil/zero without Config.Store).  ticketSeq is the
	// next ticket's shard-local sequence number; it survives restarts via
	// the snapshot and WAL replay, so ticket IDs are never reissued.
	// admittedL/degradedL/rejectedL mirror this shard's contributions to
	// the server-wide atomic counters — the atomics cannot be decomposed
	// per shard at snapshot time, the loop-owned mirrors can.
	ticketSeq int64
	admittedL int64
	degradedL int64
	rejectedL int64
	// walCh feeds the shard's WAL writer goroutine; nil disables
	// durability routing in the loop.  The loop is the only sender.
	// (Cross-goroutine repair signalling lives on Server.walRepair, off
	// the loop-owned struct.)
	walCh chan walMsg
	// snapEvery/nextSnap drive the snapshot cadence in virtual time
	// (SnapshotEpochs × EpochSlots slots of the smallest object delay).
	snapEvery float64
	nextSnap  float64
	// snapFree recycles snapshot capture buffers between the loop (which
	// fills one per snapshot) and the WAL writer (which returns it after
	// encoding).  Capacity 2: one in flight, one ready for the next
	// cadence tick.  A channel, not a sync.Pool — the loop-owned struct
	// carries no sync/atomic state (modlint:loop).
	snapFree chan *shardSnapshotState
}

func newShard(id int, srv *Server) *shard {
	total := srv.cfg.Shards
	if total < 1 {
		total = 1
	}
	return &shard{
		id:       id,
		total:    total,
		srv:      srv,
		msgs:     make(chan any, srv.cfg.QueueDepth),
		byName:   make(map[string]*objectState),
		cache:    live.NewCache(),
		settleAt: settleFloor,
	}
}

// settleFloor is the smallest kept set for which a shard asks the settler
// to fold, so small servers do not fold after every few streams.
const settleFloor = 1 << 12

// StreamStarted implements live.Sink: a new transmission raises the live
// channel gauge, with a retirement event at its estimated end.  A stream
// that has already ended by the shard clock — most of the streams an
// epoch close splices in — changes nothing: the event would be popped at
// once, by this admission's popEnds or the next one's, before any
// admission decision reads the gauge.
//
//modlint:noalloc
func (sh *shard) StreamStarted(estEnd float64) {
	if estEnd <= sh.now {
		return
	}
	sh.pushEnd(estEnd, -1)
	sh.srv.gauge.Add(1)
}

// ProvisionalStarted implements live.Sink: an epoch strategy's
// merging-free placeholder counts against the gauge exactly like a
// stream until its epoch's replan trims it; it never reaches the
// bandwidth usage.
func (sh *shard) ProvisionalStarted(estEnd float64) {
	sh.pushEnd(estEnd, -1)
	sh.srv.gauge.Add(1)
}

// StreamFinalized implements live.Sink: a final-length transmission joins
// the kept set and the busy-time sum.  When the kept set has doubled
// since the last trim, the settler is asked to fold, so the set can
// shrink even when nobody reads.
//
//modlint:noalloc
func (sh *shard) StreamFinalized(start, length float64) {
	iv := bandwidth.Interval{Start: start, End: start + length}
	if iv.End <= iv.Start {
		return
	}
	sh.busy += iv.End - iv.Start
	sh.kept = append(sh.kept, iv)
	if sh.onFinalize != nil {
		sh.onFinalize(iv)
	}
	if len(sh.kept) >= sh.settleAt {
		sh.settleAt = 2 * len(sh.kept)
		select {
		case sh.srv.settle <- struct{}{}:
		default:
		}
	}
}

// StreamTrimmed implements live.Sink: truncation cut a stream short, so
// retire it at the true end and cancel the stale estimate.  Events at or
// before the shard clock are applied at once instead of queued: a true
// end that has passed retires the stream now, and when the stale
// estimate has passed too the pair cancels out.
//
//modlint:noalloc
func (sh *shard) StreamTrimmed(end, staleEnd float64) {
	switch {
	case staleEnd <= sh.now:
	case end <= sh.now:
		sh.srv.gauge.Add(-1)
		sh.pushEnd(staleEnd, +1)
	default:
		sh.pushEnd(end, -1)
		sh.pushEnd(staleEnd, +1)
	}
}

// newScheduler builds the live scheduler for a strategy over obj with the
// given effective delay, based at absolute time base.
func (sh *shard) newScheduler(obj multiobject.Object, strategy string, delay, base float64) (live.Incremental, error) {
	cfg := sh.liveConfig(obj, delay)
	cfg.Base = base
	return live.New(strategy, cfg)
}

// liveConfig is the scheduler configuration of obj at the given
// effective delay.
func (sh *shard) liveConfig(obj multiobject.Object, delay float64) live.Config {
	obj.Delay = delay
	var nowNanos func() int64
	if sh.srv.cfg.MeterStages {
		nowNanos = sh.srv.nowNanos
	}
	return live.Config{
		Object:       obj,
		EpochSlots:   sh.srv.cfg.EpochSlots,
		ConstantRate: sh.srv.cfg.ConstantRateTuning,
		Cache:        sh.cache,
		Sink:         sh,
		Ctx:          sh.srv.ctx,
		NowNanos:     nowNanos,
	}
}

// addObject registers a catalog object with the shard (before loop start).
// The strategy name was resolved and validated by Server.New.
func (sh *shard) addObject(o multiobject.Object, index int, strategy string) error {
	st := &objectState{obj: o, index: index, strategy: strategy, scale: 1,
		si: sh.srv.strategyIndex(strategy)}
	for len(sh.stages) <= st.si {
		sh.stages = append(sh.stages, stageHist{})
	}
	sched, err := sh.newScheduler(o, strategy, o.Delay, 0)
	if err != nil {
		return fmt.Errorf("%w: object %q: %w", ErrBadConfig, o.Name, err)
	}
	st.sched = sched
	st.delay = o.Delay
	st.L = o.Slots()
	sh.objects = append(sh.objects, st)
	sh.byName[o.Name] = st
	if sh.minDelay == 0 || o.Delay < sh.minDelay {
		sh.minDelay = o.Delay
	}
	return nil
}

// loop is the shard's event loop; all object state is confined to it.
// One blocking select per wake, then a burst drain: messages already
// queued are handled through non-blocking receives, so a backlog costs
// one scheduler wake and one multi-case select for the whole burst
// instead of one per message (the burst is also what feeds the WAL
// writer's group commits whole cohorts at a time).
func (sh *shard) loop() {
	defer sh.srv.wg.Done()
	for {
		var m any
		select {
		case m = <-sh.msgs:
		case <-sh.srv.quit:
			return
		}
		for {
			if !sh.handle(m) {
				return
			}
			m = nil
			yielded := false
			for m == nil {
				select {
				case m = <-sh.msgs:
				default:
				}
				if m != nil || yielded {
					break
				}
				// The queue ran dry, but on a saturated box the
				// submitters this burst unblocked are runnable and
				// about to enqueue: one yield lets them run, turning
				// a full park/unpark cycle per request into a single
				// scheduler pass per burst.  If nothing arrives after
				// the yield the loop parks for real below.
				runtime.Gosched()
				yielded = true
			}
			if m == nil {
				break
			}
		}
	}
}

// handle processes one dequeued loop message; false tells the loop to
// exit (shutdown observed while parked).
func (sh *shard) handle(m any) bool {
	switch msg := m.(type) {
	case *submitMsg:
		sh.submit(msg)
	case snapshotMsg:
		if sh.walCh == nil {
			msg.reply <- fmt.Errorf("%w: shard %d has no durability store", ErrBadConfig, sh.id)
			return true
		}
		sh.walCh <- walMsg{kind: walSnapshot, snap: sh.captureSnapshot(), errc: msg.reply}
		sh.nextSnap = sh.now + sh.snapEvery
	case statsMsg:
		msg.reply <- sh.snapshot(msg.from, msg.durable)
	case drainMsg:
		sh.drain(msg.horizon)
		msg.reply <- sh.snapshot(msg.from, msg.durable)
	case pauseMsg:
		close(msg.ack)
		select {
		case <-msg.resume:
		case <-sh.srv.quit:
			return false
		}
	}
	return true
}

// submit admits a message's entries in order, each through handleSubmit,
// so a batch's tickets are byte-identical to sequential submission.  On
// a durable server each entry's WAL record carries the sequence number
// its admit consumed and the decision it took, and the whole message
// reaches the WAL writer as ONE walSubmit, acknowledged after the flush:
// the durable log stays an exact prefix of the acked requests.  The loop
// never allocates (the four BenchmarkShardAdmit* and the CI guard pin 0
// allocs/op for program-less strategies); handleSubmit's
// receiving-program copy is the one intentional per-ticket allocation.
//
//modlint:noalloc
func (sh *shard) submit(m *submitMsg) {
	queueNS := int64(-1)
	if m.enqueueNS != 0 {
		queueNS = sh.srv.nowNanos() - m.enqueueNS
	}
	for i := range m.reqs {
		e := &m.reqs[i]
		seq := sh.ticketSeq
		m.out[i] = sh.handleSubmit(e.st, e.req, queueNS)
		if m.recs != nil {
			m.recs[i] = encodeWALRecord(seq, e.st.index, e.req.T, m.out[i].Decision)
		}
	}
	sh.srv.queues[sh.id].dequeued.Add(int64(len(m.reqs)))
	if sh.walCh == nil {
		m.done <- struct{}{}
		return
	}
	sh.walCh <- walMsg{kind: walSubmit, sub: m}
	sh.maybeSnapshot()
}

// handleSubmit runs one request's state transition (apply) and
// materializes its ticket (the one step that allocates: the receiving
// program is copied out of the scheduler's buffer so the caller can hold
// it).  A non-negative queueNS is the request's measured queue wait: it
// is observed into the shard's stage histograms together with the
// plan/replan split admitCore leaves behind, and stamped on the ticket
// (slot-jump rejections never reach admitCore and record no stage
// samples).
func (sh *shard) handleSubmit(st *objectState, req Request, queueNS int64) Ticket {
	id := sh.ticketSeq*int64(sh.total) + int64(sh.id) + 1
	t, adm, decision, ran := sh.apply(st, req.T, sh.srv.cfg.MeterStages, "")
	if !ran {
		return Ticket{ID: id, Object: st.obj.Name, Decision: Rejected, T: req.T, Epoch: st.epoch, Strategy: st.strategy, Delay: st.delay}
	}
	tk := Ticket{
		ID:       id,
		Object:   st.obj.Name,
		Decision: decision,
		T:        t,
		Epoch:    st.epoch,
		Strategy: st.strategy,
		Delay:    st.delay,
	}
	if queueNS >= 0 {
		hs := &sh.stages[st.si]
		hs.queue.Observe(queueNS)
		hs.plan.Observe(sh.lastPlanNS)
		if sh.lastReplanNS > 0 {
			hs.replan.Observe(sh.lastReplanNS)
		}
		tk.QueueNS = queueNS
		tk.PlanNS = sh.lastPlanNS
		tk.ReplanNS = sh.lastReplanNS
	}
	if decision == Rejected {
		return tk
	}
	tk.Slot = adm.Slot
	tk.Delay = adm.Delay
	tk.StartAt = adm.StartAt
	if len(adm.Program) > 0 {
		tk.Program = append([]int64(nil), adm.Program...)
	}
	return tk
}

// apply is the state transition of one request, all that WAL replay
// needs: it consumes the request's sequence number, clamps its timestamp
// t to the shard clock, and either rejects a slot jump without advancing
// (ran false) or runs admitCore, metered when meter is set.  logged is
// the decision admitCore takes without asking the admission controller:
// replay passes the one its WAL record carries, the admit path passes ""
// (see admitCore).  It returns the clamped time and admitCore's outcome.
//
//modlint:noalloc
func (sh *shard) apply(st *objectState, t float64, meter bool, logged Decision) (float64, live.Admission, Decision, bool) {
	// Every request — including rejections, which mutate counters —
	// consumes one sequence number, matching its WAL record.
	sh.ticketSeq++
	// The shard clock is monotone: a request stamped earlier than the
	// latest event is served as if it arrived now.
	if t < sh.now {
		t = sh.now
	}
	// Guard the event loop: a timestamp absurdly far in the future would
	// make the oblivious plan start an unbounded number of streams before
	// this request could be answered.  Reject it without advancing.  The
	// guard reads only shard-local state, so replay re-derives it.
	if (t-sh.now)/sh.minDelay > float64(sh.srv.cfg.MaxSlotJump) {
		st.rejected++
		sh.rejectedL++
		sh.srv.rejected.Add(1)
		return t, live.Admission{}, Rejected, false
	}
	adm, decision := sh.admitCore(st, t, meter, logged)
	return t, adm, decision, true
}

// admitCore is the shard admit hot path: advance every scheduler to t,
// retire elapsed gauge events, run the admission controller, and admit
// the arrival into its scheduler.  It performs no per-request allocation
// in steady state (BenchmarkShardAdmit and a CI guard pin this); the
// Admission's Program references the scheduler's buffer.
//
// The admission controller reads the server-wide gauge, which WAL replay
// cannot reproduce (New restores the shards one after another), so a
// non-empty logged decision replaces it: Degraded degrades the object by
// one DegradeStep exactly as the controller did, Admitted and Rejected
// are taken as they stand.  The admit path passes "" to ask the
// controller.
//
// With meter set (Config.MeterStages, off for WAL replay) it also splits
// the call's wall time into a plan share and the requested object's
// replan share (the delta of its metered ReplanStats across the call;
// epoch replans of *other* objects triggered by the same clock advance
// are accounted to plan), leaving both in the shard's scratch fields for
// the ticket materialization.
//
//modlint:noalloc
func (sh *shard) admitCore(st *objectState, t float64, meter bool, logged Decision) (live.Admission, Decision) {
	var t0, r0 int64
	if meter {
		t0 = sh.srv.nowNanos()
		r0 = st.replanNanos()
	}
	sh.now = t
	sh.advanceAll(t)
	sh.popEnds(t)

	var adm live.Admission
	decision := logged
	switch decision {
	case "":
		decision = sh.admit(st, t)
	case Degraded:
		sh.degrade(st, st.scale*sh.srv.cfg.DegradeStep)
	}
	if decision == Rejected {
		st.rejected++
		sh.rejectedL++
		sh.srv.rejected.Add(1)
	} else {
		adm = st.sched.Admit(t)
		st.arrivals++
		if decision == Degraded {
			sh.degradedL++
			sh.srv.degraded.Add(1)
		} else {
			sh.admittedL++
			sh.srv.admitted.Add(1)
		}
	}
	if meter {
		rd := st.replanNanos() - r0
		if rd < 0 {
			rd = 0
		}
		plan := sh.srv.nowNanos() - t0 - rd
		if plan < 0 {
			plan = 0
		}
		sh.lastReplanNS = rd
		sh.lastPlanNS = plan
	}
	return adm, decision
}

// advanceAll advances every object of the shard to time t.  The scan is
// linear in the shard's object count, but the per-object no-op costs one
// division and compare; if catalogs grow by another order of magnitude,
// replace the scan with a min-heap keyed on each object's next slot start.
//
//modlint:noalloc
func (sh *shard) advanceAll(t float64) {
	for _, st := range sh.objects {
		st.sched.Advance(t)
	}
}

// drain finalizes every object of the shard at the horizon.  The clock
// advance and scheduler mutations are deliberately outside the
// WAL/snapshot discipline — see Server.Drain for the durability caveat.
func (sh *shard) drain(horizon float64) {
	sh.drained = true
	if horizon > sh.now {
		sh.now = horizon
	}
	for _, st := range sh.objects {
		st.sched.Drain(horizon)
	}
	sh.popEnds(sh.now)
}

// snapshot reports the shard's per-object stats, its busy-time sum, its
// frontier, and, unless from is negative, its finalized intervals from
// index from on, after trimming the kept set with from and d.
func (sh *shard) snapshot(from int, d settlePoint) shardSnapshot {
	snap := shardSnapshot{
		objects:  make([]ObjectStats, 0, len(sh.objects)),
		index:    make([]int, 0, len(sh.objects)),
		busy:     sh.busy,
		frontier: sh.frontier(),
		stages:   append([]stageHist(nil), sh.stages...),
	}
	if from >= 0 {
		sh.trim(from, d)
		snap.from = sh.next
		snap.intervals = append([]bandwidth.Interval(nil), sh.kept[sh.folded:]...)
	}
	for _, st := range sh.objects {
		snap.index = append(snap.index, st.index)
		tot := st.totals()
		snap.objects = append(snap.objects, ObjectStats{
			Name:             st.obj.Name,
			Shard:            sh.id,
			Strategy:         st.strategy,
			L:                st.L,
			Delay:            st.delay,
			Scale:            st.scale,
			Epoch:            st.epoch,
			Arrivals:         st.arrivals,
			Clients:          tot.Clients,
			Rejected:         st.rejected,
			Streams:          tot.Streams,
			FinalizedStreams: tot.FinalizedStreams,
			SlotUnits:        tot.SlotUnits,
			BusyTime:         tot.BusyTime,
			Cost:             tot.Cost,
			ReplanFailures:   tot.ReplanFailures,
			Replan:           tot.Replan,
		})
	}
	return snap
}

// frontier is the minimum live.Incremental.Frontier over the shard's
// objects (+Inf without objects): no interval the shard finalizes later
// starts before it.
func (sh *shard) frontier() float64 {
	w := math.Inf(1)
	for _, st := range sh.objects {
		w = min(w, st.sched.Frontier())
	}
	return w
}

// trim forgets what the server no longer needs.  The fold has consumed
// every interval before index from; of those, the ones ending by the
// durable settle point d go, and the rest stay for the snapshots.  The
// whole folded part is rescanned only when d has advanced.  A trim also
// resets the settler trigger to twice the kept set (at least
// settleFloor).
func (sh *shard) trim(from int, d settlePoint) {
	n := min(max(from-sh.next, 0), len(sh.kept)-sh.folded)
	r := sh.folded
	if d.at > sh.durable.at {
		sh.durable = d
		r = 0
	}
	w := r
	for ; r < sh.folded+n; r++ {
		if sh.kept[r].End > sh.durable.at {
			sh.kept[w] = sh.kept[r]
			w++
		}
	}
	sh.kept = sh.kept[:w+copy(sh.kept[w:], sh.kept[sh.folded+n:])]
	sh.folded = w
	sh.next += n
	if cap(sh.kept) > 4*settleFloor && cap(sh.kept) > 4*len(sh.kept) {
		// Do not keep alive the backing array of a large kept set, such as
		// one restored or held back by an idle shard.
		sh.kept = append([]bandwidth.Interval(nil), sh.kept...)
	}
	sh.settleAt = max(settleFloor, 2*len(sh.kept))
}

// endEvent is one deferred gauge adjustment: apply delta once time passes t.
type endEvent struct {
	t     float64
	delta int32
}

// pushEnd pushes a gauge event onto the min-heap (ordered by time).
//
//modlint:noalloc
func (sh *shard) pushEnd(t float64, delta int32) {
	sh.ends = append(sh.ends, endEvent{t: t, delta: delta})
	i := len(sh.ends) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if sh.ends[parent].t <= sh.ends[i].t {
			break
		}
		sh.ends[parent], sh.ends[i] = sh.ends[i], sh.ends[parent]
		i = parent
	}
}

// popEnds applies every gauge event whose time has passed; stream ends
// decrement the live channel gauge, truncation corrections cancel out.
//
//modlint:noalloc
func (sh *shard) popEnds(t float64) {
	for len(sh.ends) > 0 && sh.ends[0].t <= t {
		sh.srv.gauge.Add(int64(sh.ends[0].delta))
		last := len(sh.ends) - 1
		sh.ends[0] = sh.ends[last]
		sh.ends = sh.ends[:last]
		// Sift down.
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(sh.ends) && sh.ends[l].t < sh.ends[small].t {
				small = l
			}
			if r < len(sh.ends) && sh.ends[r].t < sh.ends[small].t {
				small = r
			}
			if small == i {
				break
			}
			sh.ends[i], sh.ends[small] = sh.ends[small], sh.ends[i]
			i = small
		}
	}
}
