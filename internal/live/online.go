package live

import (
	"context"
	"math"

	"repro/internal/mergetree"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/store"
)

// onlinePlan is the cached static state of the on-line algorithm for one
// media length: the precomputed server, the untruncated template-group
// stream lengths, and the template group's total bandwidth in slot units.
type onlinePlan struct {
	onl *online.Server
	// tmplLens are the lengths of a full (untruncated) merge group, indexed
	// by group-relative arrival.
	tmplLens []mergetree.NodeLength
	// tmplUnits is the sum of tmplLens lengths.
	tmplUnits int64
}

// Cache shares onlinePlan state by media length L, so a thousand-object
// Zipf catalog with a shared delay builds the merge template once per
// shard, not once per object, and scratch that epoch closes use and give
// back before the next close starts: the plan buffer the off-line closes
// (tablesWarm.replan), batching, unicast and the unicast fallback write
// their streams into, batching's slot ends, and a scratch forest table
// per media length for off-line epochs that absorbed nothing mid-epoch.
// It is not safe for concurrent use; each serving shard owns one.
type Cache struct {
	plans   map[int64]*onlinePlan
	streams []Stream
	starts  []float64
	tables  map[float64]*offline.Tables
}

// NewCache returns an empty plan cache.
func NewCache() *Cache {
	return &Cache{plans: map[int64]*onlinePlan{}}
}

// scratch returns the scratch forest table for media length L, emptied
// by offline.Tables.Reset, so a fill comes out as on a fresh table.
func (c *Cache) scratch(ctx context.Context, L float64) (*offline.Tables, error) {
	if t := c.tables[L]; t != nil {
		t.Reset()
		return t, nil
	}
	t, err := offline.ComputeTables(ctx, nil, offline.ReceiveTwo, L, 1)
	if err != nil {
		return nil, err
	}
	if c.tables == nil {
		c.tables = map[float64]*offline.Tables{}
	}
	c.tables[L] = t
	return t, nil
}

// planFor returns the cached static plan for media length L (in slots).
func (c *Cache) planFor(L int64) *onlinePlan {
	if p, ok := c.plans[L]; ok {
		return p
	}
	onl := online.NewServer(L)
	lens := onl.AppendGroupLengths(nil, onl.TreeSize())
	var units int64
	for _, nl := range lens {
		units += nl.Length
	}
	p := &onlinePlan{onl: onl, tmplLens: lens, tmplUnits: units}
	c.plans[L] = p
	return p
}

// onlineSched is the native incremental scheduler of the paper's on-line
// delay-guaranteed algorithm: the oblivious plan starts a (possibly
// truncated) stream at every slot following the static F_h merge-tree
// template, whether or not a request arrived.  Merge groups are finalized
// the moment they complete; the trailing partial group is truncated at
// drain exactly like the batch horizon, so a drained run reproduces the
// batch forest's stream counts and bandwidth bit for bit.
//
//modlint:loop
type onlineSched struct {
	sink  Sink
	delay float64
	L     int64
	plan  *onlinePlan
	// base is the absolute time of slot 0.
	base float64
	// started is the number of streams started (stream q starts at
	// base + q*delay); finalized is the number of slots whose stream
	// lengths are final (a multiple of the group size during live
	// operation).
	started   int64
	finalized int64
	// lastArrival is the largest occupied arrival slot (-1: none); each
	// newly occupied slot is one batched imaginary client.
	lastArrival int64
	// dueAt caches Due for the started count dueOf (-1: not computed).
	dueAt float64
	dueOf int64

	clients          int64
	streams          int64
	finalizedStreams int64
	slotUnits        int64
	busyTime         float64

	// scratch buffers: partial-group finalization and receiving programs.
	buf     []mergetree.NodeLength
	progBuf []int64
}

func newOnlineSched(cfg Config) *onlineSched {
	return &onlineSched{
		sink:        cfg.Sink,
		delay:       cfg.Object.Delay,
		L:           cfg.Object.Slots(),
		plan:        cfg.Cache.planFor(cfg.Object.Slots()),
		base:        cfg.Base,
		lastArrival: -1,
		dueOf:       -1,
	}
}

func (s *onlineSched) Strategy() string { return "online" }

// Encode writes the slot origin, the plan's cursors and the accounting
// behind Totals.  The template, group lengths and scratch buffers are
// static per media length and come back from the plan cache.
func (s *onlineSched) Encode(e *store.Encoder) {
	e.U8(onlineSection)
	e.F64(s.base)
	e.I64(s.started)
	e.I64(s.finalized)
	e.I64(s.lastArrival)
	e.I64(s.clients)
	e.I64(s.streams)
	e.I64(s.finalizedStreams)
	e.I64(s.slotUnits)
	e.F64(s.busyTime)
}

func (s *onlineSched) decode(d *store.Decoder) error {
	if err := decodeSection(d, onlineSection, s.Strategy()); err != nil {
		return err
	}
	s.base = d.F64()
	s.started = d.I64()
	s.finalized = d.I64()
	s.lastArrival = d.I64()
	s.clients = d.I64()
	s.streams = d.I64()
	s.finalizedStreams = d.I64()
	s.slotUnits = d.I64()
	s.busyTime = d.F64()
	return d.Err()
}

// slotAt is the slot holding absolute time t: Admit's arrival slot, and
// the last slot whose stream Advance(t) starts.
func (s *onlineSched) slotAt(t float64) int64 {
	return int64(math.Floor((t - s.base) / s.delay))
}

func (s *onlineSched) Admit(t float64) Admission {
	slot := s.slotAt(t)
	if slot < 0 {
		slot = 0
	}
	if slot < s.lastArrival {
		// Out-of-order timestamp within the epoch: batch into the latest
		// occupied slot, like a request arriving now.
		slot = s.lastArrival
	}
	s.startStreamsTo(slot)
	if slot > s.lastArrival {
		s.lastArrival = slot
		s.clients++
	}
	s.progBuf = s.plan.onl.AppendProgramFor(s.progBuf[:0], slot)
	return Admission{
		Slot:    slot,
		Delay:   s.delay,
		StartAt: s.base + float64(slot+1)*s.delay,
		Program: s.progBuf,
	}
}

func (s *onlineSched) Advance(t float64) {
	s.startStreamsTo(s.slotAt(t))
}

// Due is the start of the next stream of the oblivious plan, slot
// started.
func (s *onlineSched) Due() float64 {
	if s.dueOf != s.started {
		s.dueAt, s.dueOf = earliest(s.base+float64(s.started)*s.delay, s.reaches), s.started
	}
	return s.dueAt
}

// reaches reports whether Advance(t) starts the next stream.
func (s *onlineSched) reaches(t float64) bool {
	return s.slotAt(t) >= s.started
}

// startStreamsTo starts every stream of the oblivious plan up to and
// including slot, finalizing each merge group the moment it completes.
func (s *onlineSched) startStreamsTo(slot int64) {
	size := s.plan.onl.TreeSize()
	for s.started <= slot {
		q := s.started % size
		ln := s.plan.tmplLens[q].Length
		start := s.base + float64(s.started)*s.delay
		s.sink.StreamStarted(start + float64(ln)*s.delay)
		s.streams++
		s.started++
		if s.started%size == 0 {
			s.finalizeFullGroup()
		}
	}
}

// finalizeFullGroup finalizes the group [finalized, finalized+size): once
// the next group's first stream exists the horizon is at least the group
// end, so its lengths are the untruncated template lengths.
func (s *onlineSched) finalizeFullGroup() {
	base := s.finalized
	for _, nl := range s.plan.tmplLens {
		start := s.base + float64(base+nl.Arrival)*s.delay
		s.sink.StreamFinalized(start, float64(nl.Length)*s.delay)
	}
	s.finalized = base + int64(len(s.plan.tmplLens))
	s.finalizedStreams += int64(len(s.plan.tmplLens))
	s.slotUnits += s.plan.tmplUnits
	s.busyTime += float64(s.plan.tmplUnits) * s.delay
}

// Drain closes the schedule at a horizon of n = ceil((horizon-base)/delay)
// slots (starting any not-yet-started streams), truncating the trailing
// partial group exactly like the batch plan's final group.  The horizon
// widens to cover occupied slots and already-started streams, mirroring
// sim.RunWorkload, and the absolute end of the final slot is returned.
func (s *onlineSched) Drain(horizon float64) float64 {
	n := int64(math.Ceil((horizon - s.base) / s.delay))
	if n < 1 {
		n = 1
	}
	if last := s.lastArrival; last+1 > n {
		n = last + 1
	}
	if s.started > n {
		n = s.started
	}
	s.startStreamsTo(n - 1)
	if s.finalized == n {
		return s.base + float64(n)*s.delay
	}
	m := n - s.finalized
	s.buf = s.plan.onl.AppendGroupLengths(s.buf[:0], m)
	base := s.finalized
	for _, nl := range s.buf {
		start := s.base + float64(base+nl.Arrival)*s.delay
		s.sink.StreamFinalized(start, float64(nl.Length)*s.delay)
		s.slotUnits += nl.Length
		s.busyTime += float64(nl.Length) * s.delay
		// The stream was started with the untruncated template length; if
		// truncation cut it short, correct the gauge: retire the stream at
		// its true end and cancel the stale event at the estimate, so a
		// degradation's freed channels are visible to admission
		// immediately rather than when the estimates expire.
		if prov := s.plan.tmplLens[nl.Arrival].Length; nl.Length < prov {
			s.sink.StreamTrimmed(start+float64(nl.Length)*s.delay, start+float64(prov)*s.delay)
		}
	}
	s.finalized = n
	s.finalizedStreams += m
	return s.base + float64(n)*s.delay
}

// Frontier is the first slot of the open merge group: every stream before
// it is finalized, and the group's streams start at or after it.
func (s *onlineSched) Frontier() float64 {
	return s.base + float64(s.finalized)*s.delay
}

// ReplanNanos is 0: the on-line scheduler never replans.
func (s *onlineSched) ReplanNanos() int64 { return 0 }

func (s *onlineSched) Totals() Totals {
	return Totals{
		Clients:          s.clients,
		Streams:          s.streams,
		FinalizedStreams: s.finalizedStreams,
		SlotUnits:        s.slotUnits,
		BusyTime:         s.busyTime,
		// The on-line cost in media streams is exact slot units over L —
		// the same division online.NormalizedCost performs, so a drained
		// whole-horizon run is bit-identical to the batch planner.
		Cost: float64(s.slotUnits) / float64(s.L),
	}
}
