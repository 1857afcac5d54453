// Package live is the incremental scheduler core of the serving layer: it
// turns every planner family in the repository into a scheduler that can
// drive live traffic, one object at a time.
//
// The batch layers answer "given this whole arrival trace, what is the
// plan?".  A live server cannot ask that question — requests arrive one by
// one and the horizon is unknown — so this package defines the Incremental
// interface (Admit an arrival, Advance the clock, Drain at a horizon) and
// provides one adapter per algorithm family:
//
//   - The on-line delay-guaranteed forest has a native incremental form
//     (the paper's whole point): a stream starts at every slot following
//     the static F_h template, merge groups are finalized the moment they
//     complete, and the trailing partial group is truncated at drain
//     exactly like the batch horizon.  This is the scheduler the serving
//     shards originally inlined; it lives here now.
//   - Every batch planner (the off-line optimal DP, the dyadic baselines,
//     pure batching, unicast, and the Section 5 hybrid with its
//     mode-switching timeline) becomes live through epoch-based
//     replanning: arrivals are collected for an epoch of E slots, the
//     batch planner is re-run over the epoch's arrivals when the boundary
//     passes, and the resulting plan is spliced in at the boundary.
//     Merging never crosses an epoch boundary (the same isolation the
//     hybrid applies to its segments), so with E at least the horizon a
//     drained live run reproduces the batch plan bit for bit — the
//     equivalence the serving tests pin for every strategy.
//
// Schedulers report their transmissions through a Sink (the serving shard
// turns those events into the live channel gauge and the real-time
// bandwidth record) and their accounting through Totals, and each writes
// its restartable state as a snapshot section of its own (Encode), which
// Decode reads back into a fresh scheduler.  Schedulers are
// named by the public planner registry name, so the capability list
// (Planners()) is the serving layer's answer to "which planners can serve
// live traffic".
package live

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/multiobject"
	"repro/internal/store"
)

// ErrUnknownStrategy marks a strategy name with no registered live
// adapter; the message lists the live-capable planners.
var ErrUnknownStrategy = errors.New("live: no live adapter for planner")

// ErrBadConfig marks an invalid scheduler configuration.
var ErrBadConfig = errors.New("live: invalid configuration")

// Sink receives a scheduler's stream events.  The serving shard implements
// it: started streams raise the live channel gauge (with an estimated end
// for the gauge's event heap), finalized streams are recorded in the
// real-time bandwidth usage, and trims correct gauge estimates that
// truncation cut short.  All calls happen on the shard's event loop.
type Sink interface {
	// StreamStarted reports a transmission opened now, estimated to end at
	// estEnd (absolute time).  The estimate may later be trimmed.
	StreamStarted(estEnd float64)
	// ProvisionalStarted reports a merging-free placeholder channel for an
	// arrival an epoch-replanned strategy has admitted but not yet
	// planned: the admission gauge counts it (ending at estEnd, the
	// unicast upper bound) until the epoch closes and StreamTrimmed
	// replaces it with the real plan's streams.  Placeholders never reach
	// the bandwidth accounting.
	ProvisionalStarted(estEnd float64)
	// StreamFinalized reports a transmission whose length is final:
	// it occupies [start, start+length) in absolute time.
	StreamFinalized(start, length float64)
	// StreamTrimmed corrects an earlier StreamStarted/ProvisionalStarted
	// estimate: the stream actually ends at end, not at the stale estimate
	// staleEnd.
	StreamTrimmed(end, staleEnd float64)
}

// nopSink discards events; it backs schedulers run for pure accounting.
type nopSink struct{}

func (nopSink) StreamStarted(float64)            {}
func (nopSink) ProvisionalStarted(float64)       {}
func (nopSink) StreamFinalized(float64, float64) {}
func (nopSink) StreamTrimmed(float64, float64)   {}

// Admission is a scheduler's answer to one admitted arrival.
type Admission struct {
	// Slot is the arrival's service slot: the epoch-relative slot index for
	// slotted strategies, the client ordinal for immediate-service ones.
	Slot int64
	// Delay is the effective guaranteed start-up delay.
	Delay float64
	// StartAt is the absolute time playback starts: the end of the arrival
	// slot for slotted strategies, the arrival itself for immediate ones.
	StartAt float64
	// Program is the receiving program when the strategy can answer it
	// immediately (the on-line forest's O(1) lookup); nil for strategies
	// that decide merges at epoch close.  The slice is a buffer owned by
	// the scheduler, valid only until its next event — copy to retain.
	Program []int64
}

// Totals is a scheduler's accounting snapshot.  All fields are totals for
// the scheduler's lifetime; the serving shard accumulates them across
// delay epochs when degradation replaces a scheduler.
type Totals struct {
	// Clients counts distinct service instants: occupied slots for slotted
	// strategies, distinct (or, for unicast, all) arrival times otherwise.
	Clients int64
	// Streams counts transmissions started, including any unfinalized ones
	// of the on-line forest's current merge group.
	Streams int64
	// FinalizedStreams counts transmissions whose lengths are final.
	FinalizedStreams int64
	// SlotUnits is the finalized bandwidth in slot units — only the
	// slot-metered on-line forest reports it; epoch strategies leave it 0.
	SlotUnits int64
	// BusyTime is the finalized bandwidth in catalog time units.
	BusyTime float64
	// Cost is the finalized bandwidth in complete media streams — the
	// repository-wide comparison unit, bit-identical to the batch
	// planner's cost when a drain closes a whole-horizon epoch.
	Cost float64
	// ReplanFailures counts epoch replans that fell back to unicast
	// because the batch planner failed (never under normal operation).
	ReplanFailures int64
	// Replan summarizes the epoch replans behind the numbers above; the
	// native on-line scheduler never replans and leaves it zero.
	Replan ReplanStats
}

// ReplanStats summarizes epoch replanning for one scheduler.  The
// off-line strategies absorb an epoch's arrivals into resumable DP tables
// as they are admitted, so the close pays only for the un-absorbed tail;
// these counters expose how much of each close was served from them.
type ReplanStats struct {
	// Replans counts epoch closes that ran a replan.
	Replans int64 `json:"replans"`
	// WarmReplans counts the closes of offline and offline-batched
	// answered from their resumable forest tables: every one that did
	// not fail (ReplanFailures counts those).  Every other strategy
	// reports 0.
	WarmReplans int64 `json:"warm_replans"`
	// CellsReused and CellsRecomputed count stored off-line DP cells at
	// warm closes: cells carried over from mid-epoch absorption versus
	// cells the close itself had to fill.  Forest tables store only the
	// rows the group partition can still use (offline.Tables), so both
	// count pruned cells, about half the window band at flash density.
	CellsReused     int64 `json:"cells_reused"`
	CellsRecomputed int64 `json:"cells_recomputed"`
	// ReplanNanos and MaxReplanNanos meter replan wall time (total, and
	// the worst single replan); both stay zero unless Config.NowNanos is
	// set, keeping deterministic paths clock-free.
	ReplanNanos    int64 `json:"replan_nanos"`
	MaxReplanNanos int64 `json:"max_replan_nanos"`
}

// accumulate folds another scheduler's replan stats into r.
func (r *ReplanStats) accumulate(o ReplanStats) {
	r.Replans += o.Replans
	r.WarmReplans += o.WarmReplans
	r.CellsReused += o.CellsReused
	r.CellsRecomputed += o.CellsRecomputed
	r.ReplanNanos += o.ReplanNanos
	if o.MaxReplanNanos > r.MaxReplanNanos {
		r.MaxReplanNanos = o.MaxReplanNanos
	}
}

// Accumulate folds another scheduler's totals into t (used by the serving
// shard to carry accounting across delay epochs).
func (t *Totals) Accumulate(o Totals) {
	t.Clients += o.Clients
	t.Streams += o.Streams
	t.FinalizedStreams += o.FinalizedStreams
	t.SlotUnits += o.SlotUnits
	t.BusyTime += o.BusyTime
	t.Cost += o.Cost
	t.ReplanFailures += o.ReplanFailures
	t.Replan.accumulate(o.Replan)
}

// Encode appends t to a snapshot, every field in declaration order.
func (t *Totals) Encode(e *store.Encoder) {
	e.I64(t.Clients)
	e.I64(t.Streams)
	e.I64(t.FinalizedStreams)
	e.I64(t.SlotUnits)
	e.F64(t.BusyTime)
	e.F64(t.Cost)
	e.I64(t.ReplanFailures)
	e.I64(t.Replan.Replans)
	e.I64(t.Replan.WarmReplans)
	e.I64(t.Replan.CellsReused)
	e.I64(t.Replan.CellsRecomputed)
	e.I64(t.Replan.ReplanNanos)
	e.I64(t.Replan.MaxReplanNanos)
}

// Decode reads back what Encode wrote; a failed read leaves zeros and
// the error in d.
func (t *Totals) Decode(d *store.Decoder) {
	t.Clients = d.I64()
	t.Streams = d.I64()
	t.FinalizedStreams = d.I64()
	t.SlotUnits = d.I64()
	t.BusyTime = d.F64()
	t.Cost = d.F64()
	t.ReplanFailures = d.I64()
	t.Replan.Replans = d.I64()
	t.Replan.WarmReplans = d.I64()
	t.Replan.CellsReused = d.I64()
	t.Replan.CellsRecomputed = d.I64()
	t.Replan.ReplanNanos = d.I64()
	t.Replan.MaxReplanNanos = d.I64()
}

// Incremental is one object's live scheduler: the incremental form of a
// planner family.  Implementations are single-goroutine (the serving
// shard's event loop owns them); times passed to Admit/Advance/Drain must
// be monotone non-decreasing.  The unexported decode seals the interface:
// only this package's schedulers implement it, each with its snapshot
// codec beside its fields.
type Incremental interface {
	// Strategy returns the planner registry name this scheduler implements.
	Strategy() string
	// Admit records one arrival at absolute time t and returns its service
	// terms.  The scheduler may open streams (through the Sink) first.
	Admit(t float64) Admission
	// Advance moves the scheduler's clock to absolute time t, opening and
	// finalizing whatever the strategy schedules up to t.
	Advance(t float64)
	// Due returns the earliest absolute time at which Advance acts: the
	// smallest t under the exact float test Advance applies, so Advance at
	// any earlier time fires no Sink event and leaves Encode's bytes
	// unchanged.  After Advance(t) it lies after t.  It is +Inf when only
	// Drain can act.  The serving shard keys its due heap on it, so an
	// admission advances only the schedulers the clock has reached.
	Due() float64
	// Drain closes the schedule at the horizon (absolute time): remaining
	// streams are planned, opened, and finalized — the trailing partial
	// unit truncated exactly like the batch plan's — and the absolute end
	// of the last planning unit is returned (it can exceed the horizon
	// when a slot or an occupied arrival straddles it).  After Drain the
	// accounting in Totals is final.
	Drain(horizon float64) float64
	// Totals snapshots the accounting without mutating the schedule.
	Totals() Totals
	// ReplanNanos returns Totals().Replan.ReplanNanos without copying
	// the rest of the totals: the serving shard reads it around every
	// metered admission.
	ReplanNanos() int64
	// Frontier returns the earliest absolute start that any stream not
	// yet reported through Sink.StreamFinalized can have.  It never moves
	// backwards, so the bandwidth profile before it is final: a consumer
	// can settle its aggregates there (the serving layer's historical
	// peak does).
	Frontier() float64
	// Encode appends the scheduler's snapshot section: its dynamic state,
	// everything a restart cannot rederive from its Config.  It does not
	// mutate the scheduler, may be called between any two admissions, and
	// allocates nothing once e's buffer has grown to the section's size.
	// Decode reads the section back.
	Encode(e *store.Encoder)
	// decode reinstates a section Encode wrote on a scheduler fresh from
	// New, leaving a failed read's error in d.
	decode(d *store.Decoder) error
}

// Config parameterizes a scheduler for one object (one delay epoch).
type Config struct {
	// Object is the served object; its Delay is the effective (possibly
	// degradation-scaled) delay of this scheduler.
	Object multiobject.Object
	// Base is the absolute time of the scheduler's slot 0.
	Base float64
	// EpochSlots is the replanning period of epoch-based strategies, in
	// slots of the object's delay; <= 0 replans only at drain time.  The
	// native on-line scheduler ignores it.
	EpochSlots int
	// PlanWorkers is ignored: epoch replans always run the serial
	// off-line DP.  It remains only because the benchmark module sets it
	// (benchmark/layers.go:249).
	PlanWorkers int
	// Cache shares per-media-length static state (the on-line template and
	// its group lengths) across the schedulers of one shard; nil gives the
	// scheduler a private cache.
	Cache *Cache
	// Sink receives stream events; nil discards them.
	Sink Sink
	// Ctx bounds the scheduler's replan DPs: cancelling it aborts an
	// in-flight epoch DP within one work unit.  nil means Background
	// (never cancelled) — the batch facade's behaviour.
	Ctx context.Context
	// NowNanos, when non-nil, supplies a monotonic clock reading used only
	// to meter replan latency into Totals.Replan.  The serving layer
	// injects it; deterministic simulation paths leave it nil — this
	// package never reads wall clocks itself.
	NowNanos func() int64
}

func (c Config) withDefaults() (Config, error) {
	if err := c.Object.Validate(); err != nil {
		return c, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	if c.Cache == nil {
		c.Cache = NewCache()
	}
	if c.Sink == nil {
		c.Sink = nopSink{}
	}
	if c.Ctx == nil {
		//modlint:ignore ctxflow nil Ctx means "never cancelled"; every scheduler's default is rooted here
		c.Ctx = context.Background()
	}
	return c, nil
}

// New builds the named strategy's scheduler: the native on-line one for
// "online", epoch replanning for every family in epochStrategies.
// Unknown names fail with an error wrapping ErrUnknownStrategy listing
// the live-capable planners.
func New(name string, cfg Config) (Incremental, error) {
	st, ok := epochStrategyNamed(name)
	if !ok && name != "online" {
		return nil, fmt.Errorf("%w %q (live-capable: %v)", ErrUnknownStrategy, name, Planners())
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if !ok {
		return newOnlineSched(cfg), nil
	}
	return newEpochSched(st, cfg), nil
}

// Decode builds the named strategy's scheduler from cfg, exactly like
// New, and reinstates the snapshot section Encode wrote, so the scheduler
// continues bit-identically to the one encoded (the crash-recovery
// equivalence tests pin this for every strategy).  No Sink events fire:
// the serving layer restores its gauge and bandwidth accounting from its
// own snapshot sections, so replaying stream history here would double
// count.  A section another scheduler family wrote fails with an error
// wrapping ErrBadConfig, and a failed read with d's error.
func Decode(name string, cfg Config, d *store.Decoder) (Incremental, error) {
	sched, err := New(name, cfg)
	if err != nil {
		return nil, err
	}
	if err := sched.decode(d); err != nil {
		return nil, err
	}
	return sched, nil
}

// The first byte of a snapshot section names the scheduler family that
// wrote it.
const (
	onlineSection uint8 = 0
	epochSection  uint8 = 1
)

// decodeSection reads a section's family byte and refuses one another
// family wrote.
func decodeSection(d *store.Decoder, want uint8, strategy string) error {
	if got := d.U8(); d.Err() == nil && got != want {
		return fmt.Errorf("%w: snapshot section of family %d, %q schedulers write %d", ErrBadConfig, got, strategy, want)
	}
	return d.Err()
}

// earliest returns the smallest float64 at which acts holds, searching
// from guess, which lies within a few ulps of it.  acts must be false
// below some time and true from it on, as Advance's own float tests are,
// so the search steps down while acts still holds, or else up until it
// does: the scheduler's Due, exact whatever rounding the guess took.
func earliest(guess float64, acts func(t float64) bool) float64 {
	t := guess
	if acts(t) {
		for {
			d := math.Nextafter(t, math.Inf(-1))
			if !acts(d) {
				return t
			}
			t = d
		}
	}
	for !acts(t) {
		t = math.Nextafter(t, math.Inf(1))
	}
	return t
}

// Planners returns the sorted registry names of every planner family with
// a live adapter — the serving layer's capability list.
func Planners() []string {
	names := []string{"online"}
	for _, st := range epochStrategies {
		names = append(names, st.name)
	}
	sort.Strings(names)
	return names
}
