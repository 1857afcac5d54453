// Package serve is the live serving layer: a long-running, sharded
// Media-on-Demand admission server over the incremental scheduler core of
// internal/live, so every planner family in the repository — not just the
// paper's on-line forest — serves live traffic.
//
// Everything else in the repository is batch — traces are generated up
// front, schedules are built whole, and results are summarized after the
// fact.  This package serves requests as they arrive:
//
//   - A catalog router hashes object names onto a fixed set of scheduler
//     shards, so a Zipf catalog of thousands of objects spreads across CPUs.
//   - Each shard runs a single-goroutine event loop that owns one
//     live.Incremental scheduler per object; all mutation happens inside
//     the loop, fed by channels, so no per-object locks exist anywhere.
//   - Per-object strategy routing: each catalog entry picks its planner
//     family by public registry name (Object.Strategy, falling back to
//     Config.DefaultStrategy).  The "online" strategy is the paper's
//     natively incremental oblivious plan — merge groups finalized the
//     moment they complete, trailing group truncated at drain exactly like
//     the batch horizon, reproducing sim.RunWorkload bit for bit.  Every
//     other registered planner (offline, dyadic, batching, hybrid, ...)
//     serves through epoch-based replanning: the batch planner re-runs
//     over each epoch's arrivals at the boundary, so a drain with
//     Config.EpochSlots covering the horizon reproduces the batch Plan()
//     bit for bit — the strategy equivalence tests pin both.
//   - Time advances in slots of each object's guaranteed start-up delay,
//     driven either by virtual request timestamps (deterministic replay,
//     used by the load driver and the equivalence tests) or by the wall
//     clock (the HTTP API stamps requests that carry no timestamp).
//   - An admission controller watches the live channel gauge.  When a
//     configured channel cap would be exceeded it degrades the offered
//     delay of the requested object (the Section 5 trade: scale the delay
//     up, never decline) or, past a maximum scale, rejects — with counters
//     for every outcome.  Degradation is strategy-agnostic: it drains the
//     object's scheduler and splices in a fresh one at the scaled delay.
//
// The HTTP front end lives in http.go, the closed-loop load generator in
// driver.go, and cmd/modserve wires both into a binary.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/live"
	"repro/internal/multiobject"
	"repro/internal/stats"
	"repro/internal/store"
)

// Config describes a live admission server.
type Config struct {
	// Catalog is the set of media objects served.  Object delays are the
	// offered guaranteed start-up delays at scale 1.
	Catalog multiobject.Catalog
	// Shards is the number of scheduler shards (event loops).  <= 0 selects
	// GOMAXPROCS; the count is clamped to the catalog size.
	Shards int
	// MaxChannels caps the live channel gauge summed over all shards; 0
	// means unlimited.  When a request arrives while the gauge is at or
	// above the cap, the admission controller degrades the object's delay
	// by DegradeStep (up to MaxDelayScale) instead of declining, and
	// rejects beyond that.  The cap is soft: a degraded request is still
	// admitted on top of it (on a flash crowd, batching's real peak
	// reached 865 at cap 747), and an epoch strategy's gauge holds a
	// full-length placeholder for each arrival not yet planned
	// (offline-batched's gauge averaged 624 while its plan averaged 198).
	MaxChannels int
	// DegradeStep is the factor by which an object's delay is scaled on
	// degradation (default 1.25, the multiobject.FitDelays step).
	DegradeStep float64
	// MaxDelayScale bounds the cumulative delay scale per object before the
	// controller starts rejecting (default 8).
	MaxDelayScale float64
	// MaxSlotJump bounds how many slots (measured in a shard's smallest
	// object delay) a single request may advance the virtual clock
	// (default 2^22).  The oblivious plan starts a stream every slot, so
	// without a bound one request stamped absurdly far in the future would
	// wedge its shard's event loop starting streams; such requests are
	// rejected instead.  A rejection does not advance the clock, so on the
	// wall clock a shard left idle for more than MaxSlotJump slots rejects
	// every later request, and the gap only grows: at modserve's defaults
	// (1 s time unit, delay 2%) that is 23.3 hours of idle, and modserve
	// has no flag to raise the bound.  Deployments that can sit idle that
	// long must raise it.
	MaxSlotJump int64
	// TimeUnit is the wall-clock duration of one catalog time unit, used
	// only to stamp HTTP requests that carry no explicit timestamp
	// (default time.Second).
	TimeUnit time.Duration

	// DefaultStrategy is the planner registry name objects without their
	// own Object.Strategy are served with (default "online", the paper's
	// on-line delay-guaranteed forest).  Every name in LivePlanners() is
	// accepted; unknown names fail New with ErrBadConfig.
	DefaultStrategy string
	// EpochSlots is the replanning period of epoch-based strategies, in
	// slots of each object's delay (default 512): arrivals are collected
	// for an epoch and the object's batch planner is re-run over them when
	// the boundary passes, splicing the new plan in at the boundary.  Set
	// it to at least the run's horizon to plan whole traces in one epoch
	// (the batch-equivalent configuration the equivalence tests pin).  The
	// native "online" strategy ignores it.
	EpochSlots int
	// MeterReplanNanos is ignored: MeterStages meters replan latency too.
	// It remains only because the benchmark module sets it
	// (benchmark/batch.go:94, benchmark/runner.go:179).
	MeterReplanNanos bool
	// MeterStages decomposes every admission into per-stage timings —
	// queue wait (submit to shard dequeue), plan (clock advance + gauge
	// retirement + admission controller), replan (the requested object's
	// epoch-DP share, read off its ReplanStats delta) — observed on the
	// shard's own goroutine into preallocated fixed-bucket log-scale
	// histograms, one set per shard per strategy (merged at Metrics
	// time), plus a respond stage recorded by the HTTP layer around the
	// ticket write.  The admit hot path stays allocation-free.  Stage
	// nanos also appear on each Ticket.  It also injects the clock into
	// each object's scheduler, so ObjectStats.Replan reports replan
	// latency.  Off by default, keeping deterministic virtual-time replays
	// clock-free; cost totals are bit-identical either way (the metrics
	// equivalence test pins this).
	MeterStages bool
	// PressureHighWater enables queue-depth backpressure: when a shard
	// has this many requests submitted but not yet dequeued by its event
	// loop, further Submit/SubmitBatch calls fail fast with a
	// *PressureError (wrapping ErrPressure) carrying a Retry-After hint
	// derived from the shard's observed drain rate, instead of blocking
	// on the channel.  The HTTP layer turns it into 429 + Retry-After.
	// 0 (the default) disables backpressure: submits block, the
	// pre-backpressure behavior.  Must be at most 256, the shard
	// channel's buffer, to be meaningful (reservations beyond the buffer
	// would block anyway).
	PressureHighWater int
	// NowNanos overrides the monotonic clock used for replan metering and
	// stage timing (nanoseconds, any fixed origin).  nil selects
	// nanoseconds since the server started.  Injecting a fake clock keeps
	// tests deterministic.
	NowNanos func() int64

	// Store enables durability: every admitted request is appended to a
	// per-shard write-ahead log before its ticket is acknowledged, and
	// each shard snapshots its full scheduler state at epoch boundaries
	// (see SnapshotEpochs).  nil (the default) disables durability
	// entirely — no extra goroutines, no hot-path changes.  Without
	// Restore, New refuses a store holding a snapshot or WAL record.
	Store store.Store
	// SnapshotEpochs is the snapshot cadence in replanning epochs: a
	// shard snapshots after its virtual clock advances SnapshotEpochs ×
	// EpochSlots slots of its smallest object delay (default 1).  Only
	// meaningful with Store set.
	SnapshotEpochs int
	// SyncMode sets the commit level of each WAL group commit's Flush:
	// store.SyncOS (the zero value, default) hands buffered records to
	// the operating system before acknowledging — the log survives
	// SIGKILL; store.SyncFull additionally fsyncs, surviving power loss
	// at one fsync per group commit rather than per request;
	// store.SyncNone defers everything to the store's own buffering —
	// acknowledged records can be lost on crash, but the on-disk log is
	// still always a gap-free prefix of admission order.  Only meaningful
	// with Store set.
	SyncMode store.SyncMode
	// Restore makes New load each shard's latest snapshot from Store and
	// replay its WAL tail through the admit path before serving,
	// recovering the pre-crash state exactly (ticket IDs continue past
	// the WAL high-water mark; totals converge bit for bit).  Close
	// checkpoints every shard, so only a crash leaves a tail to replay.
	// Corrupted snapshot or WAL bytes fail New with
	// store.ErrCorruptSnapshot.  Without Restore, New refuses (with
	// ErrStoreInUse, which wraps ErrBadConfig) a store that holds a
	// snapshot or a WAL record for any shard it runs, which would reissue
	// acknowledged ticket IDs.
	Restore bool
	// OwnStore transfers Store's ownership to the server: Close also
	// closes the store.  A failed New leaves it open for the caller.
	OwnStore bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Shards <= 0 {
		out.Shards = runtime.GOMAXPROCS(0)
	}
	if out.Shards > len(out.Catalog) {
		out.Shards = len(out.Catalog)
	}
	if out.Shards < 1 {
		out.Shards = 1
	}
	if out.DegradeStep <= 1 {
		out.DegradeStep = 1.25
	}
	if out.MaxDelayScale < 1 {
		out.MaxDelayScale = 8
	}
	if out.MaxSlotJump <= 0 {
		out.MaxSlotJump = 1 << 22
	}
	if out.TimeUnit <= 0 {
		out.TimeUnit = time.Second
	}
	if out.DefaultStrategy == "" {
		out.DefaultStrategy = "online"
	}
	if out.EpochSlots <= 0 {
		out.EpochSlots = 512
	}
	if out.SnapshotEpochs <= 0 {
		out.SnapshotEpochs = 1
	}
	return out
}

// LivePlanners returns the sorted planner registry names that can serve
// live traffic — valid values for Config.DefaultStrategy and
// Object.Strategy.
func LivePlanners() []string {
	return live.Planners()
}

// Decision is the admission controller's outcome for one request.
type Decision string

const (
	// Admitted: served at the object's current delay.
	Admitted Decision = "admitted"
	// Degraded: served, but the object's delay was scaled up first because
	// the live channel gauge was at the configured cap.
	Degraded Decision = "degraded"
	// Rejected: the gauge was at the cap and the object is already at the
	// maximum delay scale.
	Rejected Decision = "rejected"
)

// Request is one client request for an object.
type Request struct {
	// Object is the catalog name of the requested object.
	Object string `json:"object"`
	// T is the virtual arrival time in catalog time units.  The HTTP layer
	// stamps wall-clock time (in Config.TimeUnit units since the server
	// started) when T is negative or absent.
	T float64 `json:"t"`
}

// Ticket is the server's answer to a request.
type Ticket struct {
	// ID is the ticket's server-unique identifier, dense per shard and
	// disjoint across shards (shard-local sequence s on shard i of n
	// yields s*n + i + 1).  It survives restarts: a restored server
	// resumes each shard's sequence past the WAL high-water mark, so no
	// ID is ever reissued.  0 means unassigned (requests for unknown
	// objects, which consume no sequence number).
	ID       int64    `json:"id,omitempty"`
	Object   string   `json:"object"`
	Decision Decision `json:"decision"`
	// Strategy is the planner family serving the object.
	Strategy string `json:"strategy"`
	// T is the request time after the shard's monotone clamp.
	T float64 `json:"t"`
	// Epoch identifies the object's delay epoch (it increments on each
	// degradation); Slot and Program are epoch-relative.
	Epoch int `json:"epoch"`
	// Slot is the arrival's service slot within the epoch: the arrival
	// slot for slotted strategies, the client ordinal for
	// immediate-service ones (dyadic, offline, unicast).
	Slot int64 `json:"slot"`
	// Delay is the effective guaranteed start-up delay (the slot length).
	Delay float64 `json:"delay"`
	// StartAt is the absolute time at which playback starts: the end of
	// the arrival slot for batched strategies (at most Delay after T), the
	// arrival itself for immediate-service ones.
	StartAt float64 `json:"start_at"`
	// Program is the receiving program: the epoch-relative start slots of
	// the streams to listen to, from the root stream down to the client's
	// own.  Only the "online" strategy can answer it at admission time
	// (its O(1) table lookup); epoch-replanned strategies decide merges at
	// epoch close.  Empty for rejected requests.
	Program []int64 `json:"program,omitempty"`
	// QueueNS/PlanNS/ReplanNS are the per-stage timings of this admission
	// in nanoseconds — queue wait, plan, and the requested object's
	// epoch-replan share — populated only when Config.MeterStages is set.
	QueueNS  int64 `json:"queue_ns,omitempty"`
	PlanNS   int64 `json:"plan_ns,omitempty"`
	ReplanNS int64 `json:"replan_ns,omitempty"`
}

// ObjectStats is the live accounting snapshot for one object.
type ObjectStats struct {
	Name string `json:"name"`
	// Strategy is the planner family serving the object.
	Strategy string  `json:"strategy"`
	Shard    int     `json:"shard"`
	L        int64   `json:"L"`
	Delay    float64 `json:"delay"`
	Scale    float64 `json:"scale"`
	Epoch    int     `json:"epoch"`
	// Arrivals counts requests routed to the object (admitted or degraded);
	// Clients counts distinct service instants — occupied slots for
	// slotted strategies, distinct (for unicast: all) arrival times for
	// immediate-service ones.
	Arrivals int64 `json:"arrivals"`
	Clients  int64 `json:"clients"`
	Rejected int64 `json:"rejected"`
	// Streams counts streams started, including the "online" strategy's
	// current (unfinalized) merge group; FinalizedStreams covers only
	// streams whose lengths are final.  Epoch-replanned strategies open
	// their streams at epoch close, so both counters advance then.
	Streams          int64 `json:"streams"`
	FinalizedStreams int64 `json:"finalized_streams"`
	// SlotUnits is the finalized bandwidth in slot units of the object's
	// epochs (exactly sim.Result.TotalBandwidth after a drain with no
	// degradations); only the slot-metered "online" strategy reports it.
	SlotUnits int64 `json:"slot_units"`
	// BusyTime is the finalized bandwidth in catalog time units.
	BusyTime float64 `json:"busy_time"`
	// Cost is the finalized bandwidth in complete media streams — after a
	// whole-horizon drain, bit-identical to the object's batch Plan cost.
	Cost float64 `json:"cost"`
	// ReplanFailures counts epoch replans that fell back to unicast
	// streams (never under normal operation).
	ReplanFailures int64 `json:"replan_failures,omitempty"`
	// Replan summarizes the object's epoch replans: how many closes were
	// answered from the off-line strategies' resumable forest tables, the
	// DP cells reused versus recomputed, and replan wall time (metered
	// only when Config.MeterStages is set).
	Replan ReplanStats `json:"replan"`
}

// ReplanStats is the per-object epoch replanning summary (see
// live.ReplanStats for field semantics).
type ReplanStats = live.ReplanStats

// ShardStats is the live queue accounting of one scheduler shard: the
// observed channel occupancy backing the backpressure signal, not just
// the configured capacity.
type ShardStats struct {
	Shard int `json:"shard"`
	// QueueDepth is the current occupancy: requests submitted (reserved)
	// but not yet dequeued by the shard's event loop.
	QueueDepth int64 `json:"queue_depth"`
	// QueueCap is the shard channel's buffer (queueDepth, 256).
	QueueCap int `json:"queue_cap"`
	// HighWater is the maximum occupancy ever observed on the shard.
	HighWater int64 `json:"high_water"`
	// Dequeued counts requests the shard's loop has taken off its queue.
	Dequeued int64 `json:"dequeued"`
	// PressureHighWater is the configured backpressure threshold
	// (Config.PressureHighWater; 0 = backpressure disabled).
	PressureHighWater int `json:"pressure_high_water,omitempty"`
}

// Stats is a server-wide snapshot.
type Stats struct {
	Admitted int64 `json:"admitted"`
	Degraded int64 `json:"degraded"`
	Rejected int64 `json:"rejected"`
	// RejectedPressure counts submits refused by queue-depth backpressure
	// (Config.PressureHighWater) before reaching any shard; they are not
	// included in Rejected, which counts admission-controller rejections.
	RejectedPressure int64 `json:"rejected_pressure"`
	Unknown          int64 `json:"unknown"`
	LiveChannels     int64 `json:"live_channels"`
	// WALFailures counts durability-store operations (append, flush,
	// snapshot) that failed.  The server favors availability: failed
	// writes are counted and the request still acknowledged, so nonzero
	// means the durable log is incomplete, not that requests were lost.
	WALFailures int64 `json:"wal_failures,omitempty"`
	// WALFlushes counts durability-store Flush calls — group commits.
	// Under concurrent load it grows much slower than Admitted (many
	// acknowledgements share one flush); the ratio is the group-commit
	// coalescing factor.
	WALFlushes int64   `json:"wal_flushes,omitempty"`
	Peak       int     `json:"peak"`
	BusyTime   float64 `json:"busy_time"`
	// Strategies counts the catalog's objects by serving strategy.
	Strategies map[string]int64 `json:"strategies,omitempty"`
	// Shards reports each shard's observed queue occupancy and high-water
	// mark (the backpressure signal), in shard order.
	Shards  []ShardStats  `json:"shards"`
	Objects []ObjectStats `json:"objects"`
}

// Server is the live admission server: a catalog router in front of a set
// of scheduler shards.
type Server struct {
	cfg    Config
	shards []*shard
	byName map[string]route

	start time.Time
	quit  chan struct{}
	wg    sync.WaitGroup

	// ctx is the shard schedulers' context; Close cancels it, aborting any
	// epoch replan DP still running on a shard loop.
	ctx    context.Context
	cancel context.CancelFunc

	// gauge is the live channel count: streams started whose (estimated)
	// end lies in the future.  Shard loops maintain it; the admission
	// controller reads it.
	gauge   atomic.Int64
	unknown atomic.Int64
	// rejectedPressure counts submits refused by queue-depth backpressure
	// before reaching any shard.
	rejectedPressure atomic.Int64
	// walFailures counts failed durability-store operations; the WAL
	// writers increment it instead of failing admission.
	walFailures atomic.Int64
	// walFlushes counts store Flush calls (group commits) across all
	// shards' WAL writers.
	walFlushes atomic.Int64
	// walRepair holds one flag per shard (nil without a store): set by
	// the shard's WAL writer when an append or flush fails, leaving a
	// sequence gap in the log, and consumed by the shard loop, which
	// forces an immediate repair snapshot to re-establish a consistent
	// base.
	walRepair []atomic.Bool

	// walWG tracks the per-shard WAL writer goroutines; Close waits for
	// them after the shard loops (their only senders) have exited.
	walWG sync.WaitGroup

	// nowNanos is the monotonic clock behind replan metering and stage
	// timing: Config.NowNanos, defaulting to nanoseconds since start.
	nowNanos func() int64

	// queues holds per-shard occupancy accounting: submitters reserve a
	// slot before the channel send, shard loops release it on dequeue.
	// It lives on the Server (not the shard) because both sides touch it.
	queues []shardQueue

	// submitPool recycles Submit's one-entry messages, and batchFree
	// SubmitBatch's per-shard sets of them — each message owning its
	// slices and done channel — keeping the steady-state submit paths
	// free of per-request heap traffic.  A message is pooled only by the
	// submitter after its ack was received (or its send failed), so a
	// pooled message's channel is always empty; a submission abandoned
	// by shutdown leaves its messages and channels to the collector.
	// batchFree is a bounded free list, not a sync.Pool: a collection
	// would drop the entry buffers a batch has grown, and a batch's
	// result slice makes collections frequent.  It holds one set per
	// processor, as many batches as can route at once.
	submitPool sync.Pool
	batchFree  chan *submitBatch

	// stratNames/stratIdx index the catalog's distinct strategies, fixed
	// after New; shards size their per-strategy stage histograms by it.
	stratNames []string
	stratIdx   map[string]int
	// respond holds the respond-stage histograms (ticket to HTTP write),
	// one per strategy, recorded by HTTP handlers under respMu — the only
	// stage observed off the shard goroutines.
	respMu  sync.Mutex
	respond []stats.LogHistogram

	// peak folds the shards' finalized intervals into the historical peak
	// that Stats and Metrics report, and decides the durable settle point
	// behind which the shards forget them.
	peak peakFold
	// saved holds each shard's saved frontier as float64 bits (nil
	// without a store): the frontier captured with its last snapshot the
	// store saved, published by its WAL writer after the save.
	saved []atomic.Uint64
	// savedSeq holds each shard's ticket sequence as of that snapshot (nil
	// without a store), published with saved: Close checkpoints a shard
	// only when admissions came after it.
	savedSeq []atomic.Int64
	// settle wakes the settler goroutine (one slot, non-blocking sends):
	// a shard's kept set has grown past its trigger, or a WAL writer
	// published a saved frontier.  settles counts the settler's completed
	// runs.
	settle  chan struct{}
	settles atomic.Int64
}

// route is one catalog object's resolved destination: its shard and its
// loop-owned state.  Resolving both with a single map lookup at the
// router lets Submit and SubmitBatch hand the shard a pre-resolved
// object pointer, so the admit path never repeats the name lookup.  Submitters only carry
// the pointer; the shard loop alone dereferences it.
type route struct {
	sh *shard
	st *objectState
}

// shardQueue is one shard's queue-occupancy accounting.
type shardQueue struct {
	// enqueued counts reservations (submit side); dequeued counts
	// requests the shard loop has taken off the queue.  The current
	// occupancy is their difference — splitting the two monotone
	// counters this way leaves the loop's dequeue accounting at ONE
	// atomic add per request where a direct depth gauge needs two.
	enqueued atomic.Int64
	// high is the maximum depth ever observed.
	high atomic.Int64
	// dequeued counts requests the shard loop has taken off the queue.
	dequeued atomic.Int64
}

// depth is the queue's current occupancy.  A stale dequeued read can
// only overestimate — conservative for backpressure.
func (q *shardQueue) depth() int64 {
	return q.enqueued.Load() - q.dequeued.Load()
}

// ErrPressure marks submits refused by queue-depth backpressure; classify
// with errors.Is, and errors.As against *PressureError for the details.
var ErrPressure = errors.New("serve: shard queue over high-water mark")

// PressureError is the backpressure rejection: the shard whose queue is
// over Config.PressureHighWater, its occupancy at the refusal, and a
// retry hint derived from the shard's observed drain rate.
type PressureError struct {
	Shard int
	Depth int64
	// RetryAfter estimates when the queue will have drained below the
	// high-water mark: depth times the shard's mean per-request drain
	// time so far, clamped to [1s, 30s] (1s when no drain history
	// exists).  The HTTP layer sends it as a Retry-After header.
	RetryAfter time.Duration
}

func (e *PressureError) Error() string {
	return fmt.Sprintf("%v: shard %d at depth %d, retry after %v",
		ErrPressure, e.Shard, e.Depth, e.RetryAfter)
}

func (e *PressureError) Unwrap() error { return ErrPressure }

// strategyIndex interns a strategy name (setup only, before loops start).
func (s *Server) strategyIndex(name string) int {
	if i, ok := s.stratIdx[name]; ok {
		return i
	}
	i := len(s.stratNames)
	s.stratIdx[name] = i
	s.stratNames = append(s.stratNames, name)
	return i
}

// reserve claims n queue slots on shard id, refusing with a
// *PressureError when backpressure is on and the occupancy would exceed
// the high-water mark.  The shard loop releases slots as it dequeues.
// Reservation order is the arbitration: concurrent submitters get
// distinct occupancy values, so exactly highWater of them proceed.
func (s *Server) reserve(id int, n int64) error {
	q := &s.queues[id]
	depth := q.enqueued.Add(n) - q.dequeued.Load()
	if hw := int64(s.cfg.PressureHighWater); hw > 0 && depth > hw {
		q.enqueued.Add(-n)
		s.rejectedPressure.Add(n)
		return &PressureError{Shard: id, Depth: depth, RetryAfter: s.retryAfter(q, depth)}
	}
	for {
		h := q.high.Load()
		if depth <= h || q.high.CompareAndSwap(h, depth) {
			break
		}
	}
	return nil
}

// unreserve releases n slots after a failed channel send (server closed).
func (s *Server) unreserve(id int, n int64) {
	s.queues[id].enqueued.Add(-n)
}

// retryAfter estimates the time until shard q drains depth requests, from
// its lifetime mean per-request drain time, clamped to [1s, 30s].
func (s *Server) retryAfter(q *shardQueue, depth int64) time.Duration {
	d := time.Second
	if deq := q.dequeued.Load(); deq > 0 {
		if elapsed := s.nowNanos(); elapsed > 0 {
			d = time.Duration(depth * (elapsed / deq))
		}
	}
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// New builds a Server and starts its shard event loops.  Every object is
// served by its Object.Strategy (falling back to Config.DefaultStrategy,
// then "online"); a name without a live adapter fails with ErrBadConfig
// listing LivePlanners().
func New(cfg Config) (*Server, error) {
	if err := cfg.Catalog.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Catalog) == 0 {
		return nil, fmt.Errorf("%w: catalog is empty", ErrBadConfig)
	}
	cfg = cfg.withDefaults()
	s := newServerShell(cfg)
	//modlint:ignore ctxflow the server owns its schedulers' lifetime; Close cancels this root
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.shards = make([]*shard, cfg.Shards)
	s.peak = newPeakFold(cfg.Shards)
	for i := range s.shards {
		s.shards[i] = newShard(i, s)
	}
	for i, o := range cfg.Catalog {
		strategy := o.Strategy
		if strategy == "" {
			strategy = cfg.DefaultStrategy
		}
		sh := s.shards[shardIndex(o.Name, cfg.Shards)]
		if err := sh.addObject(o, i, strategy); err != nil {
			return nil, err
		}
		s.byName[o.Name] = route{sh: sh, st: sh.byName[o.Name]}
	}
	s.respond = make([]stats.LogHistogram, len(s.stratNames))
	if cfg.Store != nil {
		s.walRepair = make([]atomic.Bool, len(s.shards))
		s.saved = make([]atomic.Uint64, len(s.shards))
		s.savedSeq = make([]atomic.Int64, len(s.shards))
		var resume settlePoint
		for _, sh := range s.shards {
			sh.walCh = make(chan walMsg, queueDepth)
			sh.snapFree = make(chan *shardSnapshotState, 2)
			sh.snapEvery = float64(cfg.SnapshotEpochs*cfg.EpochSlots) * sh.minDelay
			saved, seq := sh.frontier(), int64(0)
			if cfg.Restore {
				var err error
				if saved, seq, err = sh.restore(); err != nil {
					s.cancel()
					return nil, err
				}
				if sh.durable.at > resume.at {
					resume = sh.durable
				}
			} else if err := sh.refuseUsedStore(); err != nil {
				s.cancel()
				return nil, err
			}
			s.saved[sh.id].Store(math.Float64bits(saved))
			s.savedSeq[sh.id].Store(seq)
			sh.nextSnap = sh.now + sh.snapEvery
		}
		s.peak.resume(resume)
		// Writers start only after every shard restored, so a failed
		// restore leaves no goroutines behind.
		for _, sh := range s.shards {
			s.walWG.Add(1)
			go s.walWriter(sh)
		}
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.loop()
	}
	s.wg.Add(1)
	go s.settler()
	return s, nil
}

// newServerShell builds the Server value minus shards and context: the
// clock, queue accounting, and strategy index every code path (including
// the loop-less benchmark harnesses) relies on.
func newServerShell(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		byName:   make(map[string]route, len(cfg.Catalog)),
		start:    time.Now(),
		quit:     make(chan struct{}),
		queues:   make([]shardQueue, cfg.Shards),
		stratIdx: make(map[string]int, 2),
		settle:   make(chan struct{}, 1),
	}
	s.nowNanos = cfg.NowNanos
	if s.nowNanos == nil {
		s.nowNanos = s.replanClock
	}
	s.submitPool.New = func() any { return s.newSubmitMsg() }
	s.batchFree = make(chan *submitBatch, runtime.GOMAXPROCS(0))
	return s
}

// shardIndex routes an object name to a shard by FNV-1a hash.
func shardIndex(name string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// ErrClosed is returned by operations on a closed server.
var ErrClosed = errors.New("serve: server is closed")

// ErrUnknownObject is returned for requests naming no catalog object.
var ErrUnknownObject = errors.New("serve: unknown object")

// ErrBadConfig marks invalid server or load-generator configuration
// (empty catalog, non-positive horizon or inter-arrival time, unknown
// arrival kind), so callers can classify setup failures with errors.Is
// through the public facade.
var ErrBadConfig = errors.New("serve: invalid configuration")

// ErrStoreInUse marks New without Config.Restore on a store that already
// holds a snapshot or WAL record for one of its shards: serving on top
// would restart the ticket sequence and reissue acknowledged IDs.  It
// wraps ErrBadConfig.
var ErrStoreInUse = fmt.Errorf("%w: the store already holds state", ErrBadConfig)

// ErrBadRequest marks invalid runtime arguments to a live server (e.g. a
// non-positive drain horizon).
var ErrBadRequest = errors.New("serve: invalid request")

// Now returns the wall-clock virtual time: Config.TimeUnit units since the
// server started.
func (s *Server) Now() float64 {
	return float64(time.Since(s.start)) / float64(s.cfg.TimeUnit)
}

// replanClock is the default stage and replan clock, injected into
// schedulers when Config.MeterStages is set: nanoseconds since the server
// started.
func (s *Server) replanClock() int64 {
	return int64(time.Since(s.start))
}

// Shards returns the effective scheduler shard count (after defaulting to
// GOMAXPROCS and clamping to the catalog size).
func (s *Server) Shards() int {
	return len(s.shards)
}

// Submit routes one request to its object's shard and waits for the
// admission decision.  A negative or NaN T is stamped with the wall clock.
// Submit is safe for concurrent use; requests for the same object are
// serialized by its shard's event loop in channel order.  With
// Config.PressureHighWater set, a shard over its queue high-water mark
// fails fast with a *PressureError instead of blocking.
func (s *Server) Submit(req Request) (Ticket, error) {
	r, err := s.resolve(&req)
	if err != nil {
		return Ticket{}, err
	}
	m := s.submitPool.Get().(*submitMsg)
	m.reqs = append(m.reqs[:0], routed{req: req, st: r.st})
	if err := s.send(r.sh, m); err != nil {
		s.submitPool.Put(m)
		return Ticket{}, err
	}
	if err := s.wait(m); err != nil {
		// The loop or writer may still write m's result and signal
		// m.done; the message is abandoned to the collector.
		return Ticket{}, err
	}
	// The ack arrived, so the shard and writer are done with the message;
	// it recycles with an empty done channel and no ticket to keep alive.
	tk := m.one[0].Ticket
	m.one[0] = SubmitResult{}
	s.submitPool.Put(m)
	return tk, nil
}

// SubmitResult is one entry of a SubmitBatch answer: the ticket, or the
// error the same request would have gotten from Submit.
type SubmitResult struct {
	Ticket Ticket
	Err    error
}

// SubmitBatch admits a batch of requests, crossing each shard's message
// channel once for the whole batch instead of once per entry.  Entries
// keep their submission order within each shard (and hence per object),
// and shards process their portions concurrently.  Without a channel cap
// every ticket and error matches what sequential Submit calls would
// return; under Config.MaxChannels an entry's decision reads the
// server-wide gauge while other shards run, so with more than one shard
// it depends on their timing.  The result has one entry per request, in
// request order; the shards write the tickets into it in place.  An
// entry a shard had not acknowledged when the server closed answers
// ErrClosed, and no shard writes to the result once SubmitBatch returns.
func (s *Server) SubmitBatch(reqs []Request) []SubmitResult {
	out := make([]SubmitResult, len(reqs))
	var b *submitBatch
	select {
	case b = <-s.batchFree:
	default:
		b = &submitBatch{msgs: make([]*submitMsg, len(s.shards))}
	}
	// Route every entry, exactly like Submit, into its shard's message.
	for i, req := range reqs {
		r, err := s.resolve(&req)
		if err != nil {
			out[i].Err = err
			continue
		}
		m := b.msgs[r.sh.id]
		if m == nil {
			m = s.newSubmitMsg()
			b.msgs[r.sh.id] = m
		}
		m.reqs = append(m.reqs, routed{req: req, st: r.st, at: i})
	}
	// One send per shard with work; wait only after every send, so the
	// shard loops run their shares concurrently.
	for id, m := range b.msgs {
		if m == nil || len(m.reqs) == 0 {
			continue
		}
		m.res = out
		if err := s.send(s.shards[id], m); err != nil {
			for _, e := range m.reqs {
				out[e.at].Err = err
			}
			m.reqs = m.reqs[:0]
		}
	}
	closed := false
	for _, m := range b.msgs {
		if m == nil || len(m.reqs) == 0 || s.wait(m) == nil {
			continue
		}
		if !closed {
			// The server is closing: once the shard loops have exited,
			// none is left to write a ticket into out.
			s.wg.Wait()
			closed = true
		}
		for _, e := range m.reqs {
			out[e.at] = SubmitResult{Err: ErrClosed}
		}
	}
	if closed {
		// A WAL writer may still signal an abandoned message's done
		// channel, so the set never returns to the free list.
		return out
	}
	for _, m := range b.msgs {
		if m != nil {
			m.reqs, m.res = m.reqs[:0], nil
		}
	}
	select {
	case s.batchFree <- b:
	default:
	}
	return out
}

// submitBatch is SubmitBatch's recycled routing state: one submission
// message per shard (nil until a batch routes an entry there), each
// keeping its entry and record buffers from call to call.
type submitBatch struct {
	msgs []*submitMsg
}

// resolve stamps a request whose T is negative, NaN or infinite with the
// wall clock and resolves its object, counting an unknown one.
func (s *Server) resolve(req *Request) (route, error) {
	if math.IsNaN(req.T) || math.IsInf(req.T, 0) || req.T < 0 {
		req.T = s.Now()
	}
	r, ok := s.byName[req.Object]
	if !ok {
		s.unknown.Add(1)
		return route{}, fmt.Errorf("%w %q", ErrUnknownObject, req.Object)
	}
	return r, nil
}

// newSubmitMsg builds an empty submission message whose results are its
// own one-entry array, Submit's; SubmitBatch points them at its output.
func (s *Server) newSubmitMsg() *submitMsg {
	m := &submitMsg{done: make(chan struct{}, 1)}
	m.res = m.one[:]
	return m
}

// send hands m to sh's loop after reserving a queue slot per entry:
// backpressure counts requests, not channel messages.  On a durable
// server it first sizes m's WAL records to its entries.  The shard
// channel is buffered, so under normal load the non-blocking send lands
// without the multi-case select.
func (s *Server) send(sh *shard, m *submitMsg) error {
	k := int64(len(m.reqs))
	if err := s.reserve(sh.id, k); err != nil {
		return err
	}
	if s.cfg.Store != nil {
		m.recs = slices.Grow(m.recs[:0], len(m.reqs))[:len(m.reqs)]
	}
	m.enqueueNS = 0
	if s.cfg.MeterStages {
		m.enqueueNS = s.nowNanos()
	}
	select {
	case sh.msgs <- m:
		return nil
	default:
	}
	select {
	case sh.msgs <- m:
		return nil
	case <-s.quit:
		s.unreserve(sh.id, k)
		return ErrClosed
	}
}

// wait blocks until the shard answered m — on a durable server, after the
// WAL writer committed its records — or the server closes.
func (s *Server) wait(m *submitMsg) error {
	select {
	case <-m.done:
		return nil
	case <-s.quit:
		return ErrClosed
	}
}

// Pause parks one shard's event loop until the returned release function
// is called (idempotent), without touching any scheduler state: queued
// messages simply wait.  It exists so overload tests can hold a shard's
// queue at a known occupancy deterministically — pause, submit past the
// high-water mark, observe the pressure rejections, release, drain.
// Pause returns once the loop has actually parked.
func (s *Server) Pause(shard int) (release func(), err error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("%w: no shard %d (have %d)", ErrBadRequest, shard, len(s.shards))
	}
	resume := make(chan struct{})
	if _, err := ask(s, s.shards[shard], func(ack chan struct{}) any { return pauseMsg{ack: ack, resume: resume} }); err != nil {
		return nil, err
	}
	var once sync.Once
	return func() { once.Do(func() { close(resume) }) }, nil
}

// StageSet groups the merged stage histograms of one strategy: queue
// wait, plan, the requested object's replan share, and HTTP respond.
type StageSet struct {
	Strategy string
	Queue    stats.LogHistogram
	Plan     stats.LogHistogram
	Replan   stats.LogHistogram
	Respond  stats.LogHistogram
}

// MetricsSnapshot is the full observability snapshot behind /v1/metrics:
// the server-wide Stats (counters, per-shard queue occupancy) plus the
// per-stage latency histograms merged across shards, one set per
// strategy, sorted by strategy name.  Histograms are empty unless
// Config.MeterStages is set.
type MetricsSnapshot struct {
	Stats  Stats
	Stages []StageSet
}

// Metrics snapshots the counters, per-shard queue accounting, and stage
// histograms (merging the per-shard sets).  It asks the shards as Stats
// does, with the same message, so its counts agree with its rows too.
func (s *Server) Metrics() (MetricsSnapshot, error) {
	st, snaps, err := s.readStats()
	if err != nil {
		return MetricsSnapshot{}, err
	}
	m := MetricsSnapshot{Stats: st}
	m.Stages = make([]StageSet, len(s.stratNames))
	for i, name := range s.stratNames {
		m.Stages[i].Strategy = name
	}
	for _, snap := range snaps {
		for i := range snap.stages {
			m.Stages[i].Queue.Merge(&snap.stages[i].queue)
			m.Stages[i].Plan.Merge(&snap.stages[i].plan)
			m.Stages[i].Replan.Merge(&snap.stages[i].replan)
		}
	}
	s.respMu.Lock()
	for i := range s.respond {
		m.Stages[i].Respond.Merge(&s.respond[i])
	}
	s.respMu.Unlock()
	sort.Slice(m.Stages, func(a, b int) bool { return m.Stages[a].Strategy < m.Stages[b].Strategy })
	return m, nil
}

// observeRespond records one respond-stage sample (ticket to HTTP write)
// for a strategy.  Safe for concurrent use; a no-op for strategies the
// server does not serve (or on harnesses built without New).
func (s *Server) observeRespond(strategy string, ns int64) {
	i, ok := s.stratIdx[strategy]
	if !ok || i >= len(s.respond) {
		return
	}
	s.respMu.Lock()
	s.respond[i].Observe(ns)
	s.respMu.Unlock()
}

// Stats snapshots the server-wide counters and per-object accounting.  The
// historical Peak and BusyTime cover finalized streams only, exactly, and
// across restarts too.  Peak is kept up to date across reads: a read
// folds in the streams finalized since the previous fold and settles the
// profile before the earliest start any unfinalized stream can have, so
// it costs O(objects + streams finalized since the last fold + streams
// ending after that frontier), not O(history).  BusyTime adds each
// shard's busy-time sum (its streams' durations in finalization order) in
// shard order; at one shard it is bit-identical to bandwidth.Usage.Total
// over the same streams.  A read asks every shard at once, and each shard
// answers its outcome counts (Admitted, Degraded, Rejected) with its
// object rows from one state, so each read's totals equal the sums of its
// own Objects' Arrivals and Rejected, even under concurrent submits.
func (s *Server) Stats() (Stats, error) {
	st, _, err := s.readStats()
	return st, err
}

// readStats folds every shard's new intervals and assembles the shard
// snapshots into a Stats.
func (s *Server) readStats() (Stats, []shardSnapshot, error) {
	snaps, peak, err := s.foldShards(0)
	if err != nil {
		return Stats{}, nil, err
	}
	return s.assemble(snaps, peak), snaps, nil
}

// foldShards sends each shard a statsMsg with its fold cursor, the
// durable settle point and drain (0 for a plain read); it folds the
// answers into the historical peak and returns them with it.
func (s *Server) foldShards(drain float64) ([]shardSnapshot, int, error) {
	from, d := s.peak.request(s.savedFloor())
	snaps, err := askAll(s, s.shards, func(i int, reply chan shardSnapshot) any {
		return statsMsg{drain: drain, from: from[i], durable: d, reply: reply}
	})
	if err != nil {
		return nil, 0, err
	}
	return snaps, s.peak.fold(snaps, s.savedFloor()), nil
}

// savedFloor is the minimum saved frontier over shards, the bound of the
// durable settle point: +Inf without a store, where nothing needs to
// survive a crash.
func (s *Server) savedFloor() float64 {
	w := math.Inf(1)
	for i := range s.saved {
		w = min(w, math.Float64frombits(s.saved[i].Load()))
	}
	return w
}

// settler runs the fold of a read twice whenever a shard's kept set has
// doubled since its last trim or a WAL writer has published a saved
// frontier, so the shards can forget settled intervals even when nobody
// reads.  A shard learns what a fold consumed, and the durable settle
// point it logged, only from the next fold's message; the second fold
// delivers both.
func (s *Server) settler() {
	defer s.wg.Done()
	for {
		select {
		case <-s.settle:
			// An error means the server is closing.
			var err error
			for i := 0; i < 2 && err == nil; i++ {
				_, _, err = s.foldShards(0)
			}
			if err == nil {
				s.settles.Add(1)
			}
		case <-s.quit:
			return
		}
	}
}

// Object returns the live accounting snapshot for one object: the row
// Stats reports for it, asked of its shard alone, so the lookup costs the
// same whatever the catalog's size.
func (s *Server) Object(name string) (ObjectStats, error) {
	r, ok := s.byName[name]
	if !ok {
		return ObjectStats{}, fmt.Errorf("%w %q", ErrUnknownObject, name)
	}
	return ask(s, r.sh, func(reply chan ObjectStats) any { return objectMsg{st: r.st, reply: reply} })
}

// DrainResult is the final accounting of a drained server.
type DrainResult struct {
	// Horizon is the drain horizon in catalog time units.
	Horizon float64
	// Objects holds per-object stats in catalog order, fully finalized.
	Objects []ObjectStats
	// Stats is the server-wide accounting after the drain.  Its Peak and
	// BusyTime cover every stream the server finalized, and match the
	// batch plan's; BusyTime adds per-shard sums in shard order, as Stats
	// does.
	Stats Stats
}

// AverageChannels returns the time-average number of busy channels.
func (r *DrainResult) AverageChannels() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return r.Stats.BusyTime / r.Horizon
}

// Drain advances every object to the horizon (in catalog time units),
// starts and finalizes the oblivious plan's remaining streams — including
// the truncated trailing partial group of each object's current epoch —
// and returns the final accounting.  Drain is terminal: it is meant for
// virtual-clock runs, after which the server should be Closed.
//
// Drain is not durable.  It advances scheduler state outside the
// WAL/snapshot discipline — nothing it does is logged or snapshotted,
// and Close does not checkpoint a drained shard — so on a durable server
// a restore after Drain reproduces the pre-drain state, not the drained
// one.  That is intentional: Drain reports a finished run; it is not an
// admission whose effects need replaying.  Callers who want the
// post-restart server to skip the drained work should Snapshot before
// draining and discard the store afterwards.
func (s *Server) Drain(horizon float64) (*DrainResult, error) {
	if horizon <= 0 || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		return nil, fmt.Errorf("%w: drain horizon must be positive and finite, got %g", ErrBadRequest, horizon)
	}
	snaps, peak, err := s.foldShards(horizon)
	if err != nil {
		return nil, err
	}
	st := s.assemble(snaps, peak)
	return &DrainResult{Horizon: horizon, Objects: st.Objects, Stats: st}, nil
}

// askAll sends each of shards the message mk builds around a reply
// channel of its own, every send before any wait, so the shard loops
// answer concurrently, and returns the replies in order.  Once the
// server closes it returns ErrClosed; the reply channels are buffered,
// so no shard blocks on an abandoned one.
func askAll[T any](s *Server, shards []*shard, mk func(i int, reply chan T) any) ([]T, error) {
	replies := make([]chan T, len(shards))
	for i, sh := range shards {
		replies[i] = make(chan T, 1)
		select {
		case sh.msgs <- mk(i, replies[i]):
		case <-s.quit:
			return nil, ErrClosed
		}
	}
	out := make([]T, len(shards))
	for i, reply := range replies {
		select {
		case out[i] = <-reply:
		case <-s.quit:
			return nil, ErrClosed
		}
	}
	return out, nil
}

// ask is askAll for one shard.
func ask[T any](s *Server, sh *shard, mk func(reply chan T) any) (T, error) {
	out, err := askAll(s, []*shard{sh}, func(_ int, reply chan T) any { return mk(reply) })
	if err != nil {
		var zero T
		return zero, err
	}
	return out[0], nil
}

// assemble merges shard snapshots into a Stats with objects in catalog
// order, the historical peak the fold returned, the outcome counts each
// shard reported with its objects, and BusyTime: the shards' busy-time
// sums added in shard order.
func (s *Server) assemble(snaps []shardSnapshot, peak int) Stats {
	st := Stats{
		Peak:             peak,
		RejectedPressure: s.rejectedPressure.Load(),
		Unknown:          s.unknown.Load(),
		LiveChannels:     s.gauge.Load(),
		WALFailures:      s.walFailures.Load(),
		WALFlushes:       s.walFlushes.Load(),
	}
	st.Shards = make([]ShardStats, len(s.queues))
	for i := range s.queues {
		q := &s.queues[i]
		st.Shards[i] = ShardStats{
			Shard:             i,
			QueueDepth:        q.depth(),
			QueueCap:          queueDepth,
			HighWater:         q.high.Load(),
			Dequeued:          q.dequeued.Load(),
			PressureHighWater: s.cfg.PressureHighWater,
		}
	}
	st.Objects = make([]ObjectStats, len(s.cfg.Catalog))
	for _, snap := range snaps {
		st.Admitted += snap.admitted
		st.Degraded += snap.degraded
		st.Rejected += snap.rejected
		st.BusyTime += snap.busy
		for k, o := range snap.objects {
			st.Objects[snap.index[k]] = o
		}
	}
	st.Strategies = make(map[string]int64, 2)
	for _, o := range st.Objects {
		st.Strategies[o.Strategy]++
	}
	return st
}

// Close stops every shard event loop.  In-flight Submits return ErrClosed.
// With durability on, each shard is then checkpointed: its final state
// goes down the WAL channel as one more snapshot, and the WAL writers
// drain after the loops (their only senders) exit.  So every record of an
// acknowledged request reaches the store before Close returns, and the
// saved snapshot truncates the log: a restore after a clean Close replays
// no WAL tail.  A drained shard is not checkpointed (see Drain), nor one
// whose last successful save covers its every admission; a failed
// checkpoint leaves the log for the next start to replay.  A store the
// server owns (Config.OwnStore) is then closed too.
func (s *Server) Close() {
	select {
	case <-s.quit:
		return
	default:
	}
	close(s.quit)
	s.wg.Wait()
	for _, sh := range s.shards {
		if sh.walCh != nil {
			sh.checkpoint()
			close(sh.walCh)
		}
	}
	s.walWG.Wait()
	if s.cfg.OwnStore && s.cfg.Store != nil {
		s.cfg.Store.Close()
	}
	s.cancel()
}
