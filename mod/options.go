package mod

import "math"

// Settings is the resolved configuration a planner runs with.  Zero values
// select the documented defaults; use ResolveSettings to apply options on
// top of the defaults the way New and Plan do.
type Settings struct {
	// MediaLength is the playback duration of the media object in the
	// trace's time units (default 1: the trace is measured in media
	// lengths).
	MediaLength float64
	// Delay is the guaranteed start-up delay in the same units (default
	// 0.01, i.e. 1% of the media length — the paper's running choice).
	Delay float64
	// Horizon, when positive, overrides Instance.Horizon.
	Horizon float64
	// Workers sizes Compare's policy pool and the live server's shard
	// count; 0 means GOMAXPROCS, 1 means serial.  A single Plan runs on
	// the caller's goroutine whatever its value.
	Workers int
	// ChannelCap, when positive, bounds the time-average number of busy
	// channels a Plan may use; plans over the cap fail with ErrCapacity.
	ChannelCap int
	// MemoryBudget, when positive, caps the off-line DP table footprint in
	// bytes (default ~1.5 GiB); over-budget instances fail with
	// ErrInstanceTooLarge before any allocation.
	MemoryBudget int64
	// MaxArrivals, when positive, caps the trace size the off-line
	// planners accept (default 50000).
	MaxArrivals int
	// Poisson tells the dyadic planners to use the golden-ratio parameters
	// tuned for Poisson arrivals (default true); false selects the
	// constant-rate tuning of Section 4.2.
	Poisson bool
	// Strategy is the live serving layer's default planner family (a
	// registry name from LivePlanners()); empty selects "online".  Batch
	// planning ignores it.
	Strategy string
	// EpochSlots is the live layer's replanning period for epoch-based
	// strategies, in slots of each object's delay; 0 selects the serving
	// default.  Batch planning ignores it.
	EpochSlots int
	// WarmReplanning lets the live layer's epoch replanner warm-start from
	// state retained across the closing epoch (default true).  Warm and
	// cold replanning are bit-identical; false forces the cold path.
	// Batch planning ignores it.
	WarmReplanning bool
	// PressureHighWater, when positive, turns on queue-depth backpressure
	// in the live layer: submits routed to a shard whose queue occupancy
	// already exceeds the mark are refused with ErrPressure (HTTP 429 +
	// Retry-After) instead of blocking.  0 (the default) disables
	// backpressure.  Batch planning ignores it.
	PressureHighWater int
	// MeterStages turns on per-request latency decomposition in the live
	// layer: queue / plan / replan / respond stage histograms, exposed via
	// Server.Metrics and GET /v1/metrics.  Metering is observation only —
	// admission decisions and cost totals are bit-identical either way —
	// and the admit path stays allocation-free with it on.  Batch planning
	// ignores it.
	MeterStages bool
	// Store is the live layer's durability backend: every admission is
	// WAL-logged before its ticket is acknowledged, and shards snapshot
	// their full scheduler state at epoch boundaries.  Nil (the default)
	// disables durability.  Batch planning ignores it.
	Store Store
	// SnapshotDir, when non-empty, opens a file-backed Store rooted at the
	// directory (created if absent) and hands its lifetime to the server —
	// the one-knob spelling of durability.  It overrides Store.  Batch
	// planning ignores it.
	SnapshotDir string
	// SnapshotEpochs is the snapshot cadence in epochs (each EpochSlots
	// slots of a shard's smallest delay); 0 selects the serving default of
	// one.  Batch planning ignores it.
	SnapshotEpochs int
	// Restore makes the server rebuild its state from the Store's latest
	// snapshots and WAL tails before serving, resuming ticket numbering
	// past the WAL high-water mark.  Batch planning ignores it.
	Restore bool
	// SyncMode is the WAL group-commit barrier: SyncOS (the zero value)
	// commits to the operating system before acknowledging, SyncFull
	// additionally fsyncs (one fsync per group commit), SyncNone leaves
	// commits to the store's own buffering.  Batch planning ignores it.
	SyncMode SyncMode
}

// SlotsPerMedia returns the media length in slots of the start-up delay
// (the L of the paper), at least 1.
func (s Settings) SlotsPerMedia() int64 {
	if s.Delay <= 0 || s.MediaLength <= 0 {
		return 1
	}
	l := int64(math.Round(s.MediaLength / s.Delay))
	if l < 1 {
		l = 1
	}
	return l
}

// DefaultSettings returns the documented defaults.
func DefaultSettings() Settings {
	return Settings{MediaLength: 1, Delay: 0.01, Poisson: true, WarmReplanning: true}
}

// ResolveSettings applies opts to DefaultSettings, exactly as New and Plan
// do (Plan-time options are applied after New-time options, so they win).
func ResolveSettings(opts ...Option) Settings {
	st := DefaultSettings()
	for _, o := range opts {
		if o != nil {
			o(&st)
		}
	}
	return st
}

// Option is a functional option configuring a planner (at New time) or a
// single Plan call (per-call options override the planner's).
type Option func(*Settings)

// WithMediaLength sets the media playback length in trace time units.
func WithMediaLength(l float64) Option { return func(s *Settings) { s.MediaLength = l } }

// WithDelay sets the guaranteed start-up delay in trace time units.
func WithDelay(d float64) Option { return func(s *Settings) { s.Delay = d } }

// WithHorizon overrides the Instance's planning horizon.
func WithHorizon(h float64) Option { return func(s *Settings) { s.Horizon = h } }

// WithWorkers sizes Compare's worker pool and the live server's shard
// count (0 = GOMAXPROCS, 1 = serial).  A single Plan ignores it.
func WithWorkers(n int) Option { return func(s *Settings) { s.Workers = n } }

// WithChannelCap bounds the time-average busy channels of a Plan; plans
// that would exceed it fail with ErrCapacity.
func WithChannelCap(c int) Option { return func(s *Settings) { s.ChannelCap = c } }

// WithMemoryBudget caps the off-line DP table memory in bytes.
func WithMemoryBudget(bytes int64) Option { return func(s *Settings) { s.MemoryBudget = bytes } }

// WithMaxArrivals caps the trace size the off-line planners accept.
func WithMaxArrivals(n int) Option { return func(s *Settings) { s.MaxArrivals = n } }

// WithPoisson selects Poisson-tuned (true) or constant-rate-tuned (false)
// dyadic parameters.
func WithPoisson(p bool) Option { return func(s *Settings) { s.Poisson = p } }

// WithStrategy sets the default live serving strategy of NewLiveServer:
// any planner name in LivePlanners().  Per-object Object.Strategy entries
// override it.  Batch planning is unaffected.
func WithStrategy(name string) Option { return func(s *Settings) { s.Strategy = name } }

// WithEpoch sets the live layer's epoch-replanning period in slots: how
// often an epoch-based strategy (every live planner but "online") re-runs
// its batch planner over the collected arrivals.  Use a value covering
// the whole horizon to plan a drained run in one batch — the
// configuration under which a live run reproduces the batch Plan exactly.
func WithEpoch(slots int) Option { return func(s *Settings) { s.EpochSlots = slots } }

// WithWarmReplanning toggles warm-start epoch replanning in NewLiveServer
// (default on).  When on, epoch-based strategies reuse planning state
// retained across the closing epoch — resumable DP tables for the
// off-line planners, deduplicated service starts for the batching and
// dyadic families — instead of replanning from scratch; results are
// bit-identical either way (the equivalence suite pins warm == cold), so
// false exists for measurement and triage, not correctness.  ObjectStats
// reports the warm-replan and cell-reuse accounting either way.  Batch
// planning is unaffected.
func WithWarmReplanning(on bool) Option { return func(s *Settings) { s.WarmReplanning = on } }

// WithBackpressure sets the live layer's per-shard queue high-water mark:
// a submit routed to a shard already holding more than highWater queued
// requests is refused with ErrPressure (HTTP: 429 with a Retry-After
// derived from the shard's drain rate) instead of blocking.  0 disables
// backpressure (the default).  Batch planning is unaffected.
func WithBackpressure(highWater int) Option {
	return func(s *Settings) { s.PressureHighWater = highWater }
}

// WithStageMetering toggles per-request latency decomposition in
// NewLiveServer (default off): with it on, every admission records queue
// wait, planning, epoch-replanning, and HTTP-respond durations into
// per-shard log-scale histograms, surfaced by Server.Metrics and the
// GET /v1/metrics Prometheus endpoint.  Metering never changes admission
// decisions or cost accounting, and the admit hot path stays
// allocation-free with it on.  Batch planning is unaffected.
func WithStageMetering(on bool) Option { return func(s *Settings) { s.MeterStages = on } }

// WithStore attaches a durability backend to the live server: admissions
// are WAL-logged before acknowledgement and shards snapshot their state at
// epoch boundaries.  The caller keeps ownership (Close the store after the
// server).  Batch planning ignores it.
func WithStore(st Store) Option { return func(s *Settings) { s.Store = st } }

// WithDurability opens a file-backed durability store rooted at dir
// (created if absent) and hands its lifetime to the server — the one-knob
// spelling of WithStore for production deployments.  Batch planning
// ignores it.
func WithDurability(dir string) Option { return func(s *Settings) { s.SnapshotDir = dir } }

// WithSnapshotEpochs sets the durability snapshot cadence in epochs
// (default 1).  Batch planning ignores it.
func WithSnapshotEpochs(n int) Option { return func(s *Settings) { s.SnapshotEpochs = n } }

// WithRestore makes the live server rebuild its state from the store's
// latest snapshots and WAL tails before serving — the warm-restart flag.
// Batch planning ignores it.
func WithRestore(on bool) Option { return func(s *Settings) { s.Restore = on } }

// WithSync sets the durability barrier of each WAL group commit: SyncOS
// (the default) survives process kill, SyncFull also survives power loss
// — affordable because the whole group commit shares one fsync —
// SyncNone trades crash safety of acknowledged requests for raw
// throughput.  Batch planning ignores it.
func WithSync(m SyncMode) Option { return func(s *Settings) { s.SyncMode = m } }
