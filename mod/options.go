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
	// Workers sizes Compare's worker pool; 0 means GOMAXPROCS, 1 means
	// serial.  A single Plan runs on the caller's goroutine whatever its
	// value.  A live server's shard count is ServeConfig.Shards.
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
	return Settings{MediaLength: 1, Delay: 0.01, Poisson: true}
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

// WithWorkers sizes Compare's worker pool (0 = GOMAXPROCS, 1 = serial).
// A single Plan ignores it; a live server's shard count is
// ServeConfig.Shards.
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
