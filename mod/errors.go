package mod

import (
	"errors"

	"repro/internal/moderr"
	"repro/internal/multiobject"
	"repro/internal/serve"
	"repro/internal/store"
)

// Sentinel errors of the facade.  Wherever possible they are the same
// values the internal layers wrap, so errors.Is classifies a failure
// identically whether it crossed the facade or was produced by an internal
// package directly.
var (
	// ErrUnknownPlanner is returned by New (and Compare) for a name that is
	// not one of Planners().
	ErrUnknownPlanner = errors.New("mod: unknown planner")

	// ErrBadInstance marks invalid problem instances: a non-positive
	// horizon, an unsorted or non-finite arrival trace, a delay exceeding
	// the media length.
	ErrBadInstance = moderr.ErrBadInstance

	// ErrInstanceTooLarge marks instances the exact off-line DP refuses up
	// front: more arrivals than the configured cap (WithMaxArrivals) or DP
	// tables over the memory budget (WithMemoryBudget).
	ErrInstanceTooLarge = moderr.ErrInstanceTooLarge

	// ErrCapacity marks channel-budget failures: a Plan whose bandwidth
	// exceeds WithChannelCap, or a FitDelays search that cannot meet its
	// budget even at the maximum delay scale.
	ErrCapacity = multiobject.ErrCapacity

	// ErrCanceled wraps context cancellation (or deadline expiry) observed
	// while planning; the original ctx.Err() stays in the chain, so both
	// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled)
	// hold.
	ErrCanceled = errors.New("mod: planning canceled")

	// ErrBadConfig marks invalid live-server or load-generator
	// configuration (re-exported from the serving layer).
	ErrBadConfig = serve.ErrBadConfig

	// ErrStoreInUse marks a NewServer without ServeConfig.Restore on a
	// store that already holds a snapshot or WAL record (re-exported from
	// the serving layer).  It wraps ErrBadConfig.
	ErrStoreInUse = serve.ErrStoreInUse

	// ErrUnknownObject is returned by the live server for requests naming
	// no catalog object.
	ErrUnknownObject = serve.ErrUnknownObject

	// ErrServerClosed is returned by operations on a closed live server.
	ErrServerClosed = serve.ErrClosed

	// ErrPressure marks a live-server submit refused by queue-depth
	// backpressure (ServeConfig.PressureHighWater); errors.As extracts the
	// *PressureError carrying the shard, depth, and suggested retry delay.
	ErrPressure = serve.ErrPressure

	// ErrCorruptSnapshot marks durable state the live server refuses to
	// restore from: a snapshot or WAL that fails its checksum, structure,
	// or configuration-fingerprint validation.  Restores fail loudly and
	// completely rather than partially applying suspect state.
	ErrCorruptSnapshot = store.ErrCorruptSnapshot
)
