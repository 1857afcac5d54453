// Package policy provides a uniform interface over every serving strategy in
// this repository — the paper's delay-guaranteed on-line algorithm, the
// dyadic baselines, batching, unicast, the Section 5 hybrid, and the exact
// off-line optimum — so that experiments, examples, and downstream users can
// compare algorithms by name on a common footing: give each policy an
// arrival trace and a horizon, get back the total server bandwidth in
// complete media streams.
//
// Every Serve call takes a context.Context: policies whose cost is a closed
// form return immediately, while the off-line optimal policies run a
// multi-second interval DP at large n and abort within one DP work unit of
// ctx being done.  Validation and capacity failures wrap the sentinel
// errors ErrBadInstance and ErrInstanceTooLarge, so callers (in particular
// the public mod facade) can classify failures with errors.Is across the
// package boundary.
package policy

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/arrivals"
	"repro/internal/batching"
	"repro/internal/dyadic"
	"repro/internal/hybrid"
	"repro/internal/moderr"
	"repro/internal/offline"
	"repro/internal/online"
)

// ErrBadInstance marks validation failures of the (trace, horizon,
// parameters) instance handed to a policy: non-positive horizon or delay,
// a delay exceeding the media length, an unsorted trace.  The value is
// the shared leaf sentinel internal/moderr.ErrBadInstance, so layers
// below policy classify failures identically (see moderr's doc).
var ErrBadInstance = moderr.ErrBadInstance

// ErrInstanceTooLarge marks instances the exact off-line DP refuses up
// front: more arrivals than the configured cap, or banded DP tables that
// would exceed the configured memory budget.  Alias of
// internal/moderr.ErrInstanceTooLarge.
var ErrInstanceTooLarge = moderr.ErrInstanceTooLarge

// Policy is one serving strategy for a single media object.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Serve returns the total server bandwidth, in complete media streams,
	// needed to serve the given arrival trace over the horizon [0, horizon).
	// Long-running policies honor ctx and return an error wrapping
	// ctx.Err() when canceled.
	Serve(ctx context.Context, trace arrivals.Trace, horizon float64) (float64, error)
}

// DelayGuaranteed returns the paper's on-line delay-guaranteed policy: a
// (possibly truncated) stream starts at the end of every slot of length
// delay, following the static F_h merge-tree template, regardless of whether
// the slot contains arrivals.
func DelayGuaranteed(mediaLength, delay float64) Policy {
	return delayGuaranteed{mediaLength: mediaLength, delay: delay}
}

type delayGuaranteed struct {
	mediaLength, delay float64
}

func (p delayGuaranteed) Name() string { return "delay-guaranteed" }

func (p delayGuaranteed) Serve(ctx context.Context, trace arrivals.Trace, horizon float64) (float64, error) {
	if err := validate(p.mediaLength, p.delay, horizon); err != nil {
		return 0, err
	}
	if err := validateTrace(trace); err != nil {
		return 0, err
	}
	L := slotsPerMedia(p.mediaLength, p.delay)
	// Round, not ceil: the repo-wide horizon-slot convention shared with
	// the Figs. 11-12 sweep (experiments.comparisonFigure) and cmd/modsim,
	// so the policy reproduces those figures' delay-guaranteed points
	// exactly when the delay does not divide the horizon.
	n := int64(math.Round(horizon / p.delay))
	if n < 1 {
		n = 1
	}
	return online.NormalizedCost(L, n), nil
}

// ImmediateDyadic returns the immediate-service dyadic policy with the given
// parameters (clients are served the instant they arrive).
func ImmediateDyadic(mediaLength float64, params dyadic.Params) Policy {
	return immediateDyadic{mediaLength: mediaLength, params: params}
}

type immediateDyadic struct {
	mediaLength float64
	params      dyadic.Params
}

func (p immediateDyadic) Name() string { return "immediate dyadic" }

func (p immediateDyadic) Serve(ctx context.Context, trace arrivals.Trace, horizon float64) (float64, error) {
	if p.mediaLength <= 0 || horizon <= 0 {
		return 0, fmt.Errorf("%w: media length and horizon must be positive", ErrBadInstance)
	}
	return dyadic.TotalCost(trace.Clip(horizon), p.mediaLength, p.params)
}

// BatchedDyadic returns the batched dyadic policy: arrivals wait until the
// end of their slot and only non-empty slots start streams.
func BatchedDyadic(mediaLength, delay float64, params dyadic.Params) Policy {
	return batchedDyadic{mediaLength: mediaLength, delay: delay, params: params}
}

type batchedDyadic struct {
	mediaLength, delay float64
	params             dyadic.Params
}

func (p batchedDyadic) Name() string { return "batched dyadic" }

func (p batchedDyadic) Serve(ctx context.Context, trace arrivals.Trace, horizon float64) (float64, error) {
	if err := validate(p.mediaLength, p.delay, horizon); err != nil {
		return 0, err
	}
	return dyadic.TotalBatchedCost(trace.Clip(horizon), p.mediaLength, p.delay, p.params)
}

// PureBatching returns the merging-free batching policy: one full stream per
// non-empty slot.
func PureBatching(mediaLength, delay float64) Policy {
	return pureBatching{mediaLength: mediaLength, delay: delay}
}

type pureBatching struct {
	mediaLength, delay float64
}

func (p pureBatching) Name() string { return "batching" }

func (p pureBatching) Serve(ctx context.Context, trace arrivals.Trace, horizon float64) (float64, error) {
	if err := validate(p.mediaLength, p.delay, horizon); err != nil {
		return 0, err
	}
	if err := validateTrace(trace); err != nil {
		return 0, err
	}
	return batching.BatchedCost(trace.Clip(horizon), p.delay), nil
}

// Unicast returns the no-sharing strawman: a private full stream per client.
func Unicast() Policy {
	return unicast{}
}

type unicast struct{}

func (unicast) Name() string { return "unicast" }

func (unicast) Serve(ctx context.Context, trace arrivals.Trace, horizon float64) (float64, error) {
	if horizon <= 0 {
		return 0, fmt.Errorf("%w: horizon must be positive", ErrBadInstance)
	}
	if err := validateTrace(trace); err != nil {
		return 0, err
	}
	return batching.ImmediateUnicastCost(trace.Clip(horizon)), nil
}

// Hybrid returns the Section 5 hybrid policy with the given configuration.
func Hybrid(cfg hybrid.Config) Policy {
	return hybridPolicy{cfg: cfg}
}

type hybridPolicy struct {
	cfg hybrid.Config
}

func (p hybridPolicy) Name() string { return "hybrid" }

func (p hybridPolicy) Serve(ctx context.Context, trace arrivals.Trace, horizon float64) (float64, error) {
	res, err := hybrid.Run(trace.Clip(horizon), horizon, p.cfg)
	if err != nil {
		return 0, err
	}
	return res.TotalCost, nil
}

// defaultOfflineArrivalCap bounds the trace size the exact off-line DP will
// accept.  The banded flat tables of internal/offline store 12 bytes per
// (group-feasible) interval, so the memory is 12 n W bytes where W is the
// largest number of arrivals inside one media length — measured 287 MB at
// n = 50000 for the Figs. 11-12 setting (horizon 100 media lengths), versus
// the ~16 n^2 bytes (40 GB) the old full [][] tables would have needed.
// Adversarial traces that pack everything into one window are still caught
// by defaultOfflineTableBytes below.
const defaultOfflineArrivalCap = 50000

// defaultOfflineTableBytes refuses DP instances whose banded tables would
// exceed ~1.5 GiB regardless of the arrival count.
const defaultOfflineTableBytes = int64(1) << 30 * 3 / 2

// OfflineOptions configures the exact off-line optimal policies.  The zero
// value selects the defaults: a 50000-arrival cap and a ~1.5 GiB table
// memory budget.
type OfflineOptions struct {
	// MaxArrivals caps the (clipped, possibly batched) trace size; <= 0
	// selects the 50000 default.
	MaxArrivals int
	// MaxTableBytes caps the banded DP table footprint in bytes; <= 0
	// selects the ~1.5 GiB default.
	MaxTableBytes int64
}

func (o OfflineOptions) withDefaults() OfflineOptions {
	if o.MaxArrivals <= 0 {
		o.MaxArrivals = defaultOfflineArrivalCap
	}
	if o.MaxTableBytes <= 0 {
		o.MaxTableBytes = defaultOfflineTableBytes
	}
	return o
}

// OfflineOptimal returns the exact off-line optimum for general arrivals
// (the interval dynamic program of internal/offline) with the default
// instance caps.  Use 0 for the default 50000-arrival cap.
func OfflineOptimal(mediaLength float64, maxArrivals int) Policy {
	return OfflineOptimalOpts(mediaLength, OfflineOptions{MaxArrivals: maxArrivals})
}

// OfflineOptimalOpts is OfflineOptimal with explicit caps.  Instances over
// the caps are refused with an error wrapping ErrInstanceTooLarge before
// any table is allocated.
func OfflineOptimalOpts(mediaLength float64, opt OfflineOptions) Policy {
	return offlineOptimal{mediaLength: mediaLength, opt: opt.withDefaults()}
}

type offlineOptimal struct {
	mediaLength float64
	opt         OfflineOptions
}

func (p offlineOptimal) Name() string { return "offline optimal" }

func (p offlineOptimal) Serve(ctx context.Context, trace arrivals.Trace, horizon float64) (float64, error) {
	if p.mediaLength <= 0 || horizon <= 0 {
		return 0, fmt.Errorf("%w: media length and horizon must be positive", ErrBadInstance)
	}
	if err := validateTrace(trace); err != nil {
		return 0, err
	}
	clipped := trace.Clip(horizon)
	if len(clipped) > p.opt.MaxArrivals {
		return 0, fmt.Errorf("%w: offline optimal limited to %d arrivals, trace has %d",
			ErrInstanceTooLarge, p.opt.MaxArrivals, len(clipped))
	}
	if len(clipped) == 0 {
		return 0, nil
	}
	if err := checkOfflineTableMemory(clipped, p.mediaLength, p.opt.MaxTableBytes); err != nil {
		return 0, err
	}
	res, err := offline.OptimalForest(ctx, clipped, p.mediaLength, offline.ReceiveTwo)
	if err != nil {
		return 0, err
	}
	return res.NormalizedCost(), nil
}

// checkOfflineTableMemory estimates (in O(n)) the banded DP footprint and
// refuses instances that would exceed the byte budget.
func checkOfflineTableMemory(times []float64, L float64, budget int64) error {
	if bytes := offline.BandBytes(times, L); bytes > budget {
		return fmt.Errorf("%w: offline optimal DP would need %d MB of tables for %d arrivals (budget %d MB)",
			ErrInstanceTooLarge, bytes>>20, len(times), budget>>20)
	}
	return nil
}

// OfflineOptimalBatched returns the exact off-line optimum when every client
// may be delayed up to `delay` (served at the end of its slot): the interval
// dynamic program applied to the batched service times.  It is the tight
// lower bound for all the delay-`delay` policies (delay-guaranteed, batched
// dyadic, batching), whereas OfflineOptimal is the lower bound for the
// immediate-service policies.
func OfflineOptimalBatched(mediaLength, delay float64, maxArrivals int) Policy {
	return OfflineOptimalBatchedOpts(mediaLength, delay, OfflineOptions{MaxArrivals: maxArrivals})
}

// OfflineOptimalBatchedOpts is OfflineOptimalBatched with explicit caps.
func OfflineOptimalBatchedOpts(mediaLength, delay float64, opt OfflineOptions) Policy {
	return offlineOptimalBatched{mediaLength: mediaLength, delay: delay, opt: opt.withDefaults()}
}

type offlineOptimalBatched struct {
	mediaLength, delay float64
	opt                OfflineOptions
}

func (p offlineOptimalBatched) Name() string { return "offline optimal (batched)" }

func (p offlineOptimalBatched) Serve(ctx context.Context, trace arrivals.Trace, horizon float64) (float64, error) {
	if err := validate(p.mediaLength, p.delay, horizon); err != nil {
		return 0, err
	}
	if err := validateTrace(trace); err != nil {
		return 0, err
	}
	batched := trace.Clip(horizon).BatchTimes(p.delay)
	if len(batched) > p.opt.MaxArrivals {
		return 0, fmt.Errorf("%w: offline optimal limited to %d arrivals, batched trace has %d",
			ErrInstanceTooLarge, p.opt.MaxArrivals, len(batched))
	}
	if len(batched) == 0 {
		return 0, nil
	}
	if err := checkOfflineTableMemory(batched, p.mediaLength, p.opt.MaxTableBytes); err != nil {
		return 0, err
	}
	res, err := offline.OptimalForest(ctx, batched, p.mediaLength, offline.ReceiveTwo)
	if err != nil {
		return 0, err
	}
	return res.NormalizedCost(), nil
}

// Standard returns the set of policies compared in Figs. 11-12 plus the
// merging-free baselines, configured for the given media length and delay
// and the given arrival type (Poisson or constant rate), in a stable order.
func Standard(mediaLength, delay float64, poisson bool) []Policy {
	var params dyadic.Params
	if poisson {
		params = dyadic.GoldenPoisson()
	} else {
		params = dyadic.GoldenConstantRate(slotsPerMedia(mediaLength, delay))
	}
	return []Policy{
		DelayGuaranteed(mediaLength, delay),
		ImmediateDyadic(mediaLength, params),
		BatchedDyadic(mediaLength, delay, params),
		Hybrid(hybrid.DefaultConfig(mediaLength, delay)),
		PureBatching(mediaLength, delay),
		Unicast(),
	}
}

// Compare serves the trace with every policy and returns the costs keyed by
// policy name, stopping at the first policy that fails (a canceled ctx
// counts as a failure of the policy it interrupted).
func Compare(ctx context.Context, policies []Policy, trace arrivals.Trace, horizon float64) (map[string]float64, error) {
	out := make(map[string]float64, len(policies))
	for _, p := range policies {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("policy: compare canceled: %w", err)
		}
		c, err := p.Serve(ctx, trace, horizon)
		if err != nil {
			return nil, fmt.Errorf("policy %q: %w", p.Name(), err)
		}
		out[p.Name()] = c
	}
	return out, nil
}

// CompareParallel is Compare with the per-policy Serve calls spread across a
// worker pool of the given size (0 means GOMAXPROCS; <= 1 delegates to the
// serial Compare).  Every policy computes its own cost independently of the
// others, so the costs are identical to Compare's.  The one behavioral
// difference is error handling: the pool runs all policies and then reports
// the first failing one in slice order, whereas Compare stops at the first
// failure.  Cancelling ctx stops dispatching, aborts the in-flight policies
// that honor ctx (one Serve per worker at most keeps running), and returns
// an error wrapping ctx.Err() once every worker has been joined.
func CompareParallel(ctx context.Context, policies []Policy, trace arrivals.Trace, horizon float64, workers int) (map[string]float64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(policies) {
		workers = len(policies)
	}
	if workers <= 1 {
		return Compare(ctx, policies, trace, horizon)
	}
	costs := make([]float64, len(policies))
	errs := make([]error, len(policies))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				costs[i], errs[i] = policies[i].Serve(ctx, trace, horizon)
			}
		}()
	}
dispatch:
	for i := range policies {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("policy: compare canceled: %w", err)
	}
	out := make(map[string]float64, len(policies))
	for i, p := range policies {
		if errs[i] != nil {
			return nil, fmt.Errorf("policy %q: %w", p.Name(), errs[i])
		}
		out[p.Name()] = costs[i]
	}
	return out, nil
}

func validate(mediaLength, delay, horizon float64) error {
	if mediaLength <= 0 || delay <= 0 || delay > mediaLength || horizon <= 0 {
		return fmt.Errorf("%w: need 0 < delay <= media length and horizon > 0 (got media=%g delay=%g horizon=%g)",
			ErrBadInstance, mediaLength, delay, horizon)
	}
	return nil
}

// validateTrace wraps trace validation failures in ErrBadInstance so they
// classify uniformly through the facade.
func validateTrace(trace arrivals.Trace) error {
	if err := trace.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadInstance, err)
	}
	return nil
}

func slotsPerMedia(mediaLength, delay float64) int64 {
	s := int64(math.Round(mediaLength / delay))
	if s < 1 {
		s = 1
	}
	return s
}
