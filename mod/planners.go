package mod

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/arrivals"
	"repro/internal/batching"
	"repro/internal/dyadic"
	"repro/internal/hybrid"
	"repro/internal/offline"
	"repro/internal/online"
)

// builtins is the one table of planners, in presentation order.  Each
// entry checks the settings its algorithm needs and calls the algorithm
// directly; the trace is validated and the horizon resolved before any
// entry runs (resolveInstance).  New, Planners and Compare all resolve
// names here, so a Plan and a Compare cost for the same name come from
// the same computation.  The names are pinned by a golden registry test.
var builtins = []struct {
	name string
	run  runFunc
}{
	{"online", runOnline},
	{"offline", runOffline},
	{"offline-batched", runOfflineBatched},
	{"dyadic", runDyadic},
	{"dyadic-batched", runDyadicBatched},
	{"batching", runBatching},
	{"hybrid", runHybrid},
	{"unicast", runUnicast},
}

// builtinRun returns the entry named name.
func builtinRun(name string) (runFunc, error) {
	for _, b := range builtins {
		if b.name == name {
			return b.run, nil
		}
	}
	return nil, fmt.Errorf("%w: %q (planners: %v)", ErrUnknownPlanner, name, Planners())
}

// New builds the named planner with the given base options.  Unknown names
// fail with an error wrapping ErrUnknownPlanner (the message lists the
// planner names).
func New(name string, opts ...Option) (Planner, error) {
	run, err := builtinRun(name)
	if err != nil {
		return nil, err
	}
	return &planner{name: name, base: opts, run: run}, nil
}

// MustNew is New for names known to be valid; it panics on error.
func MustNew(name string, opts ...Option) Planner {
	p, err := New(name, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Planners returns the sorted names of every planner.
func Planners() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	sort.Strings(names)
	return names
}

// StandardNames returns the planners of the paper's Figs. 11-12 comparison
// plus the merging-free baselines, in a stable order.
func StandardNames() []string {
	return []string{"online", "dyadic", "dyadic-batched", "hybrid", "batching", "unicast"}
}

// checkMedia refuses a non-positive media length: the one setting the
// immediate-service merging planners need.
func checkMedia(st Settings) error {
	if st.MediaLength <= 0 {
		return fmt.Errorf("%w: media length must be positive (got %g)", ErrBadInstance, st.MediaLength)
	}
	return nil
}

// checkDelay refuses settings without 0 < delay <= media length: what
// every planner that serves clients at slot ends needs.
func checkDelay(st Settings) error {
	if st.MediaLength <= 0 || st.Delay <= 0 || st.Delay > st.MediaLength {
		return fmt.Errorf("%w: need 0 < delay <= media length (got media=%g delay=%g)",
			ErrBadInstance, st.MediaLength, st.Delay)
	}
	return nil
}

// runOnline is the paper's delay-guaranteed on-line algorithm: a (possibly
// truncated) stream starts at the end of every slot, following the static
// F_h merge-tree template whatever the arrivals, so the cost depends on
// the horizon alone.
func runOnline(_ context.Context, _ arrivals.Trace, horizon float64, st Settings) (float64, map[string]float64, error) {
	if err := checkDelay(st); err != nil {
		return 0, nil, err
	}
	// Round, not ceil: the repo-wide horizon-slot convention shared with
	// the Figs. 11-12 sweep (experiments.comparisonFigure) and cmd/modsim,
	// so the planner reproduces those figures' delay-guaranteed points
	// exactly when the delay does not divide the horizon.
	n := int64(math.Round(horizon / st.Delay))
	if n < 1 {
		n = 1
	}
	return online.NormalizedCost(st.SlotsPerMedia(), n), nil, nil
}

// runOffline is the exact off-line optimum for immediate service: the
// interval DP over the arrivals, behind the shared off-line guard.
func runOffline(ctx context.Context, trace arrivals.Trace, horizon float64, st Settings) (float64, map[string]float64, error) {
	if err := checkMedia(st); err != nil {
		return 0, nil, err
	}
	return solveOffline(ctx, trace.Clip(horizon), st)
}

// runOfflineBatched is the exact off-line optimum when every client may
// wait until the end of its slot: the interval DP over the occupied slot
// ends, the tight lower bound for every delay-`delay` planner.
func runOfflineBatched(ctx context.Context, trace arrivals.Trace, horizon float64, st Settings) (float64, map[string]float64, error) {
	if err := checkDelay(st); err != nil {
		return 0, nil, err
	}
	return solveOffline(ctx, trace.Clip(horizon).BatchTimes(st.Delay), st)
}

func solveOffline(ctx context.Context, times []float64, st Settings) (float64, map[string]float64, error) {
	res, err := offline.SolveGuarded(ctx, times, st.MediaLength, st.MaxArrivals, st.MemoryBudget)
	if err != nil {
		return 0, nil, err
	}
	return res.NormalizedCost(), nil, nil
}

// runDyadic is immediate-service dyadic stream merging.
func runDyadic(_ context.Context, trace arrivals.Trace, horizon float64, st Settings) (float64, map[string]float64, error) {
	if err := checkMedia(st); err != nil {
		return 0, nil, err
	}
	cost, err := dyadic.TotalCost(trace.Clip(horizon), st.MediaLength, dyadic.Golden(st.Poisson, st.SlotsPerMedia()))
	return cost, nil, err
}

// runDyadicBatched is batched dyadic stream merging: arrivals wait until
// the end of their slot, and only occupied slots start streams.
func runDyadicBatched(_ context.Context, trace arrivals.Trace, horizon float64, st Settings) (float64, map[string]float64, error) {
	if err := checkDelay(st); err != nil {
		return 0, nil, err
	}
	cost, err := dyadic.TotalBatchedCost(trace.Clip(horizon), st.MediaLength, st.Delay, dyadic.Golden(st.Poisson, st.SlotsPerMedia()))
	return cost, nil, err
}

// runBatching is merging-free batching: one full stream per occupied slot.
func runBatching(_ context.Context, trace arrivals.Trace, horizon float64, st Settings) (float64, map[string]float64, error) {
	if err := checkDelay(st); err != nil {
		return 0, nil, err
	}
	return batching.BatchedCost(trace.Clip(horizon), st.Delay), nil, nil
}

// runHybrid runs the Section 5 hybrid and reports, beyond the cost, the
// fraction of the horizon served in delay-guaranteed mode and what each
// pure strategy would have cost.
func runHybrid(ctx context.Context, trace arrivals.Trace, horizon float64, st Settings) (float64, map[string]float64, error) {
	if err := checkDelay(st); err != nil {
		return 0, nil, err
	}
	res, err := hybrid.Run(trace.Clip(horizon), horizon, st.MediaLength, st.Delay)
	if err != nil {
		return 0, nil, err
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	return res.TotalCost, map[string]float64{
		"loaded_fraction":       res.LoadedFraction,
		"pure_delay_guaranteed": res.PureDelayGuaranteedCost,
		"pure_dyadic":           res.PureDyadicCost,
	}, nil
}

// runUnicast is the no-sharing strawman: a private full stream per client.
// Its cost counts streams, but AverageChannels scales it by the media
// length, so a non-positive one is refused like everywhere else.
func runUnicast(_ context.Context, trace arrivals.Trace, horizon float64, st Settings) (float64, map[string]float64, error) {
	if err := checkMedia(st); err != nil {
		return 0, nil, err
	}
	return batching.ImmediateUnicastCost(trace.Clip(horizon)), nil, nil
}

// Compare plans the same instance with several planners at once,
// spreading the work across WithWorkers goroutines (0 means GOMAXPROCS, 1
// runs them one after another and stops at the first failure), and
// returns the costs keyed by planner name.  The costs — and the option
// semantics, including WithChannelCap — are identical to calling Plan per
// name.  A failing planner is reported as the first failure in names
// order.  Cancelling ctx stops dispatching, aborts the in-flight planners
// (a mid-flight off-line DP included), joins every worker and returns an
// error wrapping ErrCanceled.
func Compare(ctx context.Context, names []string, inst Instance, opts ...Option) (map[string]float64, error) {
	st := ResolveSettings(opts...)
	trace, horizon, err := resolveInstance(inst, st)
	if err != nil {
		return nil, fmt.Errorf("mod: compare: %w", err)
	}
	runs := make([]runFunc, len(names))
	for i, name := range names {
		if runs[i], err = builtinRun(name); err != nil {
			return nil, fmt.Errorf("mod: compare: %w", err)
		}
	}
	costs := make([]float64, len(names))
	errs := make([]error, len(names))
	run := func(i int) { costs[i], _, errs[i] = runs[i](ctx, trace, horizon, st) }
	workers := st.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || len(names) <= 1 {
		for i := range names {
			if ctx.Err() != nil {
				break
			}
			if run(i); errs[i] != nil {
				break
			}
		}
	} else {
		comparePool(ctx, min(workers, len(names)), len(names), run)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mod: compare: %w: %w", ErrCanceled, err)
	}
	for i, name := range names {
		if errs[i] != nil {
			return nil, fmt.Errorf("mod: compare: planner %q: %w", name, errs[i])
		}
	}
	out := make(map[string]float64, len(names))
	for i, name := range names {
		if err := checkCap(st, costs[i]*st.MediaLength/horizon); err != nil {
			return nil, fmt.Errorf("mod: compare: planner %q: %w", name, err)
		}
		out[name] = costs[i]
	}
	return out, nil
}

// comparePool runs run(0..n-1) on the given number of goroutines and
// returns once every one of them has exited.  A done ctx stops the
// dispatch, and the workers skip what was already handed to them.
func comparePool(ctx context.Context, workers, n int, run func(int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() == nil {
					run(i)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
}
