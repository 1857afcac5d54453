package mod

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/dyadic"
	"repro/internal/hybrid"
	"repro/internal/policy"
)

// The built-in planners.  Each is a thin, options-driven adapter over the
// internal policy layer; their names are pinned by a golden registry test.
func init() {
	for _, name := range builtinNames {
		name := name
		Register(name, func(opts ...Option) (Planner, error) {
			return &planner{name: name, base: opts, run: builtinRun(name)}, nil
		})
	}
}

// builtinNames lists the built-in planners in registration order; the
// sorted view is what Planners() reports and what the golden test pins.
var builtinNames = []string{
	"online",
	"offline",
	"offline-batched",
	"dyadic",
	"dyadic-batched",
	"batching",
	"hybrid",
	"unicast",
}

// StandardNames returns the planners of the paper's Figs. 11-12 comparison
// plus the merging-free baselines, in the policy layer's stable order.
func StandardNames() []string {
	return []string{"online", "dyadic", "dyadic-batched", "hybrid", "batching", "unicast"}
}

// builtinRun returns the runFunc for a built-in name.  All planners except
// hybrid delegate straight to their policy; hybrid calls the hybrid engine
// directly so it can report its mode timeline through Plan.Aux (the policy
// layer exposes only the cost).
func builtinRun(name string) runFunc {
	if name == "hybrid" {
		return runHybrid
	}
	return func(ctx context.Context, trace arrivals.Trace, horizon float64, st Settings) (float64, map[string]float64, error) {
		pol, err := builtinPolicy(name, st)
		if err != nil {
			return 0, nil, err
		}
		cost, err := pol.Serve(ctx, trace, horizon)
		return cost, nil, err
	}
}

// runHybrid runs the Section 5 hybrid and reports, beyond the cost, the
// fraction of the horizon served in delay-guaranteed mode and what each
// pure strategy would have cost.
func runHybrid(ctx context.Context, trace arrivals.Trace, horizon float64, st Settings) (float64, map[string]float64, error) {
	res, err := hybrid.Run(trace.Clip(horizon), horizon, hybrid.DefaultConfig(st.MediaLength, st.Delay))
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

// builtinPolicy maps a built-in planner name and settings onto the policy
// layer.  Compare uses it too, so a Plan and a Compare entry for the same
// name are produced by the same underlying computation.
func builtinPolicy(name string, st Settings) (policy.Policy, error) {
	switch name {
	case "online":
		return policy.DelayGuaranteed(st.MediaLength, st.Delay), nil
	case "offline":
		return policy.OfflineOptimalOpts(st.MediaLength, offlineOptions(st)), nil
	case "offline-batched":
		return policy.OfflineOptimalBatchedOpts(st.MediaLength, st.Delay, offlineOptions(st)), nil
	case "dyadic":
		return policy.ImmediateDyadic(st.MediaLength, dyadicParams(st)), nil
	case "dyadic-batched":
		return policy.BatchedDyadic(st.MediaLength, st.Delay, dyadicParams(st)), nil
	case "batching":
		return policy.PureBatching(st.MediaLength, st.Delay), nil
	case "hybrid":
		return policy.Hybrid(hybrid.DefaultConfig(st.MediaLength, st.Delay)), nil
	case "unicast":
		return policy.Unicast(), nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownPlanner, name)
}

func offlineOptions(st Settings) policy.OfflineOptions {
	return policy.OfflineOptions{
		MaxArrivals:   st.MaxArrivals,
		MaxTableBytes: st.MemoryBudget,
	}
}

// dyadicParams mirrors policy.Standard's parameter choice: golden-ratio
// thresholds tuned for Poisson arrivals, or the Section 4.2 constant-rate
// tuning for the planner's slots-per-media.
func dyadicParams(st Settings) dyadic.Params {
	if st.Poisson {
		return dyadic.GoldenPoisson()
	}
	return dyadic.GoldenConstantRate(st.SlotsPerMedia())
}

// Compare plans the same instance with several built-in planners at once,
// spreading the work across WithWorkers goroutines (the policy layer's
// CompareParallel pool), and returns the costs keyed by planner name.  The
// costs — and the option semantics, including WithChannelCap — are
// identical to calling Plan per name.  Cancelling ctx aborts the sweep,
// including a mid-flight off-line DP, and returns an error wrapping
// ErrCanceled.
//
// Compare resolves names against the built-in set only; planners added via
// Register have no policy-layer mapping, so plan them with Plan directly.
func Compare(ctx context.Context, names []string, inst Instance, opts ...Option) (map[string]float64, error) {
	st := ResolveSettings(opts...)
	trace, horizon, err := resolveInstance(inst, st)
	if err != nil {
		return nil, fmt.Errorf("mod: compare: %w", err)
	}
	pols := make([]policy.Policy, len(names))
	for i, name := range names {
		if pols[i], err = builtinPolicy(name, st); err != nil {
			return nil, fmt.Errorf("mod: compare: %w", err)
		}
	}
	costs, err := policy.CompareParallel(ctx, pols, trace, horizon, st.Workers)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("mod: compare: %w: %w", ErrCanceled, err)
		}
		return nil, fmt.Errorf("mod: compare: %w", err)
	}
	out := make(map[string]float64, len(names))
	for i, name := range names {
		cost := costs[pols[i].Name()]
		// Enforce the channel cap exactly like Plan does, so swapping a
		// Plan loop for Compare never loses the capacity guard.
		if avg := cost * st.MediaLength / horizon; st.ChannelCap > 0 && avg > float64(st.ChannelCap) {
			return nil, fmt.Errorf("mod: compare: planner %q: %w: plan needs %.2f average channels, cap is %d",
				name, ErrCapacity, avg, st.ChannelCap)
		}
		out[name] = cost
	}
	return out, nil
}
