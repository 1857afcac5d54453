package mod

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/arrivals"
)

// Instance is one planning problem: the client arrival times for a single
// media object and the horizon to plan over.
type Instance struct {
	// Arrivals are the client request times, nondecreasing, in the
	// catalog's time units; clients arriving at the same instant share a
	// stream.  May be empty: the oblivious planners (online, batching at
	// zero load, ...) have well-defined costs for an empty trace.
	Arrivals []float64
	// Horizon is the planning horizon in the same units.  WithHorizon
	// overrides it; one of the two must be positive.
	Horizon float64
}

// Plan is a planner's answer.
type Plan struct {
	// Planner is the registry name of the planner that produced the plan.
	Planner string
	// Cost is the total server bandwidth over the horizon, in complete
	// media streams (the repository-wide comparison unit).
	Cost float64
	// Arrivals is the number of arrival times in the instance.
	Arrivals int
	// Horizon is the resolved planning horizon.
	Horizon float64
	// MediaLength is the media length the plan was computed for.
	MediaLength float64
	// AverageChannels is the time-average number of busy channels implied
	// by Cost (Cost * MediaLength / Horizon).
	AverageChannels float64
	// Aux carries planner-specific extras, e.g. the hybrid planner's
	// "loaded_fraction" and the costs of its two pure modes.  Nil for
	// planners with nothing extra to report.
	Aux map[string]float64
}

// Planner is one serving strategy behind a uniform planning API.
// Implementations must honor ctx on long-running paths and are safe for
// concurrent use.
type Planner interface {
	// Name returns the planner's registry name.
	Name() string
	// Plan computes the plan for the instance.  Per-call options are
	// applied on top of the options the planner was constructed with.
	Plan(ctx context.Context, inst Instance, opts ...Option) (Plan, error)
}

// runFunc is a built-in planner's computation: cost in media streams plus
// optional auxiliary metrics, for a validated (trace, horizon, settings).
type runFunc func(ctx context.Context, trace arrivals.Trace, horizon float64, st Settings) (float64, map[string]float64, error)

// planner is the built-in Planner implementation: a named runFunc plus the
// base options captured at New time.
type planner struct {
	name string
	base []Option
	run  runFunc
}

func (p *planner) Name() string { return p.name }

func (p *planner) Plan(ctx context.Context, inst Instance, opts ...Option) (Plan, error) {
	st := ResolveSettings(append(append([]Option{}, p.base...), opts...)...)
	trace, horizon, err := resolveInstance(inst, st)
	if err != nil {
		return Plan{}, fmt.Errorf("mod: planner %q: %w", p.name, err)
	}
	if err := ctx.Err(); err != nil {
		return Plan{}, wrapErr(p.name, err)
	}
	cost, aux, err := p.run(ctx, trace, horizon, st)
	if err != nil {
		return Plan{}, wrapErr(p.name, err)
	}
	plan := Plan{
		Planner:         p.name,
		Cost:            cost,
		Arrivals:        len(inst.Arrivals),
		Horizon:         horizon,
		MediaLength:     st.MediaLength,
		AverageChannels: cost * st.MediaLength / horizon,
		Aux:             aux,
	}
	if err := checkCap(st, plan.AverageChannels); err != nil {
		return Plan{}, fmt.Errorf("mod: planner %q: %w", p.name, err)
	}
	return plan, nil
}

// checkCap refuses a plan whose time-average busy channels exceed
// WithChannelCap; Plan and Compare share it, so swapping a Plan loop for
// Compare never loses the capacity guard.
func checkCap(st Settings, avgChannels float64) error {
	if st.ChannelCap > 0 && avgChannels > float64(st.ChannelCap) {
		return fmt.Errorf("%w: plan needs %.2f average channels, cap is %d", ErrCapacity, avgChannels, st.ChannelCap)
	}
	return nil
}

// resolveInstance validates the trace and resolves the horizon (an
// explicit WithHorizon wins over the instance's).  It also rejects a
// non-finite media length or delay, which no planner checks for itself.
func resolveInstance(inst Instance, st Settings) (arrivals.Trace, float64, error) {
	horizon := inst.Horizon
	if st.Horizon > 0 {
		horizon = st.Horizon
	}
	if horizon <= 0 || math.IsNaN(horizon) || math.IsInf(horizon, 1) {
		return nil, 0, fmt.Errorf("%w: horizon must be positive and finite (got %g; set Instance.Horizon or WithHorizon)",
			ErrBadInstance, horizon)
	}
	if math.IsNaN(st.MediaLength) || math.IsInf(st.MediaLength, 0) || math.IsNaN(st.Delay) || math.IsInf(st.Delay, 0) {
		return nil, 0, fmt.Errorf("%w: media length and delay must be finite (got %g and %g)",
			ErrBadInstance, st.MediaLength, st.Delay)
	}
	trace := arrivals.Trace(inst.Arrivals)
	if err := trace.Validate(); err != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrBadInstance, err)
	}
	return trace, horizon, nil
}

// wrapErr attributes an internal error to a planner and folds context
// cancellation into ErrCanceled while keeping the original chain intact.
func wrapErr(name string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("mod: planner %q: %w: %w", name, ErrCanceled, err)
	}
	return fmt.Errorf("mod: planner %q: %w", name, err)
}
