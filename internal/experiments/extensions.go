package experiments

import (
	"context"
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/hybrid"
	"repro/internal/multiobject"
	"repro/internal/stats"
	"repro/internal/textplot"
	"repro/mod"
)

// The experiments in this file go beyond the paper's evaluation section and
// exercise the extensions discussed in its Section 5 (multiple media
// objects, hybrid servers) plus an extra cross-check of the dyadic baseline
// against the exact general-arrivals off-line optimum.  They are included in
// All() and cmd/modexp under the ids "ext-*".

// HybridConfig parameterizes the hybrid-server extension experiment.
type HybridConfig struct {
	// Delay is the guaranteed start-up delay as a fraction of the media.
	Delay float64
	// Phases describe a non-stationary arrival pattern: each phase has a
	// mean inter-arrival time (fraction of the media length) and a span in
	// media lengths.
	Phases []struct {
		Lambda float64
		Span   float64
	}
	// Seed seeds the Poisson generator.
	Seed int64
}

// DefaultHybrid returns a quiet/ramp-up/prime-time evening.
func DefaultHybrid() HybridConfig {
	return HybridConfig{
		Delay: 0.01,
		Phases: []struct {
			Lambda float64
			Span   float64
		}{
			{Lambda: 0.08, Span: 15},
			{Lambda: 0.02, Span: 15},
			{Lambda: 0.003, Span: 15},
		},
		Seed: 11,
	}
}

// HybridServer evaluates the Section 5 hybrid server on a non-stationary
// trace, comparing it against the pure delay-guaranteed and pure batched
// dyadic strategies.
func HybridServer(cfg HybridConfig) (Result, error) {
	var trace arrivals.Trace
	var offset float64
	for i, ph := range cfg.Phases {
		part := arrivals.Poisson(ph.Lambda, ph.Span, cfg.Seed+int64(i))
		for _, t := range part {
			trace = append(trace, offset+t)
		}
		offset += ph.Span
	}
	hcfg := hybrid.DefaultConfig(1.0, cfg.Delay)
	res, err := hybrid.Run(trace, offset, hcfg)
	if err != nil {
		return Result{}, err
	}
	tab := textplot.NewTable("strategy", "streams", "vs_hybrid")
	tab.AddRow("hybrid", res.TotalCost, 1.0)
	tab.AddRow("pure delay-guaranteed", res.PureDelayGuaranteedCost, safeRatio(res.PureDelayGuaranteedCost, res.TotalCost))
	tab.AddRow("pure batched dyadic", res.PureDyadicCost, safeRatio(res.PureDyadicCost, res.TotalCost))
	return Result{
		ID:    "ext-hybrid",
		Title: "Extension (Section 5): hybrid delay-guaranteed / dyadic server on a non-stationary evening",
		Table: tab,
		Notes: fmt.Sprintf("delay = %.1f%% of media length; %d arrivals over %.0f media lengths; %.0f%% of the horizon served in delay-guaranteed mode",
			cfg.Delay*100, len(trace), offset, res.LoadedFraction*100),
	}, nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// MultiObjectConfig parameterizes the multiple-media-objects extension.
type MultiObjectConfig struct {
	// Objects is the catalog size.
	Objects int
	// MediaLength is the common media length (time units).
	MediaLength float64
	// BaseDelay is the smallest guaranteed delay considered.
	BaseDelay float64
	// Horizon is the planning horizon in time units.
	Horizon float64
	// ZipfExponent shapes the popularity distribution.
	ZipfExponent float64
	// DelayFactors are the uniform delay multipliers to sweep.
	DelayFactors []float64
}

// DefaultMultiObject returns a ten-object catalog sweep.
func DefaultMultiObject() MultiObjectConfig {
	return MultiObjectConfig{
		Objects:      10,
		MediaLength:  1,
		BaseDelay:    0.01,
		Horizon:      10,
		ZipfExponent: 1,
		DelayFactors: []float64{1, 2, 4, 8, 16},
	}
}

// MultiObjectPeak evaluates the Section 5 extension to a server carrying
// several media objects: how the server-wide peak and average channel usage
// fall as the guaranteed start-up delay is scaled up uniformly, and what a
// popularity-aware delay assignment achieves.
func MultiObjectPeak(cfg MultiObjectConfig) (Result, error) {
	tab := textplot.NewTable("delay_factor", "delay_pct", "peak_channels", "avg_channels", "total_streams")
	var xs, peaks []float64
	base := multiobject.ZipfCatalog(cfg.Objects, cfg.MediaLength, cfg.BaseDelay, cfg.ZipfExponent)
	for _, f := range cfg.DelayFactors {
		cat := make(multiobject.Catalog, len(base))
		copy(cat, base)
		for i := range cat {
			cat[i].Delay = cfg.BaseDelay * f
			if cat[i].Delay > cat[i].Length {
				cat[i].Delay = cat[i].Length
			}
		}
		plan, err := multiobject.Build(cat, cfg.Horizon)
		if err != nil {
			return Result{}, err
		}
		var streams float64
		for _, op := range plan.Objects {
			streams += op.Streams
		}
		tab.AddRow(f, cfg.BaseDelay*f*100, plan.Peak, plan.AverageChannels(), streams)
		xs = append(xs, f)
		peaks = append(peaks, float64(plan.Peak))
	}
	// Popularity-aware assignment at the base delay for comparison.
	aware, err := multiobject.Build(multiobject.PopularityAwareDelays(base, cfg.BaseDelay, cfg.DelayFactors[len(cfg.DelayFactors)-1]), cfg.Horizon)
	if err != nil {
		return Result{}, err
	}
	var awareStreams float64
	for _, op := range aware.Objects {
		awareStreams += op.Streams
	}
	tab.AddRow("popularity-aware", "-", aware.Peak, aware.AverageChannels(), awareStreams)
	return Result{
		ID:    "ext-multiobject",
		Title: "Extension (Section 5): peak bandwidth of a multi-object delay-guaranteed server",
		Table: tab,
		Series: []textplot.Series{
			{Name: "peak channels", X: xs, Y: peaks},
		},
		Notes: fmt.Sprintf("%d objects, Zipf(%g) popularity, horizon %.0f media lengths; increasing the delay keeps the server under any fixed channel budget without declining requests",
			cfg.Objects, cfg.ZipfExponent, cfg.Horizon),
	}, nil
}

// DyadicVsOptimalConfig parameterizes the dyadic-vs-exact-optimum check.
type DyadicVsOptimalConfig struct {
	// LambdaPcts are mean inter-arrival times as percentages of the media.
	LambdaPcts []float64
	// HorizonMedia is the horizon in media lengths (kept small because the
	// exact optimum is a quadratic dynamic program).
	HorizonMedia float64
	// Replications is the number of Poisson replications per point.
	Replications int
	// Seed seeds the generator.
	Seed int64
	// Workers sizes the worker pool over the (lambda, replication) grid
	// (0 means GOMAXPROCS, 1 means serial); seeds depend only on grid
	// coordinates so the output is identical for every worker count.
	Workers int
}

// DefaultDyadicVsOptimal returns the default sweep.
func DefaultDyadicVsOptimal() DyadicVsOptimalConfig {
	return DyadicVsOptimalConfig{
		LambdaPcts:   []float64{0.25, 0.5, 1, 2, 5},
		HorizonMedia: 2,
		Replications: 3,
		Seed:         23,
	}
}

// DyadicVsOptimal measures how far the dyadic on-line baseline is from the
// exact off-line optimum for general (Poisson) arrivals, using the
// general-arrivals dynamic program of internal/offline.  It contextualizes
// the Figs. 11-12 comparison: the dyadic curve there is itself within a
// modest factor of the unconstrained optimum.  Both costs are obtained
// through the public mod facade's "dyadic" and "offline" planners.
func DyadicVsOptimal(ctx context.Context, cfg DyadicVsOptimalConfig) (Result, error) {
	reps := cfg.Replications
	if reps < 1 {
		reps = 1
	}
	type cell struct {
		dy, opt, count float64
		skipped        bool
		err            error
	}
	grid := make([][]cell, len(cfg.LambdaPcts))
	for li := range grid {
		grid[li] = make([]cell, reps)
	}
	dyadicPlanner := mod.MustNew("dyadic", mod.WithMediaLength(1), mod.WithPoisson(true))
	optimalPlanner := mod.MustNew("offline", mod.WithMediaLength(1))
	forEachGridCell(ctx, len(cfg.LambdaPcts), reps, cfg.Workers, func(li, r int) {
		lp := cfg.LambdaPcts[li]
		lambda := lp / 100
		c := &grid[li][r]
		tr := arrivals.Poisson(lambda, cfg.HorizonMedia, cfg.Seed+int64(r)*37+int64(lp*100))
		if len(tr) < 2 {
			c.skipped = true
			return
		}
		inst := mod.Instance{Arrivals: tr, Horizon: cfg.HorizonMedia}
		dy, err := dyadicPlanner.Plan(ctx, inst)
		if err != nil {
			c.err = err
			return
		}
		opt, err := optimalPlanner.Plan(ctx, inst)
		if err != nil {
			c.err = err
			return
		}
		c.dy, c.opt, c.count = dy.Cost, opt.Cost, float64(len(tr))
	})
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("experiments: dyadic-vs-optimal sweep canceled: %w", err)
	}

	tab := textplot.NewTable("lambda_pct", "arrivals", "dyadic_streams", "optimal_streams", "ratio")
	var xs, ratios []float64
	for li, lp := range cfg.LambdaPcts {
		var dyCosts, optCosts, counts []float64
		for r := 0; r < reps; r++ {
			c := grid[li][r]
			if c.err != nil {
				return Result{}, c.err
			}
			if c.skipped {
				continue
			}
			dyCosts = append(dyCosts, c.dy)
			optCosts = append(optCosts, c.opt)
			counts = append(counts, c.count)
		}
		if len(dyCosts) == 0 {
			continue
		}
		dy := stats.Mean(dyCosts)
		opt := stats.Mean(optCosts)
		tab.AddRow(lp, stats.Mean(counts), dy, opt, dy/opt)
		xs = append(xs, lp)
		ratios = append(ratios, dy/opt)
	}
	return Result{
		ID:    "ext-dyadic-vs-optimal",
		Title: "Extension: dyadic on-line algorithm vs. the exact general-arrivals off-line optimum",
		Table: tab,
		Series: []textplot.Series{
			{Name: "dyadic / optimal", X: xs, Y: ratios},
		},
		Notes: fmt.Sprintf("Poisson arrivals over %.0f media lengths; the optimum is the interval dynamic program of Bar-Noy & Ladner [6]", cfg.HorizonMedia),
	}, nil
}
