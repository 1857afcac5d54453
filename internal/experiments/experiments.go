// Package experiments regenerates every table and figure of the paper's
// evaluation.  Each experiment returns a Result containing a data table (CSV
// and aligned-text renderable) and, where the paper plots a figure, chart
// series.  The per-experiment index lives in DESIGN.md; EXPERIMENTS.md
// records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/batching"
	"repro/internal/core"
	"repro/internal/fib"
	"repro/internal/online"
	"repro/internal/stats"
	"repro/internal/textplot"
	"repro/mod"
)

// Result is the output of one experiment.
type Result struct {
	// ID is the experiment identifier used in DESIGN.md (e.g. "fig1").
	ID string
	// Title is a human-readable description.
	Title string
	// Table holds the raw rows.
	Table *textplot.Table
	// Series holds chartable series when the paper artifact is a figure.
	Series []textplot.Series
	// Notes records parameter choices and interpretation hints.
	Notes string
}

// Fig1Config parameterizes the bandwidth-vs-delay illustration of Fig. 1.
type Fig1Config struct {
	// DelayPercents are the guaranteed start-up delays as percentages of the
	// media length (the x-axis of Fig. 1).
	DelayPercents []float64
	// HorizonMedia is the length of the simulated time horizon in units of
	// the media length.
	HorizonMedia float64
}

// DefaultFig1 returns the sweep used to regenerate Fig. 1.
func DefaultFig1() Fig1Config {
	return Fig1Config{
		DelayPercents: []float64{0.5, 1, 2, 3, 4, 5, 7.5, 10, 12.5, 15, 17.5, 20},
		HorizonMedia:  10,
	}
}

// Fig1 regenerates Fig. 1: the total server bandwidth (in complete media
// streams) of the optimal off-line and the on-line delay-guaranteed
// algorithms as a function of the guaranteed start-up delay.
func Fig1(cfg Fig1Config) Result {
	tab := textplot.NewTable("delay_pct", "L_slots", "n_slots", "offline_streams", "online_streams", "batching_streams")
	var xs, offline, onlineSeries []float64
	for _, pct := range cfg.DelayPercents {
		L := int64(math.Round(100 / pct))
		if L < 1 {
			L = 1
		}
		n := int64(math.Round(cfg.HorizonMedia * float64(L)))
		if n < 1 {
			n = 1
		}
		off := float64(core.FullCost(L, n)) / float64(L)
		onl := online.NormalizedCost(L, n)
		bat := float64(batching.DelayGuaranteedCost(L, n)) / float64(L)
		tab.AddRow(pct, L, n, off, onl, bat)
		xs = append(xs, pct)
		offline = append(offline, off)
		onlineSeries = append(onlineSeries, onl)
	}
	return Result{
		ID:    "fig1",
		Title: "Fig. 1: bandwidth savings vs. guaranteed start-up delay",
		Table: tab,
		Series: []textplot.Series{
			{Name: "offline-optimal", X: xs, Y: offline},
			{Name: "online", X: xs, Y: onlineSeries},
		},
		Notes: fmt.Sprintf("horizon = %.0f media lengths; one stream scheduled per slot; bandwidth in complete media streams", cfg.HorizonMedia),
	}
}

// TableM regenerates the M(n) table of Section 3.1 (closed form, the O(n^2)
// DP cross-check, and the Theorem 8 bounds).
func TableM(maxN int) Result {
	tab := textplot.NewTable("n", "M(n)", "M_dp(n)", "lower_bound", "upper_bound")
	dp := core.MergeCostDP(maxN)
	for n := 1; n <= maxN; n++ {
		tab.AddRow(n, core.MergeCost(int64(n)), dp[n],
			core.MergeCostLowerBound(int64(n)), core.MergeCostUpperBound(int64(n)))
	}
	return Result{
		ID:    "table-m",
		Title: "Section 3.1: optimal merge cost M(n)",
		Table: tab,
		Notes: "closed form (Eq. 6) cross-checked against the O(n^2) dynamic program (Eq. 5)",
	}
}

// TableMAll regenerates the receive-all merge cost table of Section 3.4.
func TableMAll(maxN int) Result {
	tab := textplot.NewTable("n", "Mw(n)", "Mw_dp(n)", "M(n)/Mw(n)")
	dp := core.MergeCostAllDP(maxN)
	for n := 1; n <= maxN; n++ {
		ratio := 1.0
		if dp[n] > 0 {
			ratio = float64(core.MergeCost(int64(n))) / float64(dp[n])
		}
		tab.AddRow(n, core.MergeCostAll(int64(n)), dp[n], ratio)
	}
	return Result{
		ID:    "table-mw",
		Title: "Section 3.4: receive-all merge cost Mw(n)",
		Table: tab,
		Notes: "closed form (Eq. 20) cross-checked against the DP (Eq. 19); the ratio tends to log_phi 2 ~ 1.44 (Theorem 19)",
	}
}

// TableI regenerates Fig. 8: the interval I(n) of arrivals that can be the
// last merge to the root of an optimal tree, for 2 <= n <= maxN.
func TableI(maxN int64) Result {
	tab := textplot.NewTable("n", "I_lo", "I_hi", "size")
	for n := int64(2); n <= maxN; n++ {
		lo, hi := core.LastMergeInterval(n)
		tab.AddRow(n, lo, hi, hi-lo+1)
	}
	return Result{
		ID:    "fig8",
		Title: "Fig. 8: the interval I(n) of optimal last merges",
		Table: tab,
		Notes: "I(n) follows the Theorem 3 characterization; singletons occur exactly at Fibonacci n",
	}
}

// Theorem12Examples regenerates the worked examples of Section 3.2.
func Theorem12Examples() Result {
	tab := textplot.NewTable("L", "n", "s0", "s1", "F(L,n,s0)", "F(L,n,s1)", "F(L,n,s1+1)", "F(L,n)", "optimal_s")
	for _, c := range []struct{ L, n int64 }{{15, 8}, {15, 14}, {4, 16}, {1, 10}, {2, 9}} {
		s0 := core.MinStreams(c.L, c.n)
		h := fib.IndexForLength(c.L)
		s1 := c.n / fib.F(h)
		cost := func(s int64) interface{} {
			if s < s0 || s > c.n {
				return "-"
			}
			return core.FullCostWithStreams(c.L, c.n, s)
		}
		tab.AddRow(c.L, c.n, s0, s1, cost(s0), cost(s1), cost(s1+1), core.FullCost(c.L, c.n), core.OptimalStreamCount(c.L, c.n))
	}
	return Result{
		ID:    "thm12",
		Title: "Theorem 12: optimal number of full streams (worked examples)",
		Table: tab,
		Notes: "includes the paper's examples L=15,n=8 (cost 36), L=15,n=14 (cost 64), and L=4,n=16 (cost 38)",
	}
}

// Theorem14Config parameterizes the batching-vs-merging comparison.
type Theorem14Config struct {
	// Ls are the media lengths (in slots) to sweep.
	Ls []int64
	// HorizonFactor sets n = HorizonFactor * L.
	HorizonFactor int64
}

// DefaultTheorem14 returns the default sweep.
func DefaultTheorem14() Theorem14Config {
	return Theorem14Config{Ls: []int64{4, 8, 16, 32, 64, 128, 256, 512, 1024}, HorizonFactor: 20}
}

// Theorem14 measures the Theta(L/log L) advantage of stream merging over
// pure batching in the delay-guaranteed setting.
func Theorem14(cfg Theorem14Config) Result {
	tab := textplot.NewTable("L", "n", "batching", "merging", "advantage", "L/log_phi(L)")
	var xs, adv, ref []float64
	for _, L := range cfg.Ls {
		n := cfg.HorizonFactor * L
		b := batching.DelayGuaranteedCost(L, n)
		m := core.FullCost(L, n)
		a := float64(b) / float64(m)
		tab.AddRow(L, n, b, m, a, float64(L)/fib.LogPhi(float64(L)))
		xs = append(xs, float64(L))
		adv = append(adv, a)
		ref = append(ref, float64(L)/fib.LogPhi(float64(L)))
	}
	return Result{
		ID:    "thm14",
		Title: "Theorem 14: batching vs. batching+merging advantage",
		Table: tab,
		Series: []textplot.Series{
			{Name: "measured advantage", X: xs, Y: adv},
			{Name: "L/log_phi(L)", X: xs, Y: ref},
		},
		Notes: "the measured advantage nL / F(L,n) tracks Theta(L / log L)",
	}
}

// ReceiveAllRatio regenerates the Theorems 19/20 comparison between the
// receive-two and receive-all models.
func ReceiveAllRatio(ns []int64, L int64) Result {
	tab := textplot.NewTable("n", "M(n)/Mw(n)", "F(L,n)/Fw(L,n)", "log_phi(2)")
	for _, n := range ns {
		tab.AddRow(n, core.ReceiveTwoAllRatio(n), core.FullCostTwoAllRatio(L, n), core.LogPhi2)
	}
	return Result{
		ID:    "thm19",
		Title: "Theorems 19-20: receive-two vs. receive-all",
		Table: tab,
		Notes: fmt.Sprintf("full-cost ratio computed for L = %d; both ratios tend to log_phi 2 ~ %.4f", L, core.LogPhi2),
	}
}

// Fig9Config parameterizes the on-line vs. off-line ratio plot.
type Fig9Config struct {
	// Ls are the media lengths (in slots of the start-up delay) to plot.
	Ls []int64
	// Horizons are the time-horizon sizes n (number of slots).
	Horizons []int64
}

// DefaultFig9 returns the default sweep.
func DefaultFig9() Fig9Config {
	return Fig9Config{
		Ls:       []int64{20, 50, 100, 200},
		Horizons: []int64{100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000},
	}
}

// Fig9 regenerates Fig. 9: the ratio of the on-line delay-guaranteed cost to
// the optimal off-line cost as the time horizon grows.
func Fig9(cfg Fig9Config) Result {
	headers := []string{"n"}
	for _, L := range cfg.Ls {
		headers = append(headers, fmt.Sprintf("ratio_L=%d", L))
	}
	tab := textplot.NewTable(headers...)
	series := make([]textplot.Series, len(cfg.Ls))
	for i, L := range cfg.Ls {
		series[i].Name = fmt.Sprintf("L=%d", L)
	}
	servers := make([]*online.Server, len(cfg.Ls))
	for i, L := range cfg.Ls {
		servers[i] = online.NewServer(L)
	}
	for _, n := range cfg.Horizons {
		row := []interface{}{n}
		for i, L := range cfg.Ls {
			ratio := float64(servers[i].CostClosed(n)) / float64(core.FullCost(L, n))
			row = append(row, ratio)
			series[i].X = append(series[i].X, float64(n))
			series[i].Y = append(series[i].Y, ratio)
		}
		tab.AddRow(row...)
	}
	return Result{
		ID:     "fig9",
		Title:  "Fig. 9: on-line / optimal off-line bandwidth ratio vs. time horizon",
		Table:  tab,
		Series: series,
		Notes:  "Theorem 22 bounds the ratio by 1 + 2L/n; it tends to 1 as n grows",
	}
}

// ComparisonConfig parameterizes the Figs. 11-12 comparison of the on-line
// delay-guaranteed algorithm with the dyadic baselines.
type ComparisonConfig struct {
	// DelayPct is the guaranteed start-up delay as a percentage of the media
	// length (the paper uses 1%).
	DelayPct float64
	// HorizonMedia is the simulated time horizon in media lengths (100).
	HorizonMedia float64
	// LambdaPcts are the mean inter-arrival times as percentages of the
	// media length (the x-axis, from near 0 to 5%).
	LambdaPcts []float64
	// Replications is the number of random replications per point (Poisson
	// arrivals only).
	Replications int
	// Seed seeds the Poisson generator.
	Seed int64
	// Workers is the size of the worker pool the (lambda, replication) grid
	// is spread across: 0 means GOMAXPROCS, 1 means serial.  Each
	// replication derives its seed from (lambda, replication index) alone,
	// never from scheduling order, so the resulting series are bit-identical
	// to a serial run for every worker count.
	Workers int
}

// DefaultComparison returns the configuration matching Section 4.2.
func DefaultComparison() ComparisonConfig {
	return ComparisonConfig{
		DelayPct:     1.0,
		HorizonMedia: 100,
		LambdaPcts:   []float64{0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0},
		Replications: 3,
		Seed:         1,
	}
}

// Fig11 regenerates Fig. 11: constant-rate arrivals, delay fixed at
// cfg.DelayPct of the media length, comparing immediate-service dyadic,
// batched dyadic, and the delay-guaranteed on-line algorithm.
func Fig11(ctx context.Context, cfg ComparisonConfig) (Result, error) {
	return comparisonFigure(ctx, cfg, false)
}

// Fig12 regenerates Fig. 12: the same comparison with Poisson arrivals.
func Fig12(ctx context.Context, cfg ComparisonConfig) (Result, error) {
	return comparisonFigure(ctx, cfg, true)
}

// comparisonFigure obtains its per-trace algorithm costs exclusively
// through the public mod facade — the same planners any downstream user
// gets from mod.New — so the published figures are, by construction, what
// the public API produces.  The facade planners call the dyadic package
// directly with no arithmetic of their own, which keeps the sweep
// bit-identical to the historical direct-call implementation.
func comparisonFigure(ctx context.Context, cfg ComparisonConfig, poisson bool) (Result, error) {
	delay := cfg.DelayPct / 100.0
	horizonSlots := int64(math.Round(cfg.HorizonMedia / delay))
	slotsPerMedia := int64(math.Round(1 / delay))
	// The delay-guaranteed algorithm starts a stream every slot regardless
	// of arrivals, so its bandwidth is independent of lambda.
	dgStreams := online.NormalizedCost(slotsPerMedia, horizonSlots)

	arrivalKind := "constant-rate"
	if poisson {
		arrivalKind = "Poisson"
	}
	planOpts := []mod.Option{mod.WithMediaLength(1), mod.WithDelay(delay), mod.WithPoisson(poisson)}
	immediate := mod.MustNew("dyadic", planOpts...)
	batched := mod.MustNew("dyadic-batched", planOpts...)

	reps := 1
	if poisson {
		reps = cfg.Replications
		if reps < 1 {
			reps = 1
		}
	}
	// Fan the (lambda, replication) grid across a worker pool.  Every cell
	// is seeded by its grid coordinates, so the per-cell results — and the
	// in-order reduction below — are bit-identical to a serial sweep.
	type cell struct {
		imm, bat float64
		err      error
	}
	grid := make([][]cell, len(cfg.LambdaPcts))
	for li := range grid {
		grid[li] = make([]cell, reps)
	}
	runCell := func(li, r int) {
		lp := cfg.LambdaPcts[li]
		lambda := lp / 100.0
		var tr []float64
		if poisson {
			tr = mod.Poisson(lambda, cfg.HorizonMedia, cfg.Seed+int64(r)*101+int64(lp*1000))
		} else {
			tr = mod.Constant(lambda, cfg.HorizonMedia)
		}
		c := &grid[li][r]
		inst := mod.Instance{Arrivals: tr, Horizon: cfg.HorizonMedia}
		immPlan, err := immediate.Plan(ctx, inst)
		if err != nil {
			c.err = err
			return
		}
		batPlan, err := batched.Plan(ctx, inst)
		if err != nil {
			c.err = err
			return
		}
		c.imm, c.bat = immPlan.Cost, batPlan.Cost
	}
	forEachGridCell(ctx, len(cfg.LambdaPcts), reps, cfg.Workers, runCell)
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("experiments: %s sweep canceled: %w", arrivalKind, err)
	}

	tab := textplot.NewTable("lambda_pct", "immediate_dyadic", "batched_dyadic", "delay_guaranteed")
	var xs, immS, batS, dgS []float64
	for li, lp := range cfg.LambdaPcts {
		imms := make([]float64, 0, reps)
		bats := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			if err := grid[li][r].err; err != nil {
				return Result{}, err
			}
			imms = append(imms, grid[li][r].imm)
			bats = append(bats, grid[li][r].bat)
		}
		imm := stats.Mean(imms)
		bat := stats.Mean(bats)
		tab.AddRow(lp, imm, bat, dgStreams)
		xs = append(xs, lp)
		immS = append(immS, imm)
		batS = append(batS, bat)
		dgS = append(dgS, dgStreams)
	}
	id, figno := "fig11", "Fig. 11"
	if poisson {
		id, figno = "fig12", "Fig. 12"
	}
	return Result{
		ID:    id,
		Title: fmt.Sprintf("%s: immediate dyadic vs. batched dyadic vs. delay-guaranteed (%s arrivals)", figno, arrivalKind),
		Table: tab,
		Series: []textplot.Series{
			{Name: "immediate dyadic", X: xs, Y: immS},
			{Name: "batched dyadic", X: xs, Y: batS},
			{Name: "delay guaranteed", X: xs, Y: dgS},
		},
		Notes: fmt.Sprintf("delay = %.2f%% of media length, horizon = %.0f media lengths, %s arrivals; bandwidth in complete media streams",
			cfg.DelayPct, cfg.HorizonMedia, arrivalKind),
	}, nil
}

// BufferTradeoff sweeps the client buffer bound B of Section 3.3 for a fixed
// media length and horizon, reporting how the optimal full cost rises as the
// buffer shrinks below L/2 (there is no figure for this in the paper, but it
// is the natural ablation of Theorem 16).
func BufferTradeoff(L, n int64) Result {
	tab := textplot.NewTable("B_slots", "B_over_L", "streams", "full_cost", "vs_unbounded")
	unbounded := core.FullCost(L, n)
	var xs, ys []float64
	for B := int64(1); B <= core.MaxUsefulBuffer(L); B++ {
		c := core.FullCostBuffered(L, B, n)
		s := core.OptimalStreamCountBuffered(L, B, n)
		tab.AddRow(B, float64(B)/float64(L), s, c, float64(c)/float64(unbounded))
		xs = append(xs, float64(B))
		ys = append(ys, float64(c)/float64(unbounded))
	}
	return Result{
		ID:    "buffer-tradeoff",
		Title: fmt.Sprintf("Section 3.3: full cost vs. client buffer bound (L=%d, n=%d)", L, n),
		Table: tab,
		Series: []textplot.Series{
			{Name: "cost vs unbounded", X: xs, Y: ys},
		},
		Notes: "buffers of L/2 slots are as good as unbounded (Lemma 15); smaller buffers force more full streams",
	}
}

// OnlineTreeSizeAblation compares the on-line algorithm's static tree size
// F_h (the paper's choice) against alternative static tree sizes, measuring
// the resulting total bandwidth for a fixed L and horizon.  This is the
// ablation called out in DESIGN.md for the Section 4.1 design choice.
func OnlineTreeSizeAblation(L, n int64) Result {
	h := fib.IndexForLength(L)
	candidates := []struct {
		name string
		size int64
	}{
		{"F_{h-1}", fib.F(h - 1)},
		{"F_h (paper)", fib.F(h)},
		{"F_{h+1}", fib.F(h + 1)},
		{"L/2", L / 2},
		{"L", L},
	}
	tab := textplot.NewTable("tree_size_rule", "tree_size", "total_cost", "normalized", "vs_optimal")
	opt := core.FullCost(L, n)
	for _, c := range candidates {
		size := c.size
		if size < 1 {
			size = 1
		}
		if size > L {
			size = L
		}
		cost := staticTreeCost(L, n, size)
		tab.AddRow(c.name, size, cost, float64(cost)/float64(L), float64(cost)/float64(opt))
	}
	return Result{
		ID:    "online-treesize",
		Title: fmt.Sprintf("Ablation: static tree size for the on-line algorithm (L=%d, n=%d)", L, n),
		Table: tab,
		Notes: "the paper's F_h choice should (near-)minimize cost among static sizes",
	}
}

// staticTreeCost is the total bandwidth of the on-line strategy that starts
// a full stream every `size` slots and uses the optimal merge tree for each
// group (the generalization of the on-line algorithm to arbitrary static
// tree sizes).
func staticTreeCost(L, n, size int64) int64 {
	var cost int64
	for start := int64(0); start < n; start += size {
		m := size
		if n-start < m {
			m = n - start
		}
		cost += L + core.MergeCost(m)
	}
	return cost
}

// AllWithWorkers runs every experiment, spreading the replication grids of
// the Figs. 11-12 sweeps, the dyadic-vs-optimal extension, and the workload
// simulation across `workers` goroutines (0 means GOMAXPROCS, 1 means
// serial).  Per-replication seeds depend only on grid coordinates, so the
// output is bit-identical for every worker count.  Cancelling ctx aborts
// the sweep in flight with an error wrapping ctx.Err().
func AllWithWorkers(ctx context.Context, workers int) ([]Result, error) {
	out := []Result{
		Fig1(DefaultFig1()),
		TableM(16),
		TableMAll(16),
		TableI(55),
		Theorem12Examples(),
		Theorem14(DefaultTheorem14()),
		ReceiveAllRatio([]int64{16, 256, 4096, 65536, 1 << 20}, 2000),
		Fig9(DefaultFig9()),
		OnlineTreeSizeAblation(100, 10000),
		BufferTradeoff(60, 600),
	}
	cmp := DefaultComparison()
	cmp.Workers = workers
	f11, err := Fig11(ctx, cmp)
	if err != nil {
		return nil, err
	}
	f12, err := Fig12(ctx, cmp)
	if err != nil {
		return nil, err
	}
	out = append(out, f11, f12)
	ext1, err := HybridServer(DefaultHybrid())
	if err != nil {
		return nil, err
	}
	ext2, err := MultiObjectPeak(DefaultMultiObject())
	if err != nil {
		return nil, err
	}
	dvo := DefaultDyadicVsOptimal()
	dvo.Workers = workers
	ext3, err := DyadicVsOptimal(ctx, dvo)
	if err != nil {
		return nil, err
	}
	wl := DefaultWorkloadSim()
	wl.Workers = workers
	ext4, err := MultiObjectSim(ctx, wl)
	if err != nil {
		return nil, err
	}
	ext5, err := LiveVsBatch(ctx, DefaultLiveVsBatch())
	if err != nil {
		return nil, err
	}
	out = append(out, ext1, ext2, ext3, ext4, ext5)
	return out, nil
}
