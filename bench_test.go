package repro

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each invoking the same experiment generator that cmd/modexp
// uses, plus ablation benchmarks for the design choices called out in
// DESIGN.md.  Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks report, beyond time and allocations, the headline metric of
// the corresponding artifact via b.ReportMetric (e.g. the bandwidth ratio a
// figure plots), so a benchmark run doubles as a quick regeneration of the
// paper's numbers.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mergetree"
	"repro/internal/multiobject"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// BenchmarkFig1 regenerates Fig. 1 (bandwidth vs. guaranteed start-up
// delay) and reports the bandwidth at a 1% delay for both algorithms.
func BenchmarkFig1(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig1(experiments.DefaultFig1())
	}
	// Delay = 1% is the second sweep point.
	b.ReportMetric(res.Series[0].Y[1], "offline-streams@1%")
	b.ReportMetric(res.Series[1].Y[1], "online-streams@1%")
}

// BenchmarkTableM regenerates the M(n) table of Section 3.1.
func BenchmarkTableM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableM(16)
	}
	b.ReportMetric(float64(core.MergeCost(16)), "M(16)")
}

// BenchmarkTableMw regenerates the receive-all M_w(n) table of Section 3.4.
func BenchmarkTableMw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableMAll(16)
	}
	b.ReportMetric(float64(core.MergeCostAll(16)), "Mw(16)")
}

// BenchmarkTableI regenerates Fig. 8 (the I(n) intervals for n <= 55).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableI(55)
	}
	_, hi := core.LastMergeInterval(55)
	b.ReportMetric(float64(hi), "maxI(55)")
}

// BenchmarkFig6Fig7Trees regenerates the optimal trees of Figs. 6 and 7
// (all optimal trees for n=4 and the Fibonacci merge trees).
func BenchmarkFig6Fig7Trees(b *testing.B) {
	var count int
	for i := 0; i < b.N; i++ {
		opt, _ := mergetree.EnumerateOptimal(0, 4)
		count = len(opt)
		for _, n := range []int64{3, 5, 8, 13} {
			core.OptimalTree(n)
		}
	}
	b.ReportMetric(float64(count), "optimal-trees(n=4)")
}

// BenchmarkFig3Schedule regenerates the concrete schedule diagram of Fig. 3
// (L=15, n=8) including full verification.
func BenchmarkFig3Schedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := core.OptimalForest(15, 8)
		fs, err := schedule.Build(f)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fs.Verify(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(core.FullCost(15, 8)), "fullcost(15,8)")
}

// BenchmarkThm12Examples regenerates the Theorem 12 worked examples.
func BenchmarkThm12Examples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Theorem12Examples()
	}
	b.ReportMetric(float64(core.FullCost(4, 16)), "F(4,16)")
}

// BenchmarkThm14BatchingRatio regenerates the Theorem 14 comparison of
// batching vs. batching+merging.
func BenchmarkThm14BatchingRatio(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Theorem14(experiments.DefaultTheorem14())
	}
	b.ReportMetric(res.Series[0].Y[len(res.Series[0].Y)-1], "advantage@L=1024")
}

// BenchmarkThm19ReceiveAllRatio regenerates the receive-two vs. receive-all
// comparison of Theorems 19-20.
func BenchmarkThm19ReceiveAllRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ReceiveAllRatio([]int64{16, 256, 4096, 65536, 1 << 20}, 2000)
	}
	b.ReportMetric(core.ReceiveTwoAllRatio(1<<20), "M/Mw@n=2^20")
	b.ReportMetric(core.LogPhi2, "log_phi(2)")
}

// BenchmarkFig9OnlineRatio regenerates Fig. 9 (on-line / off-line ratio vs.
// time horizon).
func BenchmarkFig9OnlineRatio(b *testing.B) {
	cfg := experiments.DefaultFig9()
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig9(cfg)
	}
	last := res.Series[len(res.Series)-1]
	b.ReportMetric(last.Y[len(last.Y)-1], "ratio@L=200,n=100000")
}

// fig11BenchConfig is a reduced-horizon configuration so a single benchmark
// iteration stays in the tens of milliseconds; the full-size sweep is run by
// cmd/modexp.
func fig11BenchConfig() experiments.ComparisonConfig {
	return experiments.ComparisonConfig{
		DelayPct:     1.0,
		HorizonMedia: 25,
		LambdaPcts:   []float64{0.1, 0.5, 1.0, 2.0, 5.0},
		Replications: 1,
		Seed:         1,
	}
}

// BenchmarkFig11ConstantRate regenerates Fig. 11 (constant-rate arrivals).
func BenchmarkFig11ConstantRate(b *testing.B) {
	cfg := fig11BenchConfig()
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig11(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Series[0].Y[0], "imm-dyadic@0.1%")
	b.ReportMetric(res.Series[2].Y[0], "delay-guaranteed")
}

// BenchmarkFig12Poisson regenerates Fig. 12 (Poisson arrivals).
func BenchmarkFig12Poisson(b *testing.B) {
	cfg := fig11BenchConfig()
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig12(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Series[0].Y[len(res.Series[0].Y)-1], "imm-dyadic@5%")
	b.ReportMetric(res.Series[2].Y[0], "delay-guaranteed")
}

// BenchmarkAblationClosedFormVsDP quantifies the paper's O(n) improvement
// (Theorem 3 / Theorem 7) over the O(n^2) dynamic program of [6].
func BenchmarkAblationClosedFormVsDP(b *testing.B) {
	b.Run("closed-form-n=5000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MergeCostTable(5000)
		}
	})
	b.Run("dp-n=5000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MergeCostDP(5000)
		}
	})
	b.Run("linear-tree-n=5000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.OptimalTree(5000)
		}
	})
	b.Run("dp-tree-n=2000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.OptimalTreeDP(2000)
		}
	})
}

// BenchmarkAblationStreamCountSearch compares the Theorem 12 two-candidate
// optimal stream count against the naive scan.
func BenchmarkAblationStreamCountSearch(b *testing.B) {
	b.Run("theorem12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.OptimalStreamCount(500, 200000)
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.OptimalStreamCountBrute(500, 200000)
		}
	})
}

// BenchmarkAblationBufferTradeoff regenerates the Section 3.3 buffer-bound
// sweep.
func BenchmarkAblationBufferTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.BufferTradeoff(60, 600)
	}
}

// BenchmarkAblationOnlineTreeSize regenerates the static-tree-size ablation.
func BenchmarkAblationOnlineTreeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.OnlineTreeSizeAblation(100, 10000)
	}
}

// BenchmarkExtHybridServer regenerates the Section 5 hybrid-server
// extension experiment.
func BenchmarkExtHybridServer(b *testing.B) {
	cfg := experiments.DefaultHybrid()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HybridServer(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtMultiObjectPeak regenerates the Section 5 multi-object peak
// bandwidth extension experiment.
func BenchmarkExtMultiObjectPeak(b *testing.B) {
	cfg := experiments.DefaultMultiObject()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MultiObjectPeak(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtDyadicVsOptimal regenerates the dyadic-vs-exact-optimum
// extension experiment (general-arrivals DP of internal/offline).
func BenchmarkExtDyadicVsOptimal(b *testing.B) {
	cfg := experiments.DefaultDyadicVsOptimal()
	cfg.Replications = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DyadicVsOptimal(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSimulation measures the slot-accurate delivery simulator
// executing an on-line schedule.
func BenchmarkEndToEndSimulation(b *testing.B) {
	srv := online.NewServer(100)
	f := srv.Forest(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunForest(f)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stalls != 0 {
			b.Fatal("stalls in simulated schedule")
		}
	}
}

// BenchmarkSimLarge pits the indexed, parallel engine against the original
// slot-by-slot reference engine on a large on-line schedule (10^6
// client-slots: 10000 clients each playing a 100-slot media), so the speedup
// is measured rather than asserted.  The schedule is built once outside the
// timed region; both engines produce bit-identical results (see the
// equivalence tests in internal/sim).
func BenchmarkSimLarge(b *testing.B) {
	const (
		mediaSlots = 100
		horizon    = 10000
	)
	f := online.NewServer(mediaSlots).Forest(horizon)
	fs, err := schedule.Build(f)
	if err != nil {
		b.Fatal(err)
	}
	clientSlots := float64(len(fs.Programs)) * float64(mediaSlots)
	run := func(b *testing.B, engine func(*schedule.ForestSchedule) (*sim.Result, error)) {
		b.ReportAllocs()
		b.ReportMetric(clientSlots, "client-slots")
		for i := 0; i < b.N; i++ {
			res, err := engine(fs)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stalls != 0 {
				b.Fatal("stalls in simulated schedule")
			}
		}
	}
	b.Run("indexed", func(b *testing.B) { run(b, sim.RunSchedule) })
	b.Run("reference", func(b *testing.B) { run(b, sim.RunScheduleReference) })
}

// BenchmarkSimWorkload measures the multi-object workload driver: a Zipf
// catalog with Poisson arrival mixes simulated end to end on the indexed
// engine.
func BenchmarkSimWorkload(b *testing.B) {
	cfg := sim.WorkloadConfig{
		Catalog:          multiobject.ZipfCatalog(5, 1.0, 0.02, 1.0),
		Horizon:          5,
		MeanInterArrival: 0.02,
		Poisson:          true,
		Seed:             1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunWorkload(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stalls != 0 {
			b.Fatal("stalls in workload")
		}
	}
}

// BenchmarkOnlineCostClosed measures the closed-form on-line cost A(L,n)
// against the forest-materializing reference at a million-slot horizon.
// "cold" includes the server precomputation and the one-time memo fill;
// "hot" is the steady-state O(1) query the experiments pay.
func BenchmarkOnlineCostClosed(b *testing.B) {
	const (
		L = 100
		n = 1_000_000
	)
	b.Run("closed-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			online.NewServer(L).CostClosed(n)
		}
	})
	b.Run("closed-hot", func(b *testing.B) {
		srv := online.NewServer(L)
		srv.CostClosed(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.CostClosed(n)
		}
	})
	b.Run("forest-reference", func(b *testing.B) {
		srv := online.NewServer(L)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.Cost(n)
		}
	})
	srv := online.NewServer(L)
	if srv.CostClosed(n) != srv.Cost(n) {
		b.Fatal("closed form diverges from reference")
	}
}

// offlineBenchTimes builds a deterministic pseudo-random strictly-increasing
// arrival sequence for the offline DP benchmarks.
func offlineBenchTimes(n int) []float64 {
	times := make([]float64, n)
	t := 0.0
	state := uint64(12345)
	for i := range times {
		state = state*6364136223846793005 + 1442695040888963407
		t += 0.5 + float64(state>>40)/float64(1<<24)
		times[i] = t
	}
	return times
}

// BenchmarkOfflineDP pits the flattened (triangular, int32-split) interval
// DP against the [][]-based Knuth-accelerated reference at n=10000; both
// produce bit-identical tables (see internal/offline tests).  B/op shows the
// memory halving.
func BenchmarkOfflineDP(b *testing.B) {
	times := offlineBenchTimes(10000)
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := offline.ComputeTables(context.Background(), times, offline.ReceiveTwo, 0, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference-fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := offline.MergeCostTableFast(times, offline.ReceiveTwo); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOfflineForest measures the banded end-to-end optimum (the
// offline planner's path) at the raised arrival cap's scale: forest
// tables keep the footprint proportional to arrivals-per-window rather
// than n^2.  table-MB and cells/arrival are the stored tables' size.
func BenchmarkOfflineForest(b *testing.B) {
	const n = 10000
	times := offlineBenchTimes(n)
	// Window of ~200 arrivals.
	window := (times[n-1] - times[0]) / (n / 200)
	tab, err := offline.ComputeTables(context.Background(), times, offline.ReceiveTwo, window, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := offline.OptimalForest(context.Background(), times, window, offline.ReceiveTwo); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tab.MemoryBytes())/(1<<20), "table-MB")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n), "ns/arrival")
	b.ReportMetric(float64(tab.Cells())/n, "cells/arrival")
}

// activeStreamsPerSlot is the pre-refactor ActiveStreams: one increment per
// (stream, slot) pair, so it scales with the total stream length.
func activeStreamsPerSlot(f *mergetree.Forest, from, to int64) []int {
	if to <= from {
		return nil
	}
	counts := make([]int, to-from)
	for _, nl := range f.Lengths() {
		start, end := nl.Arrival, nl.Arrival+nl.Length
		if start < from {
			start = from
		}
		if end > to {
			end = to
		}
		for s := start; s < end; s++ {
			counts[s-from]++
		}
	}
	return counts
}

// BenchmarkActiveStreams compares the difference-array bandwidth profile
// against the per-slot reference on an on-line forest whose total stream
// length (~L x streams) dwarfs the queried range.
func BenchmarkActiveStreams(b *testing.B) {
	const (
		L       = 2000
		horizon = 100000
	)
	f := online.NewServer(L).Forest(horizon)
	want := activeStreamsPerSlot(f, 0, horizon)
	got := f.ActiveStreams(0, horizon)
	for i := range want {
		if got[i] != want[i] {
			b.Fatalf("difference-array profile diverges at slot %d", i)
		}
	}
	b.Run("diff-array", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.ActiveStreams(0, horizon)
		}
	})
	b.Run("per-slot-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			activeStreamsPerSlot(f, 0, horizon)
		}
	})
}

// BenchmarkComparisonSweepWorkers measures the Figs. 11-12 replication grid
// serial vs. pooled (bit-identical output; the speedup tracks the host's
// core count).
func BenchmarkComparisonSweepWorkers(b *testing.B) {
	cfg := fig11BenchConfig()
	cfg.Replications = 4
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "pooled"
		}
		b.Run(name, func(b *testing.B) {
			c := cfg
			c.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig12(context.Background(), c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
