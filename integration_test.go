package repro

// Cross-module integration tests: each test exercises a complete pipeline
// spanning several packages (algorithm -> schedule -> channel assignment ->
// slot-accurate simulation -> bandwidth accounting), the way the example
// programs and the experiment harness use the library.

import (
	"context"
	"math"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/dyadic"
	"repro/internal/experiments"
	"repro/internal/hybrid"
	"repro/internal/mergetree"
	"repro/internal/multiobject"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/policy"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// TestIntegrationOfflinePipeline runs the full off-line pipeline for the
// paper's running example and a larger instance: optimal forest ->
// broadcast schedule -> receiving programs -> channel assignment ->
// simulator, and checks that every layer agrees on the cost and that
// playback is uninterrupted.
func TestIntegrationOfflinePipeline(t *testing.T) {
	for _, c := range []struct{ L, n int64 }{{15, 8}, {120, 500}} {
		forest := core.OptimalForest(c.L, c.n)
		if err := forest.ValidateConsecutive(); err != nil {
			t.Fatalf("forest invalid: %v", err)
		}
		fs, err := schedule.Build(forest)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if _, err := fs.Verify(); err != nil {
			t.Fatalf("verify: %v", err)
		}
		channels := fs.AssignChannels()
		if err := fs.ValidateChannels(channels); err != nil {
			t.Fatalf("channels: %v", err)
		}
		res, err := sim.RunSchedule(fs)
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		if res.Stalls != 0 {
			t.Fatalf("L=%d n=%d: %d stalls", c.L, c.n, res.Stalls)
		}
		want := core.FullCost(c.L, c.n)
		if forest.FullCost() != want || fs.TotalBandwidth() != want || res.TotalBandwidth != want {
			t.Fatalf("cost disagreement: forest %d, schedule %d, sim %d, closed form %d",
				forest.FullCost(), fs.TotalBandwidth(), res.TotalBandwidth, want)
		}
		if len(channels) != fs.PeakBandwidth() || res.PeakBandwidth != fs.PeakBandwidth() {
			t.Fatalf("peak disagreement: channels %d, schedule %d, sim %d",
				len(channels), fs.PeakBandwidth(), res.PeakBandwidth)
		}
	}
}

// TestIntegrationOnlineVsOfflineEndToEnd verifies the on-line algorithm's
// competitive behaviour end to end: its simulated bandwidth stays within the
// Theorem 22 bound of the simulated off-line optimum.
func TestIntegrationOnlineVsOfflineEndToEnd(t *testing.T) {
	const L, n = 50, 2600 // n > L^2 + 2 so Theorem 22 applies
	onlineRes, err := sim.RunForest(online.NewServer(L).Forest(n))
	if err != nil {
		t.Fatal(err)
	}
	offlineRes, err := sim.RunForest(core.OptimalForest(L, n))
	if err != nil {
		t.Fatal(err)
	}
	if onlineRes.Stalls != 0 || offlineRes.Stalls != 0 {
		t.Fatalf("stalls in simulated schedules")
	}
	ratio := float64(onlineRes.TotalBandwidth) / float64(offlineRes.TotalBandwidth)
	if bound := online.TheoremBound(L, n); ratio > bound {
		t.Errorf("simulated ratio %.4f exceeds Theorem 22 bound %.4f", ratio, bound)
	}
	if ratio < 1 {
		t.Errorf("on-line beat the off-line optimum: %.4f", ratio)
	}
}

// TestIntegrationPolicyComparisonConsistency cross-checks the policy facade
// against the underlying packages on one trace.
func TestIntegrationPolicyComparisonConsistency(t *testing.T) {
	trace := arrivals.Poisson(0.004, 8, 42)
	const mediaLen, delay, horizon = 1.0, 0.01, 8.0
	costs, err := policy.Compare(context.Background(), policy.Standard(mediaLen, delay, true), trace, horizon)
	if err != nil {
		t.Fatal(err)
	}
	// Delay-guaranteed: must equal the online package's normalized cost.
	wantDG := online.NormalizedCost(100, 800)
	if math.Abs(costs["delay-guaranteed"]-wantDG) > 1e-9 {
		t.Errorf("policy facade DG cost %v != online package %v", costs["delay-guaranteed"], wantDG)
	}
	// Immediate dyadic: must equal the dyadic package's cost.
	wantDy, err := dyadic.TotalCost(trace, mediaLen, dyadic.GoldenPoisson())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(costs["immediate dyadic"]-wantDy) > 1e-9 {
		t.Errorf("policy facade dyadic cost %v != dyadic package %v", costs["immediate dyadic"], wantDy)
	}
	// Hybrid: must match the hybrid package.
	hres, err := hybrid.Run(trace, horizon, hybrid.DefaultConfig(mediaLen, delay))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(costs["hybrid"]-hres.TotalCost) > 1e-9 {
		t.Errorf("policy facade hybrid cost %v != hybrid package %v", costs["hybrid"], hres.TotalCost)
	}
}

// TestIntegrationGeneralArrivalsLowerBound checks, end to end, that the
// general-arrivals off-line optimum lower-bounds the on-line heuristics on a
// batched trace and that its forest verifies as a receive-two schedule after
// snapping to the slot grid.
func TestIntegrationGeneralArrivalsLowerBound(t *testing.T) {
	trace := arrivals.Poisson(0.02, 3, 5)
	const mediaLen, delay = 1.0, 0.02
	batched := trace.BatchTimes(delay)
	res, err := offline.OptimalForest(context.Background(), batched, mediaLen, offline.ReceiveTwo)
	if err != nil {
		t.Fatal(err)
	}
	dy, err := dyadic.TotalBatchedCost(trace, mediaLen, delay, dyadic.GoldenPoisson())
	if err != nil {
		t.Fatal(err)
	}
	if res.NormalizedCost() > dy+1e-9 {
		t.Errorf("exact optimum %v exceeds batched dyadic %v", res.NormalizedCost(), dy)
	}
	// Snap the batched (slot-end) times onto an integer slot grid and verify
	// the resulting integer forest delivers playback: the general optimum
	// over slot-aligned arrivals is a valid delay-guaranteed schedule.
	L := int64(math.Round(mediaLen / delay))
	intForest := mergetree.NewForest(L)
	for _, rt := range res.Forest.Trees {
		intForest.Add(snapTree(rt, delay))
	}
	if err := intForest.Validate(); err != nil {
		t.Fatalf("snapped forest invalid: %v", err)
	}
	fs, err := schedule.Build(intForest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Verify(); err != nil {
		t.Fatalf("snapped schedule verification failed: %v", err)
	}
}

func snapTree(rt *mergetree.RTree, delay float64) *mergetree.Tree {
	it := mergetree.New(int64(math.Round(rt.Arrival / delay)))
	for _, c := range rt.Children {
		it.AddChild(snapTree(c, delay))
	}
	return it
}

// TestIntegrationMultiObjectBudget exercises the Section 5 extension end to
// end: the catalog plan's aggregate busy time matches per-object on-line
// costs, and fitting a channel budget yields a plan whose peak respects it.
func TestIntegrationMultiObjectBudget(t *testing.T) {
	cat := multiobject.ZipfCatalog(6, 1, 0.02, 1)
	plan, err := multiobject.Build(cat, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check one object's stream count against the online package.
	want := online.NormalizedCost(50, 300)
	if math.Abs(plan.Objects[0].Streams-want) > 1e-9 {
		t.Errorf("object-01 streams %v != online cost %v", plan.Objects[0].Streams, want)
	}
	budget := plan.Peak * 3 / 4
	if budget < 1 {
		budget = 1
	}
	fit, err := multiobject.FitDelays(cat, 6, budget, 1.2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Plan.Peak > budget {
		t.Errorf("fitted peak %d exceeds budget %d", fit.Plan.Peak, budget)
	}
}

// TestIntegrationExperimentsAgainstPackages spot-checks the experiment
// harness against direct package calls so the recorded EXPERIMENTS.md values
// stay tied to the library.
func TestIntegrationExperimentsAgainstPackages(t *testing.T) {
	resM := experiments.TableM(16)
	if resM.Table.Rows[7][1] != "21" || core.MergeCost(8) != 21 {
		t.Errorf("experiment table and core package disagree on M(8)")
	}
	fig1 := experiments.Fig1(experiments.Fig1Config{DelayPercents: []float64{10}, HorizonMedia: 10})
	wantOffline := float64(core.FullCost(10, 100)) / 10
	if math.Abs(fig1.Series[0].Y[0]-wantOffline) > 1e-9 {
		t.Errorf("Fig. 1 experiment %v != direct computation %v", fig1.Series[0].Y[0], wantOffline)
	}
}
