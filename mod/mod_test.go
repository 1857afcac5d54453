package mod_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/arrivals"
	"repro/internal/batching"
	"repro/internal/dyadic"
	"repro/internal/hybrid"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/mod"
)

// TestPlannersMatchAlgorithms pins every built-in planner to the algorithm
// it calls: Plan must return exactly the cost of the direct call
// (bit-identical — the facade adds no arithmetic).
func TestPlannersMatchAlgorithms(t *testing.T) {
	ctx := context.Background()
	trace := arrivals.Poisson(0.004, 10, 42)
	inst := mod.Instance{Arrivals: trace, Horizon: 10}
	const delay = 0.01
	clipped := trace.Clip(10)
	optimum := func(times []float64) (float64, error) {
		f, err := offline.OptimalForest(ctx, times, 1, offline.ReceiveTwo)
		if err != nil {
			return 0, err
		}
		return f.NormalizedCost(), nil
	}
	direct := map[string]func() (float64, error){
		// The on-line cost depends on the horizon alone.
		"online":          func() (float64, error) { return online.NormalizedCost(100, 1000), nil },
		"offline":         func() (float64, error) { return optimum(clipped) },
		"offline-batched": func() (float64, error) { return optimum(clipped.BatchTimes(delay)) },
		"dyadic":          func() (float64, error) { return dyadic.TotalCost(clipped, 1, dyadic.GoldenPoisson()) },
		"dyadic-batched": func() (float64, error) {
			return dyadic.TotalBatchedCost(clipped, 1, delay, dyadic.GoldenPoisson())
		},
		"batching": func() (float64, error) { return batching.BatchedCost(clipped, delay), nil },
		"hybrid": func() (float64, error) {
			res, err := hybrid.Run(clipped, 10, 1, delay)
			if err != nil {
				return 0, err
			}
			return res.TotalCost, nil
		},
		"unicast": func() (float64, error) { return batching.ImmediateUnicastCost(clipped), nil },
	}
	if len(direct) != len(mod.Planners()) {
		t.Fatalf("%d direct calls for %d planners", len(direct), len(mod.Planners()))
	}
	for name, call := range direct {
		want, err := call()
		if err != nil {
			t.Fatalf("%s direct call: %v", name, err)
		}
		plan, err := mod.MustNew(name, mod.WithDelay(delay)).Plan(ctx, inst)
		if err != nil {
			t.Fatalf("planner %s: %v", name, err)
		}
		if plan.Cost != want {
			t.Errorf("planner %s cost = %v, want the direct call's %v (must be bit-identical)", name, plan.Cost, want)
		}
		if plan.Planner != name || plan.Horizon != 10 || plan.Arrivals != len(trace) {
			t.Errorf("planner %s plan metadata = %+v", name, plan)
		}
	}
}

// TestOnlineMatchesOnlinePackage: the online planner costs exactly
// online.NormalizedCost for the horizon's slots, on an empty trace and on
// a dense one alike (the delay-guaranteed cost is trace-independent).
func TestOnlineMatchesOnlinePackage(t *testing.T) {
	ctx := context.Background()
	want := online.NormalizedCost(100, 1000)
	p := mod.MustNew("online", mod.WithDelay(0.01))
	for _, trace := range []arrivals.Trace{{}, arrivals.Poisson(0.001, 10, 1)} {
		plan, err := p.Plan(ctx, mod.Instance{Arrivals: trace, Horizon: 10})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Cost != want {
			t.Errorf("online on %d arrivals = %v, want the trace-independent %v", len(trace), plan.Cost, want)
		}
	}
}

// TestOfflineEmptyTrace: the off-line optimum of no arrivals is no stream.
func TestOfflineEmptyTrace(t *testing.T) {
	plan, err := mod.MustNew("offline").Plan(context.Background(), mod.Instance{Horizon: 5})
	if err != nil || plan.Cost != 0 {
		t.Errorf("offline on an empty trace = %v, %v; want 0", plan.Cost, err)
	}
}

// TestHybridAux checks the hybrid planner reports its mode timeline
// through Plan.Aux.
func TestHybridAux(t *testing.T) {
	trace := arrivals.Poisson(0.05, 10, 7)
	plan, err := mod.MustNew("hybrid").Plan(context.Background(), mod.Instance{Arrivals: trace, Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"loaded_fraction", "pure_delay_guaranteed", "pure_dyadic"} {
		if _, ok := plan.Aux[key]; !ok {
			t.Errorf("hybrid Aux missing %q: %v", key, plan.Aux)
		}
	}
	if f := plan.Aux["loaded_fraction"]; f < 0 || f > 1 {
		t.Errorf("loaded_fraction = %v, want [0,1]", f)
	}
}

// TestOptionPrecedence: Plan-time options override New-time options.
func TestOptionPrecedence(t *testing.T) {
	ctx := context.Background()
	inst := mod.Instance{Horizon: 10}
	p := mod.MustNew("online", mod.WithDelay(0.01))
	coarse, err := p.Plan(ctx, inst, mod.WithDelay(0.1))
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Plan(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Cost >= base.Cost {
		t.Errorf("10%% delay cost %v should be under 1%% delay cost %v", coarse.Cost, base.Cost)
	}
	// WithHorizon overrides the instance horizon.
	doubled, err := p.Plan(ctx, inst, mod.WithHorizon(20))
	if err != nil {
		t.Fatal(err)
	}
	if doubled.Horizon != 20 || doubled.Cost <= base.Cost {
		t.Errorf("WithHorizon(20): plan %+v, want doubled horizon and higher cost than %v", doubled, base.Cost)
	}
}

// TestSentinelErrorsThroughFacade: every documented sentinel classifies
// failures through the full stack with errors.Is.
func TestSentinelErrorsThroughFacade(t *testing.T) {
	ctx := context.Background()

	if _, err := mod.MustNew("online").Plan(ctx, mod.Instance{Arrivals: []float64{3, 1}, Horizon: 10}); !errors.Is(err, mod.ErrBadInstance) {
		t.Errorf("unsorted trace error %v, want ErrBadInstance", err)
	}
	if _, err := mod.MustNew("online").Plan(ctx, mod.Instance{}); !errors.Is(err, mod.ErrBadInstance) {
		t.Errorf("missing horizon error %v, want ErrBadInstance", err)
	}
	if _, err := mod.MustNew("offline", mod.WithMaxArrivals(2)).Plan(ctx,
		mod.Instance{Arrivals: []float64{0.1, 0.2, 0.3}, Horizon: 1}); !errors.Is(err, mod.ErrInstanceTooLarge) {
		t.Errorf("arrival-cap error %v, want ErrInstanceTooLarge", err)
	}
	if _, err := mod.MustNew("offline", mod.WithMemoryBudget(1)).Plan(ctx,
		mod.Instance{Arrivals: mod.Constant(0.01, 5), Horizon: 5}); !errors.Is(err, mod.ErrInstanceTooLarge) {
		t.Errorf("memory-budget error %v, want ErrInstanceTooLarge", err)
	}
	// Unicast on a dense trace: ~2500 streams over 10 time units = ~250
	// average channels, far over a cap of 3.
	if _, err := mod.MustNew("unicast", mod.WithChannelCap(3)).Plan(ctx,
		mod.Instance{Arrivals: mod.Constant(0.004, 10), Horizon: 10}); !errors.Is(err, mod.ErrCapacity) {
		t.Errorf("channel-cap error %v, want ErrCapacity", err)
	}
	// FitDelays budget failures classify the same way.
	if _, err := mod.FitDelays(mod.ZipfCatalog(5, 1, 0.01, 1), 10, 1, 2, 2); !errors.Is(err, mod.ErrCapacity) {
		t.Errorf("FitDelays error %v, want ErrCapacity", err)
	}
	// Non-finite instance parameters are refused by every planner before
	// any planning starts.
	arr := []float64{0.1, 0.2, 0.3}
	nonFinite := []struct {
		name string
		inst mod.Instance
		opt  mod.Option
	}{
		{"horizon NaN", mod.Instance{Arrivals: arr, Horizon: math.NaN()}, nil},
		{"horizon +Inf", mod.Instance{Arrivals: arr, Horizon: math.Inf(1)}, nil},
		{"delay NaN", mod.Instance{Arrivals: arr, Horizon: 1}, mod.WithDelay(math.NaN())},
		{"delay +Inf", mod.Instance{Arrivals: arr, Horizon: 1}, mod.WithDelay(math.Inf(1))},
		{"media length NaN", mod.Instance{Arrivals: arr, Horizon: 1}, mod.WithMediaLength(math.NaN())},
		{"media length +Inf", mod.Instance{Arrivals: arr, Horizon: 1}, mod.WithMediaLength(math.Inf(1))},
	}
	for _, name := range mod.Planners() {
		for _, c := range nonFinite {
			if _, err := mod.MustNew(name).Plan(ctx, c.inst, c.opt); !errors.Is(err, mod.ErrBadInstance) {
				t.Errorf("%s with %s: error %v, want ErrBadInstance", name, c.name, err)
			}
		}
	}
	if _, err := mod.Compare(ctx, mod.Planners(), mod.Instance{Arrivals: arr, Horizon: 1}, mod.WithDelay(math.NaN())); !errors.Is(err, mod.ErrBadInstance) {
		t.Errorf("Compare with delay NaN: error %v, want ErrBadInstance", err)
	}
}

// TestPlanCancellation: a canceled context surfaces as ErrCanceled (and
// context.Canceled) through the facade, both pre-canceled and mid-DP.
func TestPlanCancellation(t *testing.T) {
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mod.MustNew("online").Plan(pre, mod.Instance{Horizon: 10}); !errors.Is(err, mod.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled Plan error %v, want ErrCanceled wrapping context.Canceled", err)
	}

	// Mid-flight: the offline DP on a 40k-arrival trace runs far longer
	// than the cancellation latency.
	ctx, cancelMid := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := mod.MustNew("offline", mod.WithMaxArrivals(100000)).Plan(ctx,
			mod.Instance{Arrivals: mod.Constant(100.0/40000, 100), Horizon: 100})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancelMid()
	select {
	case err := <-errc:
		if !errors.Is(err, mod.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("mid-DP Plan error %v, want ErrCanceled wrapping context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Plan did not return after cancel")
	}
}

// TestCompareMatchesPlan: Compare's costs are keyed by registry name and
// identical to per-planner Plan calls; cancellation aborts it.
func TestCompareMatchesPlan(t *testing.T) {
	ctx := context.Background()
	trace := arrivals.Poisson(0.01, 5, 3)
	inst := mod.Instance{Arrivals: trace, Horizon: 5}
	opts := []mod.Option{mod.WithDelay(0.01), mod.WithPoisson(true)}

	costs, err := mod.Compare(ctx, mod.StandardNames(), inst, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != len(mod.StandardNames()) {
		t.Fatalf("Compare returned %d costs for %d names", len(costs), len(mod.StandardNames()))
	}
	for _, name := range mod.StandardNames() {
		plan, err := mod.MustNew(name, opts...).Plan(ctx, inst)
		if err != nil {
			t.Fatalf("planner %s: %v", name, err)
		}
		if costs[name] != plan.Cost {
			t.Errorf("Compare[%s] = %v, Plan = %v (must be bit-identical)", name, costs[name], plan.Cost)
		}
	}

	if _, err := mod.Compare(ctx, []string{"online", "nope"}, inst); !errors.Is(err, mod.ErrUnknownPlanner) {
		t.Errorf("Compare with unknown name error %v, want ErrUnknownPlanner", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := mod.Compare(canceled, mod.StandardNames(), inst); !errors.Is(err, mod.ErrCanceled) {
		t.Errorf("canceled Compare error %v, want ErrCanceled", err)
	}
	// Compare honors WithChannelCap exactly like Plan (unicast on this
	// trace needs far more than 1 average channel).
	if _, err := mod.Compare(ctx, []string{"unicast"}, inst, mod.WithChannelCap(1)); !errors.Is(err, mod.ErrCapacity) {
		t.Errorf("capped Compare error %v, want ErrCapacity", err)
	}
}

// TestWorkloadAndServeFacade smoke-tests the catalog, workload, and live
// serving wrappers end to end through the facade only.
func TestWorkloadAndServeFacade(t *testing.T) {
	cat := mod.ZipfCatalog(3, 1.0, 0.05, 1.0)
	plan, err := mod.PlanCatalog(cat, 5)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Peak <= 0 || len(plan.Objects) != 3 {
		t.Fatalf("catalog plan = %+v", plan)
	}
	res, err := mod.RunWorkload(context.Background(), mod.WorkloadConfig{
		Catalog: cat, Horizon: 5, MeanInterArrival: 0.05, Poisson: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls != 0 {
		t.Fatalf("workload stalls = %d", res.Stalls)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mod.RunWorkload(canceled, mod.WorkloadConfig{
		Catalog: cat, Horizon: 5, MeanInterArrival: 0.05,
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled RunWorkload error %v, want context.Canceled", err)
	}

	srv, err := mod.NewServer(mod.ServeConfig{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reqs, err := mod.GenerateRequests(cat, mod.LoadConfig{Horizon: 3, MeanInterArrival: 0.1, Kind: mod.PoissonArrivals, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mod.RunDriver(context.Background(), srv, reqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted+rep.Degraded+rep.Rejected != len(reqs) {
		t.Fatalf("driver report %+v does not cover %d requests", rep, len(reqs))
	}
	if _, err := mod.GenerateRequests(cat, mod.LoadConfig{}); !errors.Is(err, mod.ErrBadConfig) {
		t.Errorf("empty LoadConfig error %v, want ErrBadConfig", err)
	}
}

// TestSlottedFacade smoke-tests the slotted wrappers: build, schedule, and
// simulate a plan through the facade, and check the closed forms agree
// with the forest.
func TestSlottedFacade(t *testing.T) {
	const L, n = 15, 8
	forest := mod.OfflineForest(L, n)
	if got, want := forest.FullCost(), mod.OfflineCost(L, n); got != want {
		t.Fatalf("forest cost %d != closed form %d", got, want)
	}
	fs, err := mod.BuildSchedule(forest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mod.Simulate(fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls != 0 || res.TotalBandwidth != mod.OfflineCost(L, n) {
		t.Fatalf("sim result %+v, want stall-free with bandwidth %d", res, mod.OfflineCost(L, n))
	}
	online := mod.OnlineForest(L, n)
	if onres, err := mod.SimulateForest(online); err != nil || onres.Stalls != 0 {
		t.Fatalf("online forest sim: %v, %+v", err, onres)
	}
	if mod.OnlineCost(L, n) < float64(mod.OfflineCost(L, n))/L {
		t.Errorf("online cost %v below the offline optimum %v", mod.OnlineCost(L, n), float64(mod.OfflineCost(L, n))/L)
	}
	trees, cost := mod.EnumerateOptimalTrees(0, 5)
	if len(trees) == 0 || cost != mod.SlottedMergeCost(5) {
		t.Errorf("EnumerateOptimalTrees(0,5) = %d trees, cost %d (want M(5)=%d)", len(trees), cost, mod.SlottedMergeCost(5))
	}
}
