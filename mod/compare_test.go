package mod_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/arrivals"
	"repro/internal/dyadic"
	"repro/internal/live"
	"repro/internal/multiobject"
	"repro/mod"
)

// TestCompareOrderingOnDenseTrace: on dense arrivals (many per slot)
// unicast is the most expensive, batching beats unicast, stream merging
// beats batching, the immediate-service off-line optimum lower-bounds the
// immediate-service planners, and the batched off-line optimum
// lower-bounds every planner that may delay a client.
func TestCompareOrderingOnDenseTrace(t *testing.T) {
	inst := mod.Instance{Arrivals: arrivals.Poisson(0.002, 4, 3), Horizon: 4}
	costs, err := mod.Compare(context.Background(), mod.Planners(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if costs["unicast"] <= costs["batching"] {
		t.Errorf("batching (%v) should beat unicast (%v)", costs["batching"], costs["unicast"])
	}
	if costs["batching"] <= costs["dyadic-batched"] {
		t.Errorf("dyadic-batched (%v) should beat batching (%v)", costs["dyadic-batched"], costs["batching"])
	}
	optImmediate := costs["offline"]
	for _, name := range []string{"dyadic", "unicast"} {
		if costs[name] < optImmediate-1e-9 {
			t.Errorf("%s (%v) beat the immediate-service optimum (%v)", name, costs[name], optImmediate)
		}
	}
	optBatched := costs["offline-batched"]
	for _, name := range []string{"online", "dyadic-batched", "hybrid", "batching"} {
		if costs[name] < optBatched-1e-9 {
			t.Errorf("%s (%v) beat the batched off-line optimum (%v)", name, costs[name], optBatched)
		}
	}
	// Allowing a delay can only help.
	if optBatched > optImmediate+1e-9 {
		t.Errorf("batched optimum (%v) exceeds immediate optimum (%v)", optBatched, optImmediate)
	}
}

// TestCompareSparseTraceFavorsDyadic: on sparse arrivals the on-line
// planner is the most expensive merging planner (it starts streams for
// empty slots), and the hybrid beats it.
func TestCompareSparseTraceFavorsDyadic(t *testing.T) {
	inst := mod.Instance{Arrivals: arrivals.Poisson(0.05, 10, 7), Horizon: 10}
	costs, err := mod.Compare(context.Background(), mod.StandardNames(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if costs["online"] <= costs["dyadic"] {
		t.Errorf("sparse arrivals: online (%v) should exceed dyadic (%v)", costs["online"], costs["dyadic"])
	}
	if costs["hybrid"] >= costs["online"] {
		t.Errorf("hybrid (%v) should beat online (%v) on a sparse trace", costs["hybrid"], costs["online"])
	}
}

// TestCompareWorkersMatchSerial: the pool returns the serial costs bit
// for bit.
func TestCompareWorkersMatchSerial(t *testing.T) {
	ctx := context.Background()
	inst := mod.Instance{Arrivals: arrivals.Poisson(0.01, 3, 5), Horizon: 3}
	serial, err := mod.Compare(ctx, mod.Planners(), inst, mod.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(mod.Planners()) {
		t.Fatalf("%d costs for %d planners", len(serial), len(mod.Planners()))
	}
	for _, workers := range []int{0, 2, 8} {
		pooled, err := mod.Compare(ctx, mod.Planners(), inst, mod.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range serial {
			if got := pooled[name]; got != want {
				t.Errorf("workers=%d: %s = %v, want %v (must be bit-identical)", workers, name, got, want)
			}
		}
	}
}

// TestCompareConstantRate: WithPoisson(false) prices every planner, and
// the dyadic pair runs the Section 4.2 constant-rate tuning
// beta = F_h/L rather than the Poisson one.
func TestCompareConstantRate(t *testing.T) {
	trace := arrivals.Constant(0.005, 5)
	costs, err := mod.Compare(context.Background(), mod.Planners(),
		mod.Instance{Arrivals: trace, Horizon: 5}, mod.WithPoisson(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != len(mod.Planners()) {
		t.Fatalf("%d costs for %d planners", len(costs), len(mod.Planners()))
	}
	tuning := dyadic.GoldenConstantRate(100)
	if tuning == dyadic.GoldenPoisson() {
		t.Fatalf("constant-rate tuning %+v equals the Poisson one", tuning)
	}
	immediate, err := dyadic.TotalCost(trace, 1, tuning)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := dyadic.TotalBatchedCost(trace, 1, 0.01, tuning)
	if err != nil {
		t.Fatal(err)
	}
	if costs["dyadic"] != immediate || costs["dyadic-batched"] != batched {
		t.Errorf("dyadic %v, dyadic-batched %v; want the constant-rate tuning's %v, %v",
			costs["dyadic"], costs["dyadic-batched"], immediate, batched)
	}
}

// TestComparePoolCancel cancels a pooled Compare while its off-line
// planners are mid-DP and asserts a prompt return wrapping ErrCanceled
// and context.Canceled, with every pool goroutine joined (CI runs this
// package under -race, so a leaked worker racing the teardown would be
// caught).
func TestComparePoolCancel(t *testing.T) {
	// Tens of thousands of arrivals in one media-length window keep the
	// off-line DP busy far longer than the cancellation latency.
	inst := mod.Instance{Arrivals: arrivals.Constant(100.0/40000, 100), Horizon: 100}
	names := []string{"offline", "offline-batched", "online", "unicast"}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := mod.Compare(ctx, names, inst, mod.WithDelay(0.001), mod.WithMaxArrivals(100000), mod.WithWorkers(4))
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, mod.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("Compare error %v, want ErrCanceled wrapping context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Compare did not return after cancel")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines before, %d after cancel (pool leaked)", before, got)
	}
}

// TestCompareSerialCancel: a pre-canceled serial Compare fails before any
// planner runs.
func TestCompareSerialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mod.Compare(ctx, mod.StandardNames(), mod.Instance{Arrivals: []float64{0.5}, Horizon: 5}, mod.WithWorkers(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled serial Compare error = %v, want context.Canceled", err)
	}
}

// TestCompareStopsOnError: a failing planner fails the whole comparison,
// and the error names it, serially and pooled.
func TestCompareStopsOnError(t *testing.T) {
	inst := mod.Instance{Arrivals: arrivals.Poisson(0.01, 5, 1), Horizon: 5} // far more than 2 arrivals
	for _, workers := range []int{1, 2} {
		_, err := mod.Compare(context.Background(), []string{"online", "offline"}, inst,
			mod.WithMaxArrivals(2), mod.WithWorkers(workers))
		if !errors.Is(err, mod.ErrInstanceTooLarge) {
			t.Errorf("workers=%d: error %v, want ErrInstanceTooLarge", workers, err)
		}
		if err == nil || !strings.Contains(err.Error(), `"offline"`) {
			t.Errorf("workers=%d: error %v should name the failing planner", workers, err)
		}
	}
}

// TestSentinelTexts pins the shared sentinels' texts: they name no
// layer, so a classified error reads as the path of the layers that
// wrapped it.
func TestSentinelTexts(t *testing.T) {
	if got := mod.ErrBadInstance.Error(); got != "invalid instance" {
		t.Errorf("ErrBadInstance reads %q", got)
	}
	if got := mod.ErrInstanceTooLarge.Error(); got != "instance too large" {
		t.Errorf("ErrInstanceTooLarge reads %q", got)
	}
	_, err := mod.Compare(context.Background(), []string{"offline"},
		mod.Instance{Arrivals: []float64{0.1, 0.2, 0.3}, Horizon: 1}, mod.WithMaxArrivals(2))
	if want := `mod: compare: planner "offline": instance too large: `; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("Compare error %v, want it to start with %q", err, want)
	}
}

// TestOfflineDefaultCapRaised: the default arrival cap lets the offline
// planner take traces an order of magnitude beyond the old 5000-arrival
// cap; 6000 arrivals over 100 media lengths stays tiny.
func TestOfflineDefaultCapRaised(t *testing.T) {
	trace := arrivals.Constant(100.0/6000, 100)
	if len(trace) <= 5000 {
		t.Fatalf("trace has only %d arrivals; want > 5000 to exercise the raised cap", len(trace))
	}
	plan, err := mod.MustNew("offline").Plan(context.Background(), mod.Instance{Arrivals: trace, Horizon: 100})
	if err != nil {
		t.Fatalf("offline refused a %d-arrival trace: %v", len(trace), err)
	}
	if plan.Cost <= 0 {
		t.Fatalf("offline cost = %v, want > 0", plan.Cost)
	}
}

// TestPlannersRefuseBadInstances: each planner refuses, with
// ErrBadInstance, exactly the settings its algorithm cannot run with —
// a delay outside (0, media length] for the planners that serve clients
// at slot ends, a non-positive media length for every planner, since
// AverageChannels scales every cost by it — and every planner refuses an
// unsorted trace and a missing horizon.
func TestPlannersRefuseBadInstances(t *testing.T) {
	ctx := context.Background()
	inst := mod.Instance{Arrivals: []float64{0.1, 0.2, 0.3}, Horizon: 1}
	usesDelay := map[string]bool{"online": true, "offline-batched": true, "dyadic-batched": true, "batching": true, "hybrid": true}
	for _, name := range mod.Planners() {
		for _, c := range []struct {
			what   string
			opt    mod.Option
			refuse bool
		}{
			{"delay 0", mod.WithDelay(0), usesDelay[name]},
			{"delay > media length", mod.WithDelay(2), usesDelay[name]},
			{"media length 0", mod.WithMediaLength(0), true},
			{"media length -1", mod.WithMediaLength(-1), true},
		} {
			_, err := mod.MustNew(name).Plan(ctx, inst, c.opt)
			if c.refuse && !errors.Is(err, mod.ErrBadInstance) {
				t.Errorf("%s with %s: error %v, want ErrBadInstance", name, c.what, err)
			}
			if !c.refuse && err != nil {
				t.Errorf("%s with %s: %v, want a plan (the planner does not use the setting)", name, c.what, err)
			}
		}
		for _, bad := range []mod.Instance{{Arrivals: []float64{0.5, 0.2}, Horizon: 5}, {Arrivals: []float64{0.1}}} {
			if _, err := mod.MustNew(name).Plan(ctx, bad); !errors.Is(err, mod.ErrBadInstance) {
				t.Errorf("%s accepted %+v: error %v", name, bad, err)
			}
		}
	}
}

// TestOfflineBatchedBudgets: the off-line guard's arrival cap and memory
// budget hold for the batched optimum too, and classify as
// ErrInstanceTooLarge.
func TestOfflineBatchedBudgets(t *testing.T) {
	ctx := context.Background()
	if _, err := mod.MustNew("offline-batched", mod.WithMemoryBudget(1)).Plan(ctx,
		mod.Instance{Arrivals: arrivals.Constant(0.01, 5), Horizon: 5}); !errors.Is(err, mod.ErrInstanceTooLarge) {
		t.Errorf("offline-batched memory-budget error %v, want ErrInstanceTooLarge", err)
	}
	if _, err := mod.MustNew("offline-batched", mod.WithMaxArrivals(2)).Plan(ctx,
		mod.Instance{Arrivals: []float64{0.1, 0.2, 0.3}, Horizon: 1}); !errors.Is(err, mod.ErrInstanceTooLarge) {
		t.Errorf("offline-batched arrival-cap error %v, want ErrInstanceTooLarge", err)
	}
}

// TestSlotsPerMediaClamp: L rounds media length over delay and never
// drops below one slot.
func TestSlotsPerMediaClamp(t *testing.T) {
	if got := (mod.Settings{MediaLength: 1, Delay: 2}).SlotsPerMedia(); got != 1 {
		t.Errorf("SlotsPerMedia(1, 2) = %d, want the clamp 1", got)
	}
	if got := (mod.Settings{MediaLength: 1, Delay: 0.01}).SlotsPerMedia(); got != 100 {
		t.Errorf("SlotsPerMedia(1, 0.01) = %d, want 100", got)
	}
}

// TestOfflineTiedArrivals: tied clients share a stream, so the offline
// planner costs a tied trace what it costs the deduplicated trace, which
// is also the live offline strategy's batch reference — and a tied trace
// no longer fails a comparison of every planner.
func TestOfflineTiedArrivals(t *testing.T) {
	ctx := context.Background()
	tied := []float64{0.1, 0.1, 0.2, 0.35, 0.35, 0.9}
	const horizon, delay = 2.0, 0.01
	p := mod.MustNew("offline", mod.WithDelay(delay))
	got, err := p.Plan(ctx, mod.Instance{Arrivals: tied, Horizon: horizon})
	if err != nil {
		t.Fatalf("offline on a tied trace: %v", err)
	}
	want, err := p.Plan(ctx, mod.Instance{Arrivals: []float64{0.1, 0.2, 0.35, 0.9}, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Arrivals != len(tied) {
		t.Errorf("tied trace: cost %v for %d arrivals, want the deduplicated cost %v for %d", got.Cost, got.Arrivals, want.Cost, len(tied))
	}
	if math.Abs(got.Cost-2.15) > 1e-9 {
		t.Errorf("tied trace cost %v, want 2.15", got.Cost)
	}
	obj := multiobject.Object{Name: "tied", Length: 1, Delay: delay, Popularity: 1}
	_, ref, err := live.BatchReference("offline", tied, horizon, obj)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != ref {
		t.Errorf("tied trace: Plan cost %v, live BatchReference %v (must be bit-identical)", got.Cost, ref)
	}
	costs, err := mod.Compare(ctx, mod.Planners(), mod.Instance{Arrivals: tied, Horizon: horizon}, mod.WithDelay(delay))
	if err != nil {
		t.Fatalf("Compare on a tied trace: %v", err)
	}
	if costs["offline"] != got.Cost {
		t.Errorf("Compare offline = %v, Plan = %v", costs["offline"], got.Cost)
	}
}
