package mod_test

// Facade tests for the live strategy surface: the capability list is a
// subset of the planner registry, NewServer honors DefaultStrategy /
// EpochSlots / per-object routing, and a drained live run through the
// facade reproduces the facade's own batch Plan cost.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/mod"
)

func TestLivePlannersSubsetOfRegistry(t *testing.T) {
	livePlanners := mod.LivePlanners()
	if len(livePlanners) == 0 {
		t.Fatal("no live-capable planners")
	}
	registered := map[string]bool{}
	for _, name := range mod.Planners() {
		registered[name] = true
	}
	for _, name := range livePlanners {
		if !registered[name] {
			t.Errorf("live planner %q is not in the planner registry", name)
		}
	}
	// Every builtin is currently live-capable; pin the list so a planner
	// added without a live adapter is a conscious decision.
	want := []string{"batching", "dyadic", "dyadic-batched", "hybrid", "offline", "offline-batched", "online", "unicast"}
	if !reflect.DeepEqual(livePlanners, want) {
		t.Errorf("LivePlanners() = %v, want %v", livePlanners, want)
	}
}

func TestNewServerStrategyRouting(t *testing.T) {
	cat := mod.ZipfCatalog(3, 1.0, 0.125, 1.0)
	cat[2].Strategy = "batching" // per-object override
	srv, err := mod.NewServer(mod.ServeConfig{Catalog: cat, DefaultStrategy: "dyadic-batched", EpochSlots: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reqs, err := mod.GenerateRequests(cat, mod.LoadConfig{
		Horizon: 4, MeanInterArrival: 0.05, Kind: mod.PoissonArrivals, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mod.RunDriver(context.Background(), srv, reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]mod.ObjectStats{}
	for _, o := range rep.Drain.Objects {
		byName[o.Name] = o
	}
	if got := byName["object-01"].Strategy; got != "dyadic-batched" {
		t.Errorf("object-01 strategy = %q, want DefaultStrategy", got)
	}
	if got := byName["object-03"].Strategy; got != "batching" {
		t.Errorf("object-03 strategy = %q, want the per-object override", got)
	}
	if st := rep.Drain.Stats.Strategies; st["dyadic-batched"] != 2 || st["batching"] != 1 {
		t.Errorf("stats strategy counts = %v", st)
	}

	// The drained per-object cost equals the facade's batch Plan on the
	// object's own trace, bit for bit (whole-horizon epoch).
	for _, o := range rep.Drain.Objects {
		var times []float64
		for _, r := range reqs {
			if r.Object == o.Name {
				times = append(times, r.T)
			}
		}
		plan, err := mod.MustNew(o.Strategy, mod.WithDelay(0.125)).Plan(context.Background(),
			mod.Instance{Arrivals: times, Horizon: 4})
		if err != nil {
			t.Fatalf("%s: %v", o.Name, err)
		}
		if plan.Cost != o.Cost {
			t.Errorf("%s: live cost %g != batch Plan cost %g", o.Name, o.Cost, plan.Cost)
		}
	}
}

func TestNewServerUnknownStrategy(t *testing.T) {
	cat := mod.ZipfCatalog(2, 1.0, 0.1, 1.0)
	if _, err := mod.NewServer(mod.ServeConfig{Catalog: cat, DefaultStrategy: "no-such-planner"}); !errors.Is(err, mod.ErrBadConfig) {
		t.Fatalf("unknown strategy error = %v, want ErrBadConfig", err)
	}
	cat[0].Strategy = "also-missing"
	if _, err := mod.NewServer(mod.ServeConfig{Catalog: cat}); !errors.Is(err, mod.ErrBadConfig) {
		t.Fatalf("unknown per-object strategy error = %v, want ErrBadConfig", err)
	}
}
