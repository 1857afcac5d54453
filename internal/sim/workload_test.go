package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/multiobject"
	"repro/internal/online"
)

func testWorkloadConfig() WorkloadConfig {
	return WorkloadConfig{
		Catalog:          multiobject.ZipfCatalog(3, 1.0, 0.05, 1.0),
		Horizon:          4,
		MeanInterArrival: 0.02,
		Poisson:          true,
		Seed:             42,
	}
}

func TestRunWorkloadPoissonZipf(t *testing.T) {
	res, err := RunWorkload(context.Background(), testWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls != 0 {
		t.Errorf("workload stalled %d times; the delay-guaranteed plan must never stall", res.Stalls)
	}
	if len(res.Objects) != 3 {
		t.Fatalf("expected 3 object results, got %d", len(res.Objects))
	}
	if res.Peak < 1 || res.TotalBusyTime <= 0 || res.AverageChannels() <= 0 {
		t.Errorf("aggregate profile not populated: %+v", res)
	}
	for i, o := range res.Objects {
		// The delay-guaranteed server is workload-oblivious: the measured
		// bandwidth must equal the on-line algorithm's analytic cost for the
		// object's horizon, whatever the arrival mix.
		L := o.Object.Slots()
		n := int64(math.Ceil(res.Horizon / o.Object.Delay))
		if want := online.Cost(L, n); o.Sim.TotalBandwidth != want {
			t.Errorf("object %d: simulated bandwidth %d != A(%d,%d) = %d", i, o.Sim.TotalBandwidth, L, n, want)
		}
		if o.Clients > o.Arrivals {
			t.Errorf("object %d: %d batched clients from %d arrivals", i, o.Clients, o.Arrivals)
		}
		if o.Clients != len(o.Sim.Clients) {
			t.Errorf("object %d: %d clients but %d simulated", i, o.Clients, len(o.Sim.Clients))
		}
		if o.Streams <= 0 {
			t.Errorf("object %d: non-positive measured streams %g", i, o.Streams)
		}
	}
	// Popularity ordering: the Zipf catalog is sorted by decreasing
	// popularity, so arrival counts must not trend upward.
	if res.Objects[0].Arrivals < res.Objects[2].Arrivals {
		t.Errorf("most popular object got %d arrivals, least popular %d",
			res.Objects[0].Arrivals, res.Objects[2].Arrivals)
	}
}

func TestRunWorkloadDeterministic(t *testing.T) {
	a, err := RunWorkload(context.Background(), testWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(context.Background(), testWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must reproduce the same workload result")
	}
}

func TestRunWorkloadConstantRate(t *testing.T) {
	cfg := testWorkloadConfig()
	cfg.Poisson = false
	res, err := RunWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls != 0 {
		t.Errorf("stalls: %d", res.Stalls)
	}
	for i, o := range res.Objects {
		if o.Arrivals == 0 {
			t.Errorf("object %d received no constant-rate arrivals", i)
		}
	}
}

func TestRunWorkloadValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*WorkloadConfig)
	}{
		{"empty-catalog", func(c *WorkloadConfig) { c.Catalog = nil }},
		{"bad-horizon", func(c *WorkloadConfig) { c.Horizon = 0 }},
		{"bad-mean", func(c *WorkloadConfig) { c.MeanInterArrival = -1 }},
		{"nan-horizon", func(c *WorkloadConfig) { c.Horizon = math.NaN() }},
		{"inf-horizon", func(c *WorkloadConfig) { c.Horizon = math.Inf(1) }},
		{"nan-mean", func(c *WorkloadConfig) { c.MeanInterArrival = math.NaN() }},
		{"inf-mean", func(c *WorkloadConfig) { c.MeanInterArrival = math.Inf(1) }},
		{"nan-horizon-constant", func(c *WorkloadConfig) { c.Horizon, c.Poisson = math.NaN(), false }},
		{"bad-object", func(c *WorkloadConfig) { c.Catalog[0].Delay = -1 }},
	}
	for _, tc := range cases {
		cfg := testWorkloadConfig()
		tc.mut(&cfg)
		if _, err := RunWorkload(context.Background(), cfg); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}
