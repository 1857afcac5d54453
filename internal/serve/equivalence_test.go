package serve_test

// The live-vs-batch equivalence suite: for a fixed seed and catalog, the
// live event-loop path (serve.Server fed by the deterministic driver,
// drained at the horizon) must report exactly the per-object stream counts
// and bandwidth totals of the batch path (sim.RunWorkload on the same
// workload), for any shard count.  The broadcast plan is oblivious, so the
// two paths share no code for the accounting itself: the batch side builds
// whole forests and runs the indexed engine, the live side finalizes merge
// groups incrementally as virtual time passes.

import (
	"context"
	"math"
	"testing"

	"repro/internal/multiobject"
	"repro/internal/serve"
	"repro/internal/sim"
)

// workloads returns the equivalence scenarios: uniform delays, popularity-
// aware (per-object) delays, a zero-popularity object, and a single-object
// catalog, under Poisson and constant-rate arrivals.
func workloads() []struct {
	name    string
	cat     multiobject.Catalog
	poisson bool
	horizon float64
	mean    float64
	seed    int64
} {
	zipf := multiobject.ZipfCatalog(7, 1.0, 0.02, 1.0)
	aware := multiobject.PopularityAwareDelays(multiobject.ZipfCatalog(5, 1.0, 0.04, 0.8), 0.04, 3)
	withZero := multiobject.Catalog{
		{Name: "hot", Length: 1, Popularity: 3, Delay: 0.05},
		{Name: "cold", Length: 2, Popularity: 0, Delay: 0.25},
		{Name: "warm", Length: 0.5, Popularity: 1, Delay: 0.02},
	}
	single := multiobject.Catalog{{Name: "only", Length: 1, Popularity: 1, Delay: 0.01}}
	return []struct {
		name    string
		cat     multiobject.Catalog
		poisson bool
		horizon float64
		mean    float64
		seed    int64
	}{
		{"zipf-poisson", zipf, true, 13.7, 0.05, 42},
		{"zipf-constant", zipf, false, 9.25, 0.08, 1},
		{"aware-poisson", aware, true, 11, 0.03, 7},
		{"zero-popularity", withZero, true, 6.5, 0.1, 11},
		{"single-poisson", single, true, 4.2, 0.02, 99},
	}
}

func TestLiveMatchesBatchWorkload(t *testing.T) {
	for _, wl := range workloads() {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			batch, err := sim.RunWorkload(context.Background(), sim.WorkloadConfig{
				Catalog:          wl.cat,
				Horizon:          wl.horizon,
				MeanInterArrival: wl.mean,
				Poisson:          wl.poisson,
				Seed:             wl.seed,
			})
			if err != nil {
				t.Fatalf("RunWorkload: %v", err)
			}
			for _, shards := range []int{1, 3, 8} {
				live := runLive(t, wl.cat, wl.poisson, wl.horizon, wl.mean, wl.seed, shards)
				compare(t, shards, batch, live)
			}
		})
	}
}

func runLive(t *testing.T, cat multiobject.Catalog, poisson bool, horizon, mean float64, seed int64, shards int) *serve.Report {
	t.Helper()
	kind := serve.ConstantArrivals
	if poisson {
		kind = serve.PoissonArrivals
	}
	reqs, err := serve.GenerateRequests(cat, serve.LoadConfig{
		Horizon:          horizon,
		MeanInterArrival: mean,
		Kind:             kind,
		Seed:             seed,
	})
	if err != nil {
		t.Fatalf("GenerateRequests: %v", err)
	}
	s, err := serve.New(serve.Config{Catalog: cat, Shards: shards})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	rep, err := serve.RunDriver(context.Background(), s, reqs, horizon)
	if err != nil {
		t.Fatalf("RunDriver: %v", err)
	}
	return rep
}

func compare(t *testing.T, shards int, batch *sim.WorkloadResult, live *serve.Report) {
	t.Helper()
	dr := live.Drain
	if got, want := len(dr.Objects), len(batch.Objects); got != want {
		t.Fatalf("shards=%d: %d live objects, want %d", shards, got, want)
	}
	if live.Rejected != 0 || live.Degraded != 0 {
		t.Fatalf("shards=%d: uncapped run rejected %d / degraded %d requests",
			shards, live.Rejected, live.Degraded)
	}
	for i, lo := range dr.Objects {
		bo := batch.Objects[i]
		if lo.Name != bo.Object.Name {
			t.Fatalf("shards=%d object %d: name %q, want %q", shards, i, lo.Name, bo.Object.Name)
		}
		if lo.L != bo.SlotsPerMedia {
			t.Errorf("shards=%d %s: L=%d, want %d", shards, lo.Name, lo.L, bo.SlotsPerMedia)
		}
		if lo.Arrivals != int64(bo.Arrivals) {
			t.Errorf("shards=%d %s: arrivals=%d, want %d", shards, lo.Name, lo.Arrivals, bo.Arrivals)
		}
		if lo.Clients != int64(bo.Clients) {
			t.Errorf("shards=%d %s: clients=%d, want %d", shards, lo.Name, lo.Clients, bo.Clients)
		}
		if lo.Streams != int64(bo.StreamCount) {
			t.Errorf("shards=%d %s: streams=%d, want %d", shards, lo.Name, lo.Streams, bo.StreamCount)
		}
		if lo.FinalizedStreams != lo.Streams {
			t.Errorf("shards=%d %s: %d of %d streams finalized after drain",
				shards, lo.Name, lo.FinalizedStreams, lo.Streams)
		}
		if lo.SlotUnits != bo.Sim.TotalBandwidth {
			t.Errorf("shards=%d %s: slot units=%d, want %d", shards, lo.Name, lo.SlotUnits, bo.Sim.TotalBandwidth)
		}
	}
	if got, want := dr.Stats.Peak, batch.Peak; got != want {
		t.Errorf("shards=%d: server peak=%d, want %d", shards, got, want)
	}
	if got, want := dr.Stats.BusyTime, batch.TotalBusyTime; relErr(got, want) > 1e-9 {
		t.Errorf("shards=%d: busy time=%g, want %g", shards, got, want)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestLiveDeterministicAcrossShards pins full-run determinism: the same
// seed must yield identical tickets and drained stats for any shard count.
func TestLiveDeterministicAcrossShards(t *testing.T) {
	cat := multiobject.ZipfCatalog(9, 1.0, 0.03, 1.1)
	reqs, err := serve.GenerateRequests(cat, serve.LoadConfig{
		Horizon: 8, MeanInterArrival: 0.04, Kind: serve.PoissonArrivals, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ref []serve.Ticket
	for _, shards := range []int{1, 2, 5} {
		s, err := serve.New(serve.Config{Catalog: cat, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		tickets := make([]serve.Ticket, 0, len(reqs))
		for _, req := range reqs {
			tk, err := s.Submit(req)
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			tickets = append(tickets, tk)
		}
		if _, err := s.Drain(8); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if ref == nil {
			ref = tickets
			continue
		}
		for i := range ref {
			want, got := ref[i], tickets[i]
			if want.Object != got.Object || want.Slot != got.Slot || want.Decision != got.Decision ||
				want.StartAt != got.StartAt || len(want.Program) != len(got.Program) {
				t.Fatalf("shards=%d ticket %d: %+v, want %+v", shards, i, got, want)
			}
		}
	}
}
