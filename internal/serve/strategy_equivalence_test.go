package serve_test

// The per-strategy live-vs-batch equivalence suite: for every live-capable
// builtin planner, a drained live run over a fixed request trace must
// report per-object stream counts and costs bit-identical to the batch
// plan on the same trace — for any shard count.  The live side plans
// incrementally inside sharded event loops (the "online" strategy natively,
// everything else through whole-horizon epoch replanning at drain); the
// batch side is live.BatchReference, pinned in turn against the public
// mod.Plan() cost, so the chain
//
//	drained live ObjectStats  ==  BatchReference  ==  mod Plan().Cost
//
// holds exactly.  Delays are binary fractions dividing the horizon, so the
// batch layers' round-vs-ceil horizon conventions agree.

import (
	"context"
	"testing"

	"repro/internal/live"
	"repro/internal/multiobject"
	"repro/internal/serve"
	"repro/mod"
)

// strategyCatalog is the shared test catalog: mixed lengths, popularities
// (including a zero-popularity object that receives no requests), and
// binary-fraction delays that divide the horizon exactly.
func strategyCatalog() multiobject.Catalog {
	return multiobject.Catalog{
		{Name: "hot", Length: 1, Popularity: 4, Delay: 0.125},
		{Name: "warm", Length: 2, Popularity: 2, Delay: 0.25},
		{Name: "mild", Length: 1, Popularity: 1, Delay: 0.0625},
		{Name: "cold", Length: 0.5, Popularity: 0, Delay: 0.25},
	}
}

func TestLiveStrategiesMatchBatchPlan(t *testing.T) {
	const horizon = 8.0
	cat := strategyCatalog()
	for _, kind := range []serve.ArrivalKind{serve.PoissonArrivals, serve.ConstantArrivals} {
		reqs, err := serve.GenerateRequests(cat, serve.LoadConfig{
			Horizon:          horizon,
			MeanInterArrival: 0.05,
			Kind:             kind,
			Seed:             42,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Per-object arrival traces, exactly as the batch planners see them.
		traces := map[string][]float64{}
		for _, r := range reqs {
			traces[r.Object] = append(traces[r.Object], r.T)
		}
		for _, strategy := range serve.LivePlanners() {
			strategy := strategy
			t.Run(kind.String()+"/"+strategy, func(t *testing.T) {
				for _, shards := range []int{1, 2, 5} {
					rep := runStrategy(t, cat, strategy, reqs, horizon, shards, false)
					checkAgainstBatch(t, strategy, shards, cat, traces, horizon, rep)
					if shards == 2 {
						// Warm-start replanning on (the default, above)
						// versus off must be bit-identical per object.
						cold := runStrategy(t, cat, strategy, reqs, horizon, shards, true)
						checkWarmColdIdentical(t, strategy, rep, cold)
					}
				}
			})
		}
	}
}

func runStrategy(t *testing.T, cat multiobject.Catalog, strategy string, reqs []serve.Request, horizon float64, shards int, coldReplan bool) *serve.Report {
	t.Helper()
	s, err := serve.New(serve.Config{
		Catalog:         cat,
		Shards:          shards,
		DefaultStrategy: strategy,
		// One whole-horizon epoch: the batch-equivalent configuration.
		EpochSlots:     1 << 20,
		ColdReplanning: coldReplan,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", strategy, err)
	}
	defer s.Close()
	rep, err := serve.RunDriver(context.Background(), s, reqs, horizon)
	if err != nil {
		t.Fatalf("RunDriver(%s): %v", strategy, err)
	}
	return rep
}

// checkWarmColdIdentical compares a warm-replanning run against a cold
// one: every per-object stat must match exactly, the ReplanStats reuse
// accounting being the only permitted difference.
func checkWarmColdIdentical(t *testing.T, strategy string, warm, cold *serve.Report) {
	t.Helper()
	if len(warm.Drain.Objects) != len(cold.Drain.Objects) {
		t.Fatalf("%s: object counts diverge warm/cold", strategy)
	}
	for i := range warm.Drain.Objects {
		w, c := warm.Drain.Objects[i], cold.Drain.Objects[i]
		if c.Replan.WarmReplans != 0 {
			t.Errorf("%s %s: cold run reports %d warm replans", strategy, c.Name, c.Replan.WarmReplans)
		}
		if w.Replan.Replans != c.Replan.Replans {
			t.Errorf("%s %s: replans %d (warm) != %d (cold)", strategy, w.Name, w.Replan.Replans, c.Replan.Replans)
		}
		w.Replan, c.Replan = serve.ReplanStats{}, serve.ReplanStats{}
		if w != c {
			t.Errorf("%s: object %s diverges between warm and cold replanning:\nwarm %+v\ncold %+v",
				strategy, w.Name, w, c)
		}
	}
}

func checkAgainstBatch(t *testing.T, strategy string, shards int, cat multiobject.Catalog, traces map[string][]float64, horizon float64, rep *serve.Report) {
	t.Helper()
	if rep.Degraded != 0 || rep.Rejected != 0 {
		t.Fatalf("shards=%d: uncapped run degraded %d / rejected %d", shards, rep.Degraded, rep.Rejected)
	}
	for i, lo := range rep.Drain.Objects {
		obj := cat[i]
		if lo.Name != obj.Name {
			t.Fatalf("shards=%d object %d: name %q, want %q", shards, i, lo.Name, obj.Name)
		}
		if lo.Strategy != strategy {
			t.Errorf("shards=%d %s: strategy %q, want %q", shards, lo.Name, lo.Strategy, strategy)
		}
		times := traces[obj.Name]
		wantStreams, wantCost, err := live.BatchReference(strategy, times, horizon, obj, false)
		if err != nil {
			t.Fatalf("BatchReference(%s, %s): %v", strategy, obj.Name, err)
		}
		if lo.Streams != wantStreams {
			t.Errorf("shards=%d %s: streams=%d, want %d", shards, lo.Name, lo.Streams, wantStreams)
		}
		if lo.FinalizedStreams != lo.Streams {
			t.Errorf("shards=%d %s: %d of %d streams finalized after drain",
				shards, lo.Name, lo.FinalizedStreams, lo.Streams)
		}
		if lo.Cost != wantCost {
			t.Errorf("shards=%d %s: cost=%g, want %g (bit-identical)", shards, lo.Name, lo.Cost, wantCost)
		}
		if lo.ReplanFailures != 0 {
			t.Errorf("shards=%d %s: %d replan fallbacks", shards, lo.Name, lo.ReplanFailures)
		}
		if lo.Arrivals != int64(len(times)) {
			t.Errorf("shards=%d %s: arrivals=%d, want %d", shards, lo.Name, lo.Arrivals, len(times))
		}

		// The reference itself must be the public batch planner's number:
		// the same trace through mod.Plan() yields the same cost bit for
		// bit, so the drained live run equals the batch Plan().
		planner, err := mod.New(strategy,
			mod.WithMediaLength(obj.Length), mod.WithDelay(obj.Delay), mod.WithHorizon(horizon))
		if err != nil {
			t.Fatalf("mod.New(%s): %v", strategy, err)
		}
		plan, err := planner.Plan(context.Background(), mod.Instance{Arrivals: times})
		if err != nil {
			t.Fatalf("mod Plan(%s, %s): %v", strategy, obj.Name, err)
		}
		if plan.Cost != wantCost {
			t.Errorf("%s %s: batch Plan cost=%g, BatchReference=%g (must be bit-identical)",
				strategy, lo.Name, plan.Cost, wantCost)
		}
	}
}
