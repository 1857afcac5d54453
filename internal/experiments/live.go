package experiments

import (
	"context"
	"fmt"

	"repro/internal/textplot"
	"repro/mod"
)

// LiveVsBatchConfig parameterizes the live-vs-batch serving comparison.
type LiveVsBatchConfig struct {
	// Objects is the catalog size.
	Objects int
	// MediaLength and Delay are shared by all objects (time units).
	MediaLength, Delay float64
	// Horizon is the load span in time units.
	Horizon float64
	// ZipfExponent shapes the popularity distribution.
	ZipfExponent float64
	// MeanInterArrival is the aggregate mean inter-arrival time.
	MeanInterArrival float64
	// Seed fixes the request trace.
	Seed int64
	// EpochSlots is the replanning period of the "live (epoch)" column, in
	// slots of the delay.
	EpochSlots int
}

// DefaultLiveVsBatch returns a small catalog whose delays divide the
// horizon exactly, so the batch and whole-horizon live numbers agree bit
// for bit.  The trace is dense enough and the 48-slot epochs long enough
// for the off-line pair's epochs to pass the warm-absorption chunk
// (more occupied slots than the chunk for offline-batched), so the
// cells_reused column shows the warm path at work.
func DefaultLiveVsBatch() LiveVsBatchConfig {
	return LiveVsBatchConfig{
		Objects:          4,
		MediaLength:      1,
		Delay:            0.125,
		Horizon:          8,
		ZipfExponent:     1,
		MeanInterArrival: 0.02,
		Seed:             7,
		EpochSlots:       48,
	}
}

// LiveVsBatch compares, per live-capable strategy, the batch planner's
// cost on a fixed trace with two live serving runs over the same trace:
// one draining a single whole-horizon epoch (which must reproduce the
// batch cost exactly — the serving layer's equivalence guarantee) and one
// replanning every EpochSlots slots (the price or gain of epoch
// isolation: merging cannot cross a boundary, but neither can a sparse
// epoch be burdened by a dense one).  Costs are summed over the catalog in
// complete media streams.  The replan columns are the epoch run's
// accounting: how many epoch closes replanned, how many warm-started from
// the off-line strategies' resumable forest tables, and how many stored
// DP cells those closes reused versus filled themselves.  Every column
// is a deterministic count or cost — no wall-clock timing — so the
// result is bit-identical across machines and worker counts.
func LiveVsBatch(ctx context.Context, cfg LiveVsBatchConfig) (Result, error) {
	cat := mod.ZipfCatalog(cfg.Objects, cfg.MediaLength, cfg.Delay, cfg.ZipfExponent)
	reqs, err := mod.GenerateRequests(cat, mod.LoadConfig{
		Horizon:          cfg.Horizon,
		MeanInterArrival: cfg.MeanInterArrival,
		Kind:             mod.PoissonArrivals,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return Result{}, err
	}
	traces := map[string][]float64{}
	for _, r := range reqs {
		traces[r.Object] = append(traces[r.Object], r.T)
	}

	wholeSlots := int(cfg.Horizon/cfg.Delay) + 1
	tab := textplot.NewTable("strategy", "batch_cost", "live_cost", "live_epoch_cost", "epoch_delta_pct", "live_streams",
		"replans", "warm_replans", "cells_reused", "cells_recomputed")
	for _, strategy := range mod.LivePlanners() {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("experiments: live-vs-batch canceled: %w", err)
		}
		var batch float64
		planner, err := mod.New(strategy, mod.WithMediaLength(cfg.MediaLength),
			mod.WithDelay(cfg.Delay), mod.WithHorizon(cfg.Horizon))
		if err != nil {
			return Result{}, err
		}
		for _, o := range cat {
			plan, err := planner.Plan(ctx, mod.Instance{Arrivals: traces[o.Name]})
			if err != nil {
				return Result{}, err
			}
			batch += plan.Cost
		}
		liveCost, liveStreams, _, err := liveRun(ctx, cat, reqs, cfg.Horizon, strategy, wholeSlots)
		if err != nil {
			return Result{}, err
		}
		epochCost, _, rs, err := liveRun(ctx, cat, reqs, cfg.Horizon, strategy, cfg.EpochSlots)
		if err != nil {
			return Result{}, err
		}
		if liveCost != batch {
			return Result{}, fmt.Errorf("experiments: live %s cost %g != batch %g (equivalence broken)",
				strategy, liveCost, batch)
		}
		delta := 0.0
		if batch > 0 {
			delta = 100 * (epochCost - batch) / batch
		}
		tab.AddRow(strategy, batch, liveCost, epochCost, delta, liveStreams,
			rs.Replans, rs.WarmReplans, rs.CellsReused, rs.CellsRecomputed)
	}
	return Result{
		ID:    "ext-live-vs-batch",
		Title: "Extension: live serving vs batch planning, per strategy",
		Table: tab,
		Notes: fmt.Sprintf("%d objects, Zipf(%g), horizon %g, seed %d: live_cost drains one whole-horizon epoch and must equal batch_cost bit for bit; live_epoch_cost replans every %d slots (epoch isolation: merging never crosses a boundary), and the replan columns account for that run: warm_replans counts closes answered from the off-line strategies' resumable forest tables, split into stored DP cells reused vs recomputed (the online strategy never replans; every other strategy re-runs its batch planner)",
			cfg.Objects, cfg.ZipfExponent, cfg.Horizon, cfg.Seed, cfg.EpochSlots),
	}, nil
}

// liveRun replays the trace through a live server with the given default
// strategy and epoch length and returns the drained catalog-total cost,
// stream count, and summed replan accounting.
func liveRun(ctx context.Context, cat mod.Catalog, reqs []mod.Request, horizon float64, strategy string, epochSlots int) (float64, int64, mod.ReplanStats, error) {
	srv, err := mod.NewServer(mod.ServeConfig{Catalog: cat, DefaultStrategy: strategy, EpochSlots: epochSlots})
	if err != nil {
		return 0, 0, mod.ReplanStats{}, err
	}
	defer srv.Close()
	rep, err := mod.RunDriver(ctx, srv, reqs, horizon)
	if err != nil {
		return 0, 0, mod.ReplanStats{}, err
	}
	var cost float64
	var streams int64
	var rs mod.ReplanStats
	for _, o := range rep.Drain.Objects {
		cost += o.Cost
		streams += o.Streams
		rs.Replans += o.Replan.Replans
		rs.WarmReplans += o.Replan.WarmReplans
		rs.CellsReused += o.Replan.CellsReused
		rs.CellsRecomputed += o.Replan.CellsRecomputed
	}
	return cost, streams, rs, nil
}
