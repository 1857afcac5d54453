package experiments

import (
	"context"
	"errors"
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
	// Strategies are the planner families compared (default: every
	// live-capable planner).
	Strategies []string
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
	strategies := cfg.Strategies
	if len(strategies) == 0 {
		strategies = mod.LivePlanners()
	}
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
	for _, strategy := range strategies {
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

// BackpressureConfig parameterizes the queue-backpressure experiment.
type BackpressureConfig struct {
	// Submits is the number of concurrent same-instant submissions raced
	// against the paused shard at each high-water mark.
	Submits int
	// HighWaters are the per-shard queue high-water marks swept.
	HighWaters []int
	// T is the shared arrival instant (time units).
	T float64
	// Horizon is the drain horizon in time units.
	Horizon float64
}

// DefaultBackpressure races 8 concurrent submissions against high-water
// marks from permissive to refusing almost everything.
func DefaultBackpressure() BackpressureConfig {
	return BackpressureConfig{Submits: 8, HighWaters: []int{1, 2, 4}, T: 0.5, Horizon: 2}
}

// Backpressure pins the determinism of queue-depth admission arbitration:
// a single-shard server is paused, Submits goroutines race identical
// requests at it, and — whatever the goroutine schedule — exactly
// HighWater of them may hold queue slots, so exactly Submits-HighWater
// are refused with ErrPressure.  The refusals are observable while the
// shard is still paused (the winners stay parked in the queue), which is
// what makes the counts exact rather than statistical.  After release the
// admitted subset drains to the same catalog cost as an unpressured
// server fed HighWater requests directly: every column is a deterministic
// count, verified per row, so the table is bit-identical across machines.
func Backpressure(ctx context.Context, cfg BackpressureConfig) (Result, error) {
	cat := mod.ZipfCatalog(1, 1, 0.125, 1)
	tab := textplot.NewTable("high_water", "submits", "admitted", "rejected_pressure", "cost", "ref_cost")
	for _, hw := range cfg.HighWaters {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("experiments: backpressure canceled: %w", err)
		}
		if hw >= cfg.Submits {
			return Result{}, fmt.Errorf("experiments: high water %d admits every one of %d submits", hw, cfg.Submits)
		}
		srv, err := mod.NewLiveServer(cat, mod.WithWorkers(1), mod.WithBackpressure(hw))
		if err != nil {
			return Result{}, err
		}
		release, err := srv.Pause(0)
		if err != nil {
			srv.Close()
			return Result{}, err
		}
		errs := make(chan error, cfg.Submits)
		for i := 0; i < cfg.Submits; i++ {
			go func() {
				_, err := srv.Submit(mod.Request{Object: cat[0].Name, T: cfg.T})
				errs <- err
			}()
		}
		// Only pressure-refused submits can return while the shard is
		// paused; the reservation holders are parked in the queue.
		for i := 0; i < cfg.Submits-hw; i++ {
			if err := <-errs; !errors.Is(err, mod.ErrPressure) {
				release()
				srv.Close()
				return Result{}, fmt.Errorf("experiments: refusal %d under high water %d wants ErrPressure, got: %w", i, hw, err)
			}
		}
		release()
		for i := 0; i < hw; i++ {
			if err := <-errs; err != nil {
				srv.Close()
				return Result{}, fmt.Errorf("experiments: admitted submit %d under high water %d failed: %w", i, hw, err)
			}
		}
		dr, err := srv.Drain(cfg.Horizon)
		srv.Close()
		if err != nil {
			return Result{}, err
		}
		if got := dr.Stats.RejectedPressure; got != int64(cfg.Submits-hw) {
			return Result{}, fmt.Errorf("experiments: high water %d rejected %d of %d submits, want exactly %d",
				hw, got, cfg.Submits, cfg.Submits-hw)
		}
		cost := dr.Objects[0].Cost

		// Unpressured reference run of the admitted subset: all arrivals
		// share one instant, so the totals are independent of WHICH
		// submits won the race.
		ref, err := mod.NewLiveServer(cat, mod.WithWorkers(1))
		if err != nil {
			return Result{}, err
		}
		for i := 0; i < hw; i++ {
			if _, err := ref.Submit(mod.Request{Object: cat[0].Name, T: cfg.T}); err != nil {
				ref.Close()
				return Result{}, err
			}
		}
		refDr, err := ref.Drain(cfg.Horizon)
		ref.Close()
		if err != nil {
			return Result{}, err
		}
		refCost := refDr.Objects[0].Cost
		if cost != refCost || dr.Objects[0].Streams != refDr.Objects[0].Streams {
			return Result{}, fmt.Errorf("experiments: high water %d: pressured cost %g != unpressured cost %g of the admitted subset",
				hw, cost, refCost)
		}
		tab.AddRow(hw, cfg.Submits, int(dr.Stats.Admitted), int(dr.Stats.RejectedPressure), cost, refCost)
	}
	return Result{
		ID:    "ext-backpressure",
		Title: "Extension: queue-depth backpressure is exact admission arbitration",
		Table: tab,
		Notes: fmt.Sprintf("%d concurrent same-instant submits against a paused single shard: the atomic queue reservation admits exactly high_water of them and refuses the rest with ErrPressure (verified per row), and the admitted subset drains to the unpressured reference cost — backpressure changes who waits, never what anything costs",
			cfg.Submits),
	}, nil
}

// liveRun replays the trace through a live server with the given default
// strategy and epoch length and returns the drained catalog-total cost,
// stream count, and summed replan accounting.
func liveRun(ctx context.Context, cat mod.Catalog, reqs []mod.Request, horizon float64, strategy string, epochSlots int) (float64, int64, mod.ReplanStats, error) {
	srv, err := mod.NewLiveServer(cat, mod.WithStrategy(strategy), mod.WithEpoch(epochSlots))
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

// CrashRecoveryConfig parameterizes the kill-and-restore equivalence
// experiment.
type CrashRecoveryConfig struct {
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
	// EpochSlots is the replanning period of epoch strategies, in slots.
	EpochSlots int
	// Shards is the server's shard count (fixed so the durable fingerprint
	// matches across the kill).
	Shards int
	// Strategies are the planner families exercised (default: every
	// live-capable planner).
	Strategies []string
}

// DefaultCrashRecovery cuts a 4-object trace (mean inter-arrival time
// 0.1, 8-slot epochs) mid-run.
func DefaultCrashRecovery() CrashRecoveryConfig {
	return CrashRecoveryConfig{
		Objects:          4,
		MediaLength:      1,
		Delay:            0.125,
		Horizon:          8,
		ZipfExponent:     1,
		MeanInterArrival: 0.1,
		Seed:             7,
		EpochSlots:       8,
		Shards:           2,
	}
}

// CrashRecovery pins the durability layer's equivalence guarantee as a
// standing experiment: per strategy, a server with an in-memory durability
// store is killed halfway through the trace (the store's Clone is the
// bytes "on disk" at the kill instant — everything the doomed server does
// afterwards is lost), a fresh server restores from the clone, finishes
// the trace, and must drain to exactly the totals of a server that never
// died.  Every column is a deterministic count or an exact cost, verified
// per row, so the table is bit-identical across machines; wal_records and
// snapshots report how much durable state the recovery actually consumed.
func CrashRecovery(ctx context.Context, cfg CrashRecoveryConfig) (Result, error) {
	cat := mod.ZipfCatalog(cfg.Objects, cfg.MediaLength, cfg.Delay, cfg.ZipfExponent)
	strategies := cfg.Strategies
	if len(strategies) == 0 {
		strategies = mod.LivePlanners()
	}
	reqs, err := mod.GenerateRequests(cat, mod.LoadConfig{
		Horizon:          cfg.Horizon,
		MeanInterArrival: cfg.MeanInterArrival,
		Kind:             mod.PoissonArrivals,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return Result{}, err
	}
	cut := len(reqs) / 2
	tab := textplot.NewTable("strategy", "requests", "cut", "cost", "streams", "wal_records", "snapshots")
	for _, strategy := range strategies {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("experiments: crash-recovery canceled: %w", err)
		}
		opts := func(extra ...mod.Option) []mod.Option {
			return append([]mod.Option{mod.WithStrategy(strategy), mod.WithEpoch(cfg.EpochSlots),
				mod.WithWorkers(cfg.Shards)}, extra...)
		}
		// Uninterrupted reference, durability off.
		ref, err := mod.NewLiveServer(cat, opts()...)
		if err != nil {
			return Result{}, err
		}
		refRep, err := mod.RunDriver(ctx, ref, reqs, cfg.Horizon)
		ref.Close()
		if err != nil {
			return Result{}, err
		}
		// Doomed run: half the trace into a durable server, then the kill.
		mem := mod.NewMemStore()
		doomed, err := mod.NewLiveServer(cat, opts(mod.WithStore(mem))...)
		if err != nil {
			return Result{}, err
		}
		for _, r := range reqs[:cut] {
			if _, err := doomed.Submit(r); err != nil {
				doomed.Close()
				return Result{}, err
			}
		}
		disk := mem.Clone()
		doomed.Close()
		walBytes := 0
		for i := 0; i < cfg.Shards; i++ {
			walBytes += disk.WALBytes(i)
		}
		// Restored run: rebuild from the clone, finish the trace.
		restored, err := mod.NewLiveServer(cat, opts(mod.WithStore(disk), mod.WithRestore(true))...)
		if err != nil {
			return Result{}, err
		}
		for _, r := range reqs[cut:] {
			if _, err := restored.Submit(r); err != nil {
				restored.Close()
				return Result{}, err
			}
		}
		dr, err := restored.Drain(cfg.Horizon)
		restored.Close()
		if err != nil {
			return Result{}, err
		}
		var cost, refCost float64
		var streams, refStreams int64
		for i := range dr.Objects {
			cost += dr.Objects[i].Cost
			streams += dr.Objects[i].Streams
			refCost += refRep.Drain.Objects[i].Cost
			refStreams += refRep.Drain.Objects[i].Streams
		}
		if cost != refCost || streams != refStreams {
			return Result{}, fmt.Errorf("experiments: %s restored run cost %g/%d streams != uninterrupted %g/%d (crash-recovery equivalence broken)",
				strategy, cost, streams, refCost, refStreams)
		}
		if got, want := dr.Stats.Admitted+dr.Stats.Degraded+dr.Stats.Rejected, int64(len(reqs)); got != want {
			return Result{}, fmt.Errorf("experiments: %s restored run accounts %d requests, want %d", strategy, got, want)
		}
		// Each durable WAL frame is the fixed record plus framing overhead.
		const walFrameBytes = 28
		tab.AddRow(strategy, len(reqs), cut, cost, streams, walBytes/walFrameBytes, disk.Snapshots())
	}
	return Result{
		ID:    "ext-crash-recovery",
		Title: "Extension: kill-and-restore recovery is bit-identical, per strategy",
		Table: tab,
		Notes: fmt.Sprintf("%d objects, Zipf(%g), horizon %g, seed %d, epoch %d slots, %d shards: a durable server killed after %d of its requests and restored from the surviving snapshot+WAL finishes the trace to exactly the uninterrupted run's drained cost and stream totals (verified per row); wal_records and snapshots are the durable state the recovery replayed",
			cfg.Objects, cfg.ZipfExponent, cfg.Horizon, cfg.Seed, cfg.EpochSlots, cfg.Shards, cut),
	}, nil
}
