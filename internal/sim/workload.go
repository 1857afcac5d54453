package sim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/arrivals"
	"repro/internal/bandwidth"
	"repro/internal/multiobject"
	"repro/internal/online"
	"repro/internal/schedule"
)

// WorkloadConfig describes a multi-object simulation: a catalog of media
// objects served by one delay-guaranteed server, with an arrival mix split
// across the objects proportionally to their popularities.
type WorkloadConfig struct {
	// Catalog is the set of media objects (lengths, popularities, per-object
	// guaranteed delays).
	Catalog multiobject.Catalog
	// Horizon is the simulated time span in the catalog's time units.
	Horizon float64
	// MeanInterArrival is the aggregate mean inter-arrival time across the
	// whole catalog, in time units; object i receives a share of the request
	// stream proportional to its popularity.
	MeanInterArrival float64
	// Poisson selects Poisson arrivals; otherwise each object sees
	// constant-rate arrivals at its share of the aggregate rate.
	Poisson bool
	// Seed seeds the Poisson generators (object i uses Seed+i).
	Seed int64
	// Workers is the per-object engine worker count (<= 0: all CPUs).
	Workers int
}

// ObjectResult is the simulated outcome for one media object.
type ObjectResult struct {
	// Object echoes the catalog entry.
	Object multiobject.Object
	// SlotsPerMedia is L for this object (its length in delay slots).
	SlotsPerMedia int64
	// Arrivals is the number of raw requests for this object.
	Arrivals int
	// Clients is the number of simulated (batched) clients: slots with at
	// least one arrival, each served as one imaginary client at the slot
	// boundary per the delay-guaranteed model.
	Clients int
	// Sim is the indexed engine's result for this object's schedule.
	Sim *Result
	// StreamCount is the number of streams the broadcast plan starts for
	// this object (one per slot of the widened horizon).
	StreamCount int
	// Streams is the measured total bandwidth in complete copies of the
	// object.
	Streams float64
}

// WorkloadResult aggregates a multi-object run.
type WorkloadResult struct {
	// Horizon is the simulated time span in time units.
	Horizon float64
	// Objects holds per-object results in catalog order.
	Objects []ObjectResult
	// TotalBusyTime is the aggregate channel time used, in time units.
	TotalBusyTime float64
	// Peak is the server-wide peak number of simultaneously busy channels
	// across all objects, in real time.
	Peak int
	// Stalls is the total number of playback interruptions over all objects;
	// it must be 0.
	Stalls int
}

// AverageChannels returns the time-average number of busy channels.
func (r *WorkloadResult) AverageChannels() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return r.TotalBusyTime / r.Horizon
}

// RunWorkload simulates every object of the catalog on the indexed engine
// and merges the per-object channel usage into a server-wide real-time
// profile.  Each object runs the on-line delay-guaranteed algorithm for its
// own delay: the server obliviously starts a (possibly truncated) stream at
// the end of every slot, and the requests that arrived during a slot are
// served as one imaginary batched client.  Slots with no arrivals simply
// have no client to simulate — the broadcast plan, and therefore the
// bandwidth, is that of the on-line algorithm either way, which is what
// makes the delay-guaranteed server's cost workload-oblivious (Section 4.2).
//
// Large catalogs can take seconds, so RunWorkload honors ctx: cancellation
// is observed between objects (one object's simulation is the work unit)
// and the error wraps ctx.Err().
func RunWorkload(ctx context.Context, cfg WorkloadConfig) (*WorkloadResult, error) {
	if err := cfg.Catalog.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Catalog) == 0 {
		return nil, fmt.Errorf("sim: workload catalog is empty")
	}
	if !(cfg.Horizon > 0) || math.IsInf(cfg.Horizon, 1) {
		return nil, fmt.Errorf("sim: workload horizon must be positive and finite, got %g", cfg.Horizon)
	}
	if !(cfg.MeanInterArrival > 0) || math.IsInf(cfg.MeanInterArrival, 1) {
		return nil, fmt.Errorf("sim: workload mean inter-arrival must be positive and finite, got %g", cfg.MeanInterArrival)
	}
	var popTotal float64
	for _, o := range cfg.Catalog {
		popTotal += o.Popularity
	}
	usage := bandwidth.New()
	out := &WorkloadResult{Horizon: cfg.Horizon}
	for i, o := range cfg.Catalog {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: workload canceled: %w", err)
		}
		// Object i's share of the aggregate request rate.
		share := 1 / float64(len(cfg.Catalog))
		if popTotal > 0 {
			share = o.Popularity / popTotal
		}
		var tr arrivals.Trace
		if share > 0 {
			mean := cfg.MeanInterArrival / share
			if cfg.Poisson {
				tr = arrivals.Poisson(mean, cfg.Horizon, cfg.Seed+int64(i))
			} else {
				tr = arrivals.Constant(mean, cfg.Horizon)
			}
		}
		obj, err := runWorkloadObject(o, tr, cfg.Horizon, cfg.Workers, usage)
		if err != nil {
			return nil, fmt.Errorf("sim: object %q: %w", o.Name, err)
		}
		out.Objects = append(out.Objects, obj)
		out.Stalls += obj.Sim.Stalls
	}
	out.TotalBusyTime = usage.Total()
	out.Peak = usage.Peak()
	return out, nil
}

// runWorkloadObject simulates a single object: it builds the on-line
// delay-guaranteed broadcast plan for the object's horizon, keeps receiving
// programs only for the slots in which at least one request arrived, runs
// the indexed engine, and adds the object's channel usage (scaled back to
// real time) to the server-wide profile.
func runWorkloadObject(o multiobject.Object, tr arrivals.Trace, horizon float64, workers int, usage *bandwidth.Usage) (ObjectResult, error) {
	L := o.Slots()
	// Batch the raw requests into delay slots; each occupied slot is one
	// imaginary client, served from the slot boundary with zero start delay.
	// The horizon in slots matches the analytic plan (multiobject.Build),
	// widened only if floating-point batching lands an arrival beyond it.
	occupied := tr.BatchToSlots(o.Delay)
	n := int64(math.Ceil(horizon / o.Delay))
	if n < 1 {
		n = 1
	}
	for _, slot := range occupied {
		if slot >= n {
			n = slot + 1
		}
	}
	forest := online.NewServer(L).Forest(n)
	// The broadcast plan is independent of the arrivals, so programs are
	// built only for the occupied slots — sparse traces skip nearly all of
	// the program-construction work.
	fs, err := schedule.BuildClients(forest, occupied)
	if err != nil {
		return ObjectResult{}, err
	}
	res, err := RunScheduleWorkers(fs, workers)
	if err != nil {
		return ObjectResult{}, err
	}
	// Feed the server-wide profile in sorted stream order so the float
	// accumulation (and therefore the reported busy time) is deterministic.
	starts := make([]int64, 0, len(fs.Streams))
	for a := range fs.Streams {
		starts = append(starts, a)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, a := range starts {
		s := fs.Streams[a]
		usage.AddLength(float64(s.Start)*o.Delay, float64(s.Length)*o.Delay)
	}
	return ObjectResult{
		Object:        o,
		SlotsPerMedia: L,
		Arrivals:      len(tr),
		Clients:       len(fs.Programs),
		Sim:           res,
		StreamCount:   len(fs.Streams),
		Streams:       float64(res.TotalBandwidth) / float64(L),
	}, nil
}
