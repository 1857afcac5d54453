// Command modsim runs the Media-on-Demand delivery simulator.
//
// In "offline" mode it builds the optimal merge forest for a given media
// length and horizon, executes it slot by slot with the discrete-event
// engine, and reports bandwidth, peak bandwidth, buffer occupancy, and
// playback correctness.  In "online" mode it does the same for the on-line
// delay-guaranteed algorithm.  In "compare" mode it reproduces one point of
// the Figs. 11-12 comparison for a chosen arrival intensity.
//
// In "workload" mode it simulates a whole catalog of media objects at once
// (Zipf popularities, Poisson or constant-rate arrival mixes) on the indexed
// parallel engine and reports per-object and server-wide channel usage.
//
// Everything is reached through the public facade (repro/mod): forests and
// schedules via the slotted wrappers, policies via the planner registry,
// and the workload simulator via mod.RunWorkload.  SIGINT/SIGTERM cancel
// the run (the off-line DP and the sweeps abort mid-flight).
//
// Usage:
//
//	modsim -mode offline -L 100 -n 1000
//	modsim -mode online  -L 100 -n 1000
//	modsim -mode compare -delay 1 -lambda 0.5 -horizon 100 -poisson
//	modsim -mode workload -objects 10 -zipf 1 -delay 2 -lambda 0.5 -horizon 20 -poisson -seed 1
//
// The -seed flag fixes the generated arrival traces (object i of a
// workload uses seed+i), so every published number is reproducible from
// the command line; modserve's load generator accepts the same flag.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"

	"repro/mod"
)

func main() {
	mode := flag.String("mode", "offline", "offline | online | compare | workload")
	L := flag.Int64("L", 100, "media length in slots (offline/online modes)")
	n := flag.Int64("n", 1000, "time horizon in slots (offline/online modes)")
	buffer := flag.Int64("buffer", 0, "client buffer bound in slots (0 = unbounded, offline mode)")
	delayPct := flag.Float64("delay", 1.0, "guaranteed start-up delay as %% of media length (compare/workload modes)")
	lambdaPct := flag.Float64("lambda", 0.5, "mean inter-arrival time as %% of media length (compare/workload modes)")
	horizon := flag.Float64("horizon", 100, "time horizon in media lengths (compare/workload modes)")
	poisson := flag.Bool("poisson", false, "use Poisson instead of constant-rate arrivals (compare/workload modes)")
	seed := flag.Int64("seed", 1, "random seed for the arrival traces (compare/workload modes; a fixed seed makes the run reproducible)")
	objects := flag.Int("objects", 10, "catalog size (workload mode)")
	zipf := flag.Float64("zipf", 1.0, "Zipf popularity exponent (workload mode)")
	workers := flag.Int("workers", 0, "simulation worker goroutines (0 = all CPUs)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	switch *mode {
	case "offline", "online":
		var forest *mod.Forest
		if *mode == "offline" {
			if *buffer > 0 {
				forest = mod.OfflineForestBuffered(*L, *buffer, *n)
			} else {
				forest = mod.OfflineForest(*L, *n)
			}
		} else {
			forest = mod.OnlineForest(*L, *n)
		}
		fs, err := mod.BuildSchedule(forest)
		exitOn(err)
		res, err := mod.Simulate(fs, *workers)
		exitOn(err)
		fmt.Printf("algorithm:            %s\n", *mode)
		fmt.Printf("media length L:       %d slots\n", *L)
		fmt.Printf("horizon n:            %d slots (%d clients)\n", *n, len(res.Clients))
		fmt.Printf("full streams:         %d\n", forest.Streams())
		fmt.Printf("total bandwidth:      %d slot-units (%.2f media streams)\n", res.TotalBandwidth, res.NormalizedBandwidth())
		fmt.Printf("average bandwidth:    %.2f channels\n", res.AverageBandwidth())
		fmt.Printf("peak bandwidth:       %d channels\n", res.PeakBandwidth)
		fmt.Printf("max client buffer:    %d slots\n", res.MaxBuffer)
		fmt.Printf("playback stalls:      %d\n", res.Stalls)
		if *mode == "online" {
			fmt.Printf("optimal offline cost: %d slot-units (ratio %.4f)\n",
				mod.OfflineCost(*L, *n), float64(res.TotalBandwidth)/float64(mod.OfflineCost(*L, *n)))
		}
		if res.Stalls > 0 {
			fmt.Fprintln(os.Stderr, "modsim: schedule produced playback interruptions")
			os.Exit(1)
		}
	case "compare":
		delay := *delayPct / 100
		lambda := *lambdaPct / 100
		if !positiveFinite(delay, lambda, *horizon) {
			fmt.Fprintln(os.Stderr, "modsim: -delay, -lambda and -horizon must be positive and finite")
			os.Exit(2)
		}
		slotsPerMedia := int64(math.Round(1 / delay))
		var tr []float64
		if *poisson {
			tr = mod.Poisson(lambda, *horizon, *seed)
		} else {
			tr = mod.Constant(lambda, *horizon)
		}
		// The Figs. 11-12 planner set from the registry, served across the
		// worker pool; costs are identical to a serial run.
		inst := mod.Instance{Arrivals: tr, Horizon: *horizon}
		opts := []mod.Option{
			mod.WithMediaLength(1), mod.WithDelay(delay),
			mod.WithPoisson(*poisson), mod.WithWorkers(*workers),
		}
		costs, err := mod.Compare(ctx, mod.StandardNames(), inst, opts...)
		exitOn(err)
		fmt.Printf("arrivals:             %d (%s, lambda = %.2f%% of media length)\n", len(tr), kind(*poisson), *lambdaPct)
		fmt.Printf("delay:                %.2f%% of media length (L = %d slots)\n", *delayPct, slotsPerMedia)
		fmt.Printf("horizon:              %.0f media lengths\n", *horizon)
		fmt.Println()
		fmt.Printf("immediate dyadic:     %10.2f media streams\n", costs["dyadic"])
		fmt.Printf("batched dyadic:       %10.2f media streams\n", costs["dyadic-batched"])
		fmt.Printf("delay-guaranteed:     %10.2f media streams\n", costs["online"])
		fmt.Printf("hybrid (Section 5):   %10.2f media streams\n", costs["hybrid"])
		fmt.Printf("pure batching:        %10.2f media streams\n", costs["batching"])
		fmt.Printf("unicast (no sharing): %10.2f media streams\n", costs["unicast"])
		// With few enough batched arrivals, also print the exact off-line
		// lower bound for delay-permitted service.  The banded flat DP of
		// internal/offline accepts an order of magnitude more arrivals than
		// the old full-table implementation.
		if batched := mod.BatchTimes(tr, delay); len(batched) <= 40000 {
			plan, err := mod.MustNew("offline-batched", opts...).Plan(ctx, inst, mod.WithMaxArrivals(40000))
			exitOn(err)
			fmt.Printf("offline optimum:      %10.2f media streams (exact lower bound with this delay)\n", plan.Cost)
		}
	case "workload":
		delay := *delayPct / 100
		lambda := *lambdaPct / 100
		if !positiveFinite(delay, lambda, *horizon) || *objects < 1 {
			fmt.Fprintln(os.Stderr, "modsim: -delay, -lambda and -horizon must be positive and finite, and -objects positive")
			os.Exit(2)
		}
		res, err := mod.RunWorkload(ctx, mod.WorkloadConfig{
			Catalog:          mod.ZipfCatalog(*objects, 1.0, delay, *zipf),
			Horizon:          *horizon,
			MeanInterArrival: lambda,
			Poisson:          *poisson,
			Seed:             *seed,
			Workers:          *workers,
		})
		exitOn(err)
		fmt.Printf("catalog:              %d objects, Zipf(%.2f) popularity\n", *objects, *zipf)
		fmt.Printf("arrivals:             %s, aggregate lambda = %.2f%% of media length\n", kind(*poisson), *lambdaPct)
		fmt.Printf("delay:                %.2f%% of media length\n", *delayPct)
		fmt.Printf("horizon:              %.0f media lengths\n", *horizon)
		fmt.Println()
		fmt.Printf("%-12s %8s %8s %8s %12s %8s %8s\n",
			"object", "L", "arrivals", "clients", "streams", "peak", "stalls")
		for _, o := range res.Objects {
			fmt.Printf("%-12s %8d %8d %8d %12.2f %8d %8d\n",
				o.Object.Name, o.SlotsPerMedia, o.Arrivals, o.Clients,
				o.Streams, o.Sim.PeakBandwidth, o.Sim.Stalls)
		}
		fmt.Println()
		fmt.Printf("server peak:          %d channels\n", res.Peak)
		fmt.Printf("server average:       %.2f channels\n", res.AverageChannels())
		fmt.Printf("total busy time:      %.2f media lengths\n", res.TotalBusyTime)
		fmt.Printf("playback stalls:      %d\n", res.Stalls)
		if res.Stalls > 0 {
			fmt.Fprintln(os.Stderr, "modsim: workload produced playback interruptions")
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "modsim: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

// positiveFinite reports whether every flag value is positive and finite:
// a NaN or infinite horizon or rate would never end a trace generator.
func positiveFinite(xs ...float64) bool {
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return false
		}
	}
	return true
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "modsim:", err)
		os.Exit(1)
	}
}

func kind(poisson bool) string {
	if poisson {
		return "Poisson"
	}
	return "constant rate"
}
