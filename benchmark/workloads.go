package main

import (
	"fmt"
	"math"

	"repro/internal/multiobject"
	"repro/internal/serve"
)

// Traffic shared by every workload: a 64-object Zipf(1) catalog of
// unit-length media with a guaranteed start-up delay of 2% of the length
// (50 slots per media), and an aggregate mean inter-arrival time of 0.001
// media lengths.  serve.GenerateRequests builds the trace from the seed;
// requests carry their virtual timestamps, so bandwidth is deterministic.
const (
	catalogObjects   = 64
	zipfExponent     = 1.0
	mediaLength      = 1.0
	delayShare       = 0.02
	meanInterArrival = 0.001
	flashFactor      = 4 // flash crowd: 4x the base rate over the middle fifth
)

// workload is one traffic mix and the server it runs against.
type workload struct {
	name     string
	strategy string
	arrivals serve.ArrivalKind
	// wire workloads send single POST /v1/request calls from a generator
	// process; the others submit in-process through Server.SubmitBatch.
	wire bool
	// durable workloads serve from a store.File at the default sync level
	// and snapshot cadence, restored from a store prepared untimed.
	durable bool
	// readEvery makes every readEvery-th wire operation an operator read
	// (GET /v1/metrics or /v1/stats); 0 sends admissions only.
	readEvery int
	// openRate is the open-loop phase's offered load in operations/s:
	// light enough that the server is mostly idle, so the phase measures
	// latency rather than queueing.
	openRate float64
	// satWindows is the number of saturation windows: at 15 s runs each
	// lasts about 0.1 s, and holds one operator read on wire-durable.
	satWindows int
	// nominal holds the costs of the workload's references on the
	// calibration host (see reference.go and calibration below).
	nominal refCosts
	// satRate is the nominal closed-loop admission rate (requests/s) on a
	// 2-vCPU host.  It sizes the warm-up and saturation phases as fixed
	// request counts, so every run leaves the server holding the same
	// history (heap_live_mb, mean_channels) however fast the host is.
	satRate float64
}

// workloads lists the benchmark's traffic mixes.
//
//   - wire-online: HTTP does most of the work and admission little, so an
//     HTTP or submit-path change shows here and must not move the batch
//     workload.
//   - batch-offline-flash: the off-line DP does about two thirds of the
//     work, so a DP change shows here and must not move the wire
//     workloads.
//   - wire-durable: group commit, WAL flushes, snapshots and restore run
//     only here; reads share the shard loops with admissions, and the
//     difference to wire-online is the cost of durability.
//
// Calibration: each nominal cost is the median, over five runs (seeds
// 1-5, --seconds 15, --trace 0), of the reference cost the run printed
// on its "reference raw" line, measured on a 2-vCPU Intel Xeon VM
// (nproc 2, GOMAXPROCS 2, Go 1.24.0, Linux 6.18) at 1-20% steal.
var workloads = []workload{
	{name: "wire-online", strategy: "online", arrivals: serve.PoissonArrivals, wire: true, openRate: 500, satWindows: 30, satRate: 15000,
		nominal: refCosts{setupS: 0.000340, latMS: 0.292, cpuUS: 45.4}},
	{name: "batch-offline-flash", strategy: "offline", arrivals: serve.FlashArrivals,
		nominal: refCosts{setupS: 0.0000150, latMS: 1.19, cpuUS: 2000}},
	{name: "wire-durable", strategy: "online", arrivals: serve.PoissonArrivals, wire: true, durable: true, readEvery: 100, openRate: 100, satWindows: 24, satRate: 800,
		nominal: refCosts{setupS: 0.0524, latMS: 0.368, cpuUS: 4360}},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// sizes fixes how much work one pass of a workload does.
type sizes struct {
	// horizon is the trace length in media lengths.
	horizon float64
	// prefix is the number of admissions the untimed store preparation
	// makes before a wire-durable run restores it.
	prefix int
	// warm, open and sat are the admissions of the wire phases: closed-loop
	// warm-up, open loop at openRate operations/s, closed-loop saturation.
	warm, open, sat int
	openRate        float64
	// windows splits the open loop into measurement windows, and
	// satWindows the saturation phase into program windows, each followed
	// by a reference window of the same length.
	windows, satWindows int
	// setups is how many times a run times its set-up; the median counts.
	setups int
	// batch is the SubmitBatch size of the in-process workload, and
	// seconds how long its measured iterations run.
	batch   int
	seconds float64
}

// sizesFor scales a workload to a run of the given length.  A wire run
// spends about 10% of it warming up, 35% in the open loop and 40% at
// saturation, each shared with the reference exchange; the batch
// workload replays a fixed 200-media-length flash trace (about 320k
// requests, 20 replanning epochs per object) as many times as fit.
func sizesFor(w workload, seconds int) sizes {
	s := float64(seconds)
	z := sizes{openRate: w.openRate, windows: 10, satWindows: w.satWindows, setups: 101, batch: 500, seconds: s}
	if !w.wire {
		z.horizon = 200
		return z
	}
	z.warm = int(w.satRate * 0.05 * s)
	z.open = int(z.openRate * 0.35 * s)
	z.sat = int(w.satRate * 0.2 * s)
	if w.durable {
		// Restart recovery after a 150k-request history: snapshot load,
		// decode and WAL-tail replay.  Each set-up restores a fresh copy.
		z.prefix = 150000
		z.setups = 31
		// A restored shard snapshots again after 512 slots of the 0.02
		// delay, about 10.2k requests; 8k warm-up admissions put that
		// boundary inside the measured windows.
		z.warm = 8000
	}
	z.horizon = wireHorizon(z)
	return z
}

// wireHorizon is a trace length that holds every request a wire pass
// sends, with room for Poisson variation.
func wireHorizon(z sizes) float64 {
	need := z.prefix + z.warm + z.open + z.sat
	return math.Ceil(float64(need)*meanInterArrival*1.1) + 10
}

func catalog() multiobject.Catalog {
	return multiobject.ZipfCatalog(catalogObjects, mediaLength, mediaLength*delayShare, zipfExponent)
}

// makeTrace generates the workload's request trace from the seed.  The
// server process and the generator process both call it, so the program
// only ever sees generated inputs.
func makeTrace(w workload, seed int64, horizon float64) ([]serve.Request, error) {
	return serve.GenerateRequests(catalog(), serve.LoadConfig{
		Horizon:          horizon,
		MeanInterArrival: meanInterArrival,
		Kind:             w.arrivals,
		RampFactor:       flashFactor,
		Seed:             seed,
	})
}

// serverConfig is the server as `modserve -mode serve` ships it: shards =
// GOMAXPROCS, stage metering on, no channel cap, no backpressure.
func serverConfig(w workload) serve.Config {
	return serve.Config{
		Catalog:         catalog(),
		DefaultStrategy: w.strategy,
		MeterStages:     true,
	}
}
