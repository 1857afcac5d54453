// Command modserve runs the live Media-on-Demand admission server and its
// closed-loop load generator.
//
// In "serve" mode it starts the sharded admission server (via the public
// mod facade) over a Zipf catalog and exposes the versioned HTTP JSON API
// — POST /v1/request, POST /v1/requests (batch), GET /v1/stats,
// GET /v1/objects/{name}, GET /v1/healthz, and GET /v1/metrics in the
// Prometheus text exposition format — shutting down gracefully on
// SIGINT/SIGTERM.  Stage metering is on by default (-meter=false
// disables it): every admission records queue wait, planning,
// epoch-replanning, and respond durations into the /v1/metrics
// histograms.  -pressure N turns on queue-depth backpressure: submits
// routed to a shard holding more than N queued requests answer 429 with a
// Retry-After derived from the shard's drain rate.  Every object is served live by the planner family
// named with -strategy (any name in mod.LivePlanners(): the natively
// incremental "online" forest, or epoch-replanned "offline", "dyadic",
// "batching", "hybrid", ...).  -snapshot-dir DIR turns on durable state:
// every admission is WAL-logged before its ticket is acknowledged and
// shards snapshot their full scheduler state every -snapshot-epochs
// epochs (POST /v1/admin/snapshot forces one); -restore warm-restarts
// from the directory's latest snapshots, resuming ticket numbering where
// the previous process stopped.  A SIGINT/SIGTERM shutdown checkpoints
// every shard, so its restart replays no WAL; after kill -9 the restore
// replays the WAL tail logged since the last snapshot.  -sync picks the WAL
// group-commit barrier: "os" (the default) flushes to the operating
// system before acknowledging and survives process kill, "full" also
// fsyncs — one fsync per group commit, shared by every acknowledgement
// in the batch — and survives power loss, "none" leaves commit timing
// to the store's buffering.  In "load" mode it
// replays a deterministic Poisson/constant/ramp/flash-crowd request trace
// against a running server over HTTP and reports latency, admission, and
// delay histograms; -skipreqs/-maxreqs window the trace so a
// kill-and-restore run can replay exactly the remainder after a restart.  In
// "bench" mode it sweeps a standard workload benchmark matrix — every
// -workloads arrival process x -sizes catalog size x -shardgrid shard
// count, replaying each cell's deterministic trace in-process once per
// strategy in -strategies — measuring single-submit throughput, batched
// SubmitBatch throughput (one channel send per shard per 500-entry
// batch), per-request admission latency, and warm-start epoch replanning
// (replans, warm hits, DP cells reused vs recomputed, replan latency),
// plus the per-stage latency decomposition (queue/plan/replan p50 and p99
// from the server's histograms).  For the "online" strategy each cell
// additionally measures durable throughput on a file-backed store with 8
// concurrent submitters through the group-commit WAL, plus the
// flushes-per-request coalescing factor — and the grid is written to
// -out (BENCH_serve.json by default, version 4) so the repository's
// serving performance is tracked across changes; -csv FILE additionally
// dumps one row per replayed request (grid coordinates, ticket, and
// per-stage nanosecond timings) for offline analysis.  In "smoke" mode it
// starts a server on a random port, fires the load driver at it, scrapes
// /v1/metrics, and exits cleanly (the CI smoke step).
//
// The -seed flag fixes the request traces: bench cell seeds derive from
// grid coordinates alone (never shard count, strategy, or scheduling
// order), so every published number is reproducible from the command
// line on any machine.
//
// Usage:
//
//	modserve -mode serve -addr :8377 -objects 100 -zipf 1 -delay 2 -cap 200 -strategy online
//	modserve -mode serve -addr :8377 -snapshot-dir /var/lib/modserve -sync full -restore
//	modserve -mode load -addr http://localhost:8377 -lambda 0.5 -horizon 20 -arrivals poisson -seed 7
//	modserve -mode bench -workloads poisson,flash -sizes 8,16 -shardgrid 1,2 -lambda 0.5 -horizon 20 -strategies online,dyadic,batching -out BENCH_serve.json
//	modserve -mode smoke
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/mod"
)

func main() {
	mode := flag.String("mode", "serve", "serve | load | bench | smoke")
	addr := flag.String("addr", ":8377", "listen address (serve) or target base URL (load)")
	objects := flag.Int("objects", 20, "catalog size")
	zipf := flag.Float64("zipf", 1.0, "Zipf popularity exponent")
	length := flag.Float64("length", 1.0, "media length in time units")
	delayPct := flag.Float64("delay", 2.0, "guaranteed start-up delay as %% of media length")
	capacity := flag.Int("cap", 0, "channel cap for the admission controller (0 = unlimited)")
	shards := flag.Int("shards", 0, "scheduler shards (0 = GOMAXPROCS)")
	step := flag.Float64("step", 1.25, "delay scale step on degradation")
	maxScale := flag.Float64("maxscale", 8, "maximum delay scale before rejecting")
	strategy := flag.String("strategy", "online", "live serving strategy (a mod.LivePlanners() name)")
	epoch := flag.Int("epoch", 0, "epoch replanning period in slots for batch strategies (0 = server default)")
	pressure := flag.Int("pressure", 0, "per-shard queue high-water mark for 429 backpressure (0 = off)")
	meter := flag.Bool("meter", true, "record per-request stage latency histograms (GET /v1/metrics)")
	csvPath := flag.String("csv", "", "bench: per-request CSV dump file (empty = none)")
	strategies := flag.String("strategies", "all", "bench: comma-separated strategies, or \"all\"")
	workloads := flag.String("workloads", "all", "bench: comma-separated arrival kinds (constant|poisson|ramp|flash), or \"all\"")
	sizes := flag.String("sizes", "", "bench: comma-separated catalog sizes (empty = -objects)")
	shardGrid := flag.String("shardgrid", "", "bench: comma-separated shard counts (empty = -shards)")
	out := flag.String("out", "BENCH_serve.json", "bench: machine-readable output file (empty = none)")
	horizon := flag.Float64("horizon", 20, "load horizon in media lengths (load/bench/smoke)")
	lambdaPct := flag.Float64("lambda", 0.5, "aggregate mean inter-arrival time as %% of media length")
	arrKind := flag.String("arrivals", "poisson", "arrival process: constant | poisson | ramp | flash (load/smoke; bench uses -workloads)")
	rampFactor := flag.Float64("ramp", 4, "final/initial rate ratio for -arrivals ramp")
	seed := flag.Int64("seed", 1, "random seed for the request trace (fixed seed = reproducible run)")
	conc := flag.Int("conc", 8, "concurrent connections for -mode load")
	timeUnit := flag.Duration("timeunit", time.Second, "wall-clock duration of one catalog time unit (serve)")
	snapDir := flag.String("snapshot-dir", "", "durability directory (snapshot + WAL per shard); empty = no durability (serve/smoke)")
	snapEpochs := flag.Int("snapshot-epochs", 0, "snapshot cadence in epochs (0 = server default)")
	syncFlag := flag.String("sync", "os", "WAL group-commit barrier: none | os | full (with -snapshot-dir)")
	restore := flag.Bool("restore", false, "warm-restart: restore state from -snapshot-dir before serving")
	maxReqs := flag.Int("maxreqs", 0, "load: replay at most N requests of the trace (0 = all)")
	skipReqs := flag.Int("skipreqs", 0, "load: skip the first N requests of the trace")
	flag.Parse()

	cat := mod.ZipfCatalog(*objects, *length, *length**delayPct/100, *zipf)
	cfg := mod.ServeConfig{
		Catalog:           cat,
		Shards:            *shards,
		MaxChannels:       *capacity,
		DegradeStep:       *step,
		MaxDelayScale:     *maxScale,
		TimeUnit:          *timeUnit,
		DefaultStrategy:   *strategy,
		EpochSlots:        *epoch,
		PressureHighWater: *pressure,
		MeterStages:       *meter,
		SnapshotEpochs:    *snapEpochs,
	}
	syncMode, err := mod.ParseSyncMode(*syncFlag)
	exitOn(err)
	cfg.SyncMode = syncMode
	if *snapDir != "" {
		fs, err := mod.NewFileStore(*snapDir)
		exitOn(err)
		cfg.Store = fs
		cfg.OwnStore = true // the server closes the store it was handed
		cfg.Restore = *restore
	} else if *restore {
		exitOn(fmt.Errorf("-restore requires -snapshot-dir"))
	}
	load := mod.LoadConfig{
		Horizon:          *horizon,
		MeanInterArrival: *length * *lambdaPct / 100,
		RampFactor:       *rampFactor,
		Seed:             *seed,
	}
	kind, err := arrivalKind(*arrKind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "modserve:", err)
		os.Exit(2)
	}
	load.Kind = kind

	switch *mode {
	case "serve":
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		s, err := mod.NewServer(cfg)
		exitOn(err)
		if cfg.Restore {
			fmt.Printf("modserve: restored durable state from %s\n", *snapDir)
		}
		err = mod.ListenAndServe(ctx, *addr, s, func(bound string) {
			fmt.Printf("modserve: serving %d objects on %s (strategy %s, cap %d, %s per time unit)\n",
				len(cat), bound, *strategy, *capacity, *timeUnit)
		})
		exitOn(err)
		fmt.Println("modserve: shut down cleanly")
	case "load":
		base := *addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		reqs, err := mod.GenerateRequests(cat, load)
		exitOn(err)
		// -skipreqs/-maxreqs window the deterministic trace so a kill-and-
		// restore run can replay "the rest of the trace" after a restart.
		if *skipReqs > 0 {
			if *skipReqs > len(reqs) {
				*skipReqs = len(reqs)
			}
			reqs = reqs[*skipReqs:]
		}
		if *maxReqs > 0 && *maxReqs < len(reqs) {
			reqs = reqs[:*maxReqs]
		}
		fmt.Printf("modserve: replaying %d requests (%s, seed %d) against %s with %d connections\n",
			len(reqs), load.Kind, *seed, base, *conc)
		rep, err := mod.RunHTTPDriver(context.Background(), base, reqs, *conc)
		exitOn(err)
		rep.Render(os.Stdout)
	case "bench":
		grid, err := benchGridConfig(*workloads, *sizes, *shardGrid, *objects, *shards)
		exitOn(err)
		exitOn(bench(cfg, load, grid, benchList(*strategies), *length, *delayPct, *zipf, *out, *csvPath))
	case "smoke":
		exitOn(smoke(cfg, load, *conc))
		fmt.Println("modserve: smoke ok")
	default:
		fmt.Fprintf(os.Stderr, "modserve: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

// benchList resolves the -strategies flag.
func benchList(s string) []string {
	if s == "" || s == "all" {
		return mod.LivePlanners()
	}
	return strings.Split(s, ",")
}

// arrivalKind resolves an arrival-process name.
func arrivalKind(name string) (mod.ArrivalKind, error) {
	switch name {
	case "constant":
		return mod.ConstantArrivals, nil
	case "poisson":
		return mod.PoissonArrivals, nil
	case "ramp":
		return mod.RampArrivals, nil
	case "flash":
		return mod.FlashArrivals, nil
	}
	return 0, fmt.Errorf("unknown arrival kind %q", name)
}

// benchGrid is the benchmark matrix: every workload x catalog size x shard
// count combination is one cell, and every strategy is replayed inside
// every cell.
type benchGrid struct {
	workloads []mod.ArrivalKind
	sizes     []int
	shards    []int
}

// benchGridConfig resolves the bench grid flags; empty -sizes/-shardgrid
// collapse those axes to the base -objects/-shards values.
func benchGridConfig(workloads, sizes, shardGrid string, objects, shards int) (benchGrid, error) {
	var g benchGrid
	if workloads == "" || workloads == "all" {
		workloads = "constant,poisson,ramp,flash"
	}
	for _, name := range strings.Split(workloads, ",") {
		k, err := arrivalKind(name)
		if err != nil {
			return g, err
		}
		g.workloads = append(g.workloads, k)
	}
	var err error
	if g.sizes, err = parseInts(sizes, objects); err != nil {
		return g, fmt.Errorf("bad -sizes: %v", err)
	}
	if g.shards, err = parseInts(shardGrid, shards); err != nil {
		return g, fmt.Errorf("bad -shardgrid: %v", err)
	}
	return g, nil
}

// parseInts parses a comma-separated int list, defaulting to [fallback].
func parseInts(s string, fallback int) ([]int, error) {
	if s == "" {
		return []int{fallback}, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// benchResult is one strategy's row inside a grid cell of BENCH_serve.json.
// reqs_per_sec times the per-request Submit path; batch_reqs_per_sec times
// the same trace through SubmitBatch in 500-entry batches (one channel
// send per shard per batch), so the two columns are the single-vs-batched
// submission comparison.  The replan columns aggregate the per-object
// ReplanStats of the drained run: every epoch close is one replan, warm
// ones reused the retained state, and the cell counters split the off-line
// DP work into band cells carried over versus filled fresh.
// The stage columns come from the server's own latency decomposition
// (Config.MeterStages): per-admission queue wait, planning, and
// epoch-replan share, as p50/p99 of the merged stage histograms.
// The durable columns (version 4, "online" rows only) replay the trace on
// a file-backed store with 16 concurrent submitters: durable_reqs_per_sec
// is the group-commit pipeline at the default "os" sync level, and
// wal_flushes_per_req the group-commit coalescing factor (store flushes
// divided by acknowledged requests).
type benchResult struct {
	Strategy         string  `json:"strategy"`
	Requests         int     `json:"requests"`
	Admitted         int     `json:"admitted"`
	Degraded         int     `json:"degraded"`
	Rejected         int     `json:"rejected"`
	RejectedPressure int64   `json:"rejected_pressure"`
	ReqsPerSec       float64 `json:"reqs_per_sec"`
	BatchReqsPerSec  float64 `json:"batch_reqs_per_sec"`
	P50LatencyUS     float64 `json:"p50_admission_latency_us"`
	P99LatencyUS     float64 `json:"p99_admission_latency_us"`
	QueueP50US       float64 `json:"queue_p50_us"`
	QueueP99US       float64 `json:"queue_p99_us"`
	PlanP50US        float64 `json:"plan_p50_us"`
	PlanP99US        float64 `json:"plan_p99_us"`
	ReplanP50US      float64 `json:"replan_p50_us"`
	ReplanP99US      float64 `json:"replan_p99_us"`
	Replans          int64   `json:"replans"`
	WarmReplans      int64   `json:"warm_replans"`
	CellsReused      int64   `json:"cells_reused"`
	CellsRecomputed  int64   `json:"cells_recomputed"`
	ReplanTotalUS    float64 `json:"replan_total_us"`
	MaxReplanUS      float64 `json:"max_replan_us"`
	CostStreams      float64 `json:"cost_streams"`
	BusyTime         float64 `json:"busy_time"`
	Peak             int     `json:"peak"`

	DurableReqsPerSec float64 `json:"durable_reqs_per_sec,omitempty"`
	WALFlushesPerReq  float64 `json:"wal_flushes_per_req,omitempty"`
}

// benchCell is one grid cell: a workload x catalog size x shard count
// combination with one result row per strategy.  The cell seed derives
// from the workload and size grid coordinates alone — never from shard
// count, strategy, or scheduling order — so the same -seed reproduces the
// identical request trace in every cell however the sweep is arranged.
type benchCell struct {
	Workload string        `json:"workload"`
	Objects  int           `json:"objects"`
	Shards   int           `json:"shards"`
	Seed     int64         `json:"seed"`
	Requests int           `json:"requests"`
	Results  []benchResult `json:"results"`
}

// benchOutput is the machine-readable bench report (version 4: the
// version-3 grid shape plus the durable-throughput columns on "online"
// rows): enough context to reproduce the sweep plus one cell per grid
// combination, so the repository's serving-performance trajectory is
// tracked across changes by .github/benchdiff.go.
type benchOutput struct {
	Version    int         `json:"version"`
	Horizon    float64     `json:"horizon"`
	Seed       int64       `json:"seed"`
	EpochSlots int         `json:"epoch_slots"`
	Grid       []benchCell `json:"grid"`
}

// cellSeed derives a grid cell's trace seed from its workload and catalog
// size coordinates (the two axes that change the trace), exactly like the
// experiments grids derive replication seeds — scheduling order, shard
// count, and strategy never enter, so -seed 1 is reproducible everywhere.
func cellSeed(base int64, wi, si int) int64 {
	return base + int64(wi)*1_000_003 + int64(si)*10_007
}

// bench sweeps the benchmark matrix: for every workload x catalog size it
// generates one deterministic request trace, then replays that trace
// in-process once per shard count x strategy — timing the per-request
// Submit path, the batched SubmitBatch path, and (via the drained
// ReplanStats) warm-start epoch replanning — and writes the grid JSON.
func bench(cfg mod.ServeConfig, load mod.LoadConfig, grid benchGrid, strategies []string, length, delayPct, zipf float64, outPath, csvPath string) error {
	report := benchOutput{
		Version:    4,
		Horizon:    load.Horizon,
		Seed:       load.Seed,
		EpochSlots: cfg.EpochSlots,
	}
	// The stage columns need the server's own decomposition; metering is
	// observation only (cost totals are pinned bit-identical), so forcing
	// it on keeps every published grid comparable.
	cfg.MeterStages = true
	var dump *csvDump
	if csvPath != "" {
		var err error
		if dump, err = newCSVDump(csvPath); err != nil {
			return err
		}
		defer dump.f.Close()
	}
	for wi, kind := range grid.workloads {
		for si, size := range grid.sizes {
			cat := mod.ZipfCatalog(size, length, length*delayPct/100, zipf)
			cellLoad := load
			cellLoad.Kind = kind
			cellLoad.Seed = cellSeed(load.Seed, wi, si)
			reqs, err := mod.GenerateRequests(cat, cellLoad)
			if err != nil {
				return err
			}
			for _, shards := range grid.shards {
				cellCfg := cfg
				cellCfg.Catalog = cat
				cellCfg.Shards = shards
				cell := benchCell{
					Workload: kind.String(),
					Objects:  size,
					Seed:     cellLoad.Seed,
					Requests: len(reqs),
				}
				for _, strategy := range strategies {
					cellCfg.DefaultStrategy = strategy
					s, err := mod.NewServer(cellCfg)
					if err != nil {
						return err
					}
					// Record the effective shard count (defaulted and
					// clamped), not the configured one, so runs on
					// different machines compare honestly.
					cell.Shards = s.Shards()
					fmt.Printf("=== workload %s, %d objects, %d shards, strategy %s: in-process replay of %d requests (seed %d) ===\n",
						cell.Workload, size, cell.Shards, strategy, len(reqs), cellLoad.Seed)
					if dump != nil {
						dump.setCell(cell.Workload, size, cell.Shards, strategy)
					}
					res, rep, err := benchStrategy(s, reqs, cellLoad.Horizon, dump)
					s.Close()
					if err != nil {
						return err
					}
					if res.BatchReqsPerSec, err = benchBatch(cellCfg, reqs, cellLoad.Horizon); err != nil {
						return err
					}
					if strategy == "online" {
						if err := benchDurable(cellCfg, reqs, cellLoad.Horizon, &res); err != nil {
							return err
						}
					}
					res.Strategy = strategy
					cell.Results = append(cell.Results, res)
					rep.Render(os.Stdout)
					fmt.Printf("\nthroughput:           %.0f reqs/s single, %.0f reqs/s batched (p50 %.1f us, p99 %.1f us per admission)\n",
						res.ReqsPerSec, res.BatchReqsPerSec, res.P50LatencyUS, res.P99LatencyUS)
					if res.DurableReqsPerSec > 0 {
						fmt.Printf("durable (file store): %.0f reqs/s group commit (%.3f flushes/req)\n",
							res.DurableReqsPerSec, res.WALFlushesPerReq)
					}
					fmt.Printf("replans:              %d (%d warm; %d cells reused, %d recomputed; total %.0f us, max %.0f us)\n\n",
						res.Replans, res.WarmReplans, res.CellsReused, res.CellsRecomputed, res.ReplanTotalUS, res.MaxReplanUS)
				}
				report.Grid = append(report.Grid, cell)
			}
		}
	}
	if dump != nil {
		if err := dump.flush(); err != nil {
			return err
		}
		fmt.Printf("modserve: wrote per-request dump %s (%d rows)\n", csvPath, dump.rows)
	}
	if outPath == "" {
		return nil
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("modserve: wrote %s (%d cells, %d strategies)\n", outPath, len(report.Grid), len(strategies))
	return nil
}

// csvDump streams the per-request bench rows of -csv: one line per
// replayed request with its grid coordinates, ticket, and the per-stage
// nanosecond timings the server's metering attached to the ticket.
type csvDump struct {
	f    *os.File
	w    *bufio.Writer
	rows int
	// Current grid-cell coordinates, stamped on every row.
	workload, strategy string
	objects, shards    int
}

// csvHeader is the -csv column order; submit_ns is the caller-observed
// Submit round trip, the queue/plan/replan columns are the server's own
// stage decomposition from the ticket.
const csvHeader = "workload,objects,shards,strategy,seq,object,t,outcome,epoch,slot,delay,start_at,queue_ns,plan_ns,replan_ns,submit_ns"

func newCSVDump(path string) (*csvDump, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	d := &csvDump{f: f, w: bufio.NewWriter(f)}
	fmt.Fprintln(d.w, csvHeader)
	return d, nil
}

func (d *csvDump) setCell(workload string, objects, shards int, strategy string) {
	d.workload, d.objects, d.shards, d.strategy = workload, objects, shards, strategy
}

func (d *csvDump) row(seq int, req mod.Request, tk mod.Ticket, submitNS int64) {
	fmt.Fprintf(d.w, "%s,%d,%d,%s,%d,%s,%g,%s,%d,%d,%g,%g,%d,%d,%d,%d\n",
		d.workload, d.objects, d.shards, d.strategy, seq, req.Object, req.T,
		tk.Decision, tk.Epoch, tk.Slot, tk.Delay, tk.StartAt,
		tk.QueueNS, tk.PlanNS, tk.ReplanNS, submitNS)
	d.rows++
}

func (d *csvDump) flush() error {
	if err := d.w.Flush(); err != nil {
		return err
	}
	return d.f.Close()
}

// benchStrategy replays the trace against one server, timing every Submit.
// Tickets flow through the report's own Count/Finish accounting, so the
// rendered output keeps the offered-delay summary and histogram the
// untimed RunDriver path produces.  The stage columns are read from the
// server's merged histograms (Metrics) before the drain.
func benchStrategy(s *mod.Server, reqs []mod.Request, horizon float64, dump *csvDump) (benchResult, *mod.LoadReport, error) {
	res := benchResult{Requests: len(reqs)}
	lats := make([]float64, 0, len(reqs))
	rep := &mod.LoadReport{Requests: len(reqs)}
	t0 := time.Now()
	for seq, req := range reqs {
		s0 := time.Now()
		tk, err := s.Submit(req)
		if err != nil {
			return res, nil, err
		}
		submitNS := time.Since(s0).Nanoseconds()
		lats = append(lats, float64(submitNS)/1e3)
		rep.Count(tk)
		if dump != nil {
			dump.row(seq, req, tk, submitNS)
		}
	}
	elapsed := time.Since(t0).Seconds()
	m, err := s.Metrics()
	if err != nil {
		return res, nil, err
	}
	var queue, plan, replan mod.LatencyHistogram
	for _, st := range m.Stages {
		queue.Merge(&st.Queue)
		plan.Merge(&st.Plan)
		replan.Merge(&st.Replan)
	}
	res.QueueP50US = float64(queue.Quantile(0.50)) / 1e3
	res.QueueP99US = float64(queue.Quantile(0.99)) / 1e3
	res.PlanP50US = float64(plan.Quantile(0.50)) / 1e3
	res.PlanP99US = float64(plan.Quantile(0.99)) / 1e3
	res.ReplanP50US = float64(replan.Quantile(0.50)) / 1e3
	res.ReplanP99US = float64(replan.Quantile(0.99)) / 1e3
	res.RejectedPressure = m.Stats.RejectedPressure
	dr, err := s.Drain(horizon)
	if err != nil {
		return res, nil, err
	}
	res.Admitted, res.Degraded, res.Rejected = rep.Admitted, rep.Degraded, rep.Rejected
	rep.Drain = dr
	rep.Finish()
	if elapsed > 0 {
		res.ReqsPerSec = float64(len(reqs)) / elapsed
	}
	sort.Float64s(lats)
	res.P50LatencyUS = percentile(lats, 0.50)
	res.P99LatencyUS = percentile(lats, 0.99)
	for _, o := range dr.Objects {
		res.CostStreams += o.Cost
		res.Replans += o.Replan.Replans
		res.WarmReplans += o.Replan.WarmReplans
		res.CellsReused += o.Replan.CellsReused
		res.CellsRecomputed += o.Replan.CellsRecomputed
		res.ReplanTotalUS += float64(o.Replan.ReplanNanos) / 1e3
		if us := float64(o.Replan.MaxReplanNanos) / 1e3; us > res.MaxReplanUS {
			res.MaxReplanUS = us
		}
	}
	res.BusyTime = dr.Stats.BusyTime
	res.Peak = dr.Stats.Peak
	return res, rep, nil
}

// benchBatch replays the same trace through SubmitBatch in 500-entry
// batches on a fresh server — one channel send per shard per batch — and
// returns the end-to-end requests-per-second of the batched path.
func benchBatch(cfg mod.ServeConfig, reqs []mod.Request, horizon float64) (float64, error) {
	s, err := mod.NewServer(cfg)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	const batch = 500
	t0 := time.Now()
	for k := 0; k < len(reqs); k += batch {
		end := k + batch
		if end > len(reqs) {
			end = len(reqs)
		}
		for _, r := range s.SubmitBatch(reqs[k:end]) {
			if r.Err != nil {
				return 0, r.Err
			}
		}
	}
	elapsed := time.Since(t0).Seconds()
	if _, err := s.Drain(horizon); err != nil {
		return 0, err
	}
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(len(reqs)) / elapsed, nil
}

// benchDurable measures the durable admission path for the "online" row
// of a cell: the same trace on a file-backed store under a throwaway
// directory, submitted by 16 concurrent striped workers per shard
// (worker w replays requests w, w+N, w+2N, ... — the shard clock clamps
// timestamps monotone, so interleaving is safe) at the default "os" sync
// level, recording durable_reqs_per_sec and the flushes-per-request
// coalescing factor.
func benchDurable(cfg mod.ServeConfig, reqs []mod.Request, horizon float64, res *benchResult) error {
	if len(reqs) == 0 {
		return nil
	}
	// One bench cell's trace lasts low single-digit milliseconds at
	// durable throughput — far too short for a stable wall-clock figure —
	// so every measurement replays the trace in rounds until it has
	// submitted at least minSubmits requests (resubmitted timestamps
	// clamp to the shard clock, which is fine for a throughput run).
	// The recorded columns come from the run with the median
	// throughput.
	// The submitter cohort scales with the cell's shard count so every
	// shard sees the same 16-worker concurrency (and so the same
	// group-commit coalescing opportunity) regardless of grid position.
	const (
		submittersPerShard = 16
		minSubmits         = 40000
		runs               = 5
	)
	submitters := submittersPerShard
	if cfg.Shards > 1 {
		submitters = submittersPerShard * cfg.Shards
	}
	rounds := (minSubmits + len(reqs) - 1) / len(reqs)
	n := rounds * len(reqs)
	run := func() (rps, flushesPerReq float64, err error) {
		dir, err := os.MkdirTemp("", "modserve-bench-wal-")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		fs, err := mod.NewFileStore(dir)
		if err != nil {
			return 0, 0, err
		}
		dcfg := cfg
		dcfg.Store = fs
		dcfg.OwnStore = true
		// The durable runs measure the durable pipeline itself; stage
		// metering (forced on for the grid's latency columns) stays off
		// here so its per-request cost does not dilute the figure.
		dcfg.MeterStages = false
		s, err := mod.NewServer(dcfg)
		if err != nil {
			fs.Close()
			return 0, 0, err
		}
		defer s.Close()
		errs := make(chan error, submitters)
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for i := w; i < len(reqs); i += submitters {
						if _, err := s.Submit(reqs[i]); err != nil {
							errs <- err
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(t0).Seconds()
		select {
		case err := <-errs:
			return 0, 0, err
		default:
		}
		st, err := s.Stats()
		if err != nil {
			return 0, 0, err
		}
		if _, err := s.Drain(horizon); err != nil {
			return 0, 0, err
		}
		if elapsed > 0 {
			rps = float64(n) / elapsed
		}
		flushesPerReq = float64(st.WALFlushes) / float64(n)
		return rps, flushesPerReq, nil
	}
	type sample struct{ rps, flushes float64 }
	samples := make([]sample, runs)
	for i := range samples {
		var err error
		if samples[i].rps, samples[i].flushes, err = run(); err != nil {
			return err
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].rps < samples[j].rps })
	mid := samples[runs/2]
	res.DurableReqsPerSec = mid.rps
	res.WALFlushesPerReq = mid.flushes
	return nil
}

// percentile returns the p-quantile of sorted samples (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// smoke starts the server on a random local port, replays a small load
// over HTTP, checks /v1/healthz, and shuts everything down cleanly — the CI
// end-to-end check for the live serving path.
func smoke(cfg mod.ServeConfig, load mod.LoadConfig, conc int) error {
	s, err := mod.NewServer(cfg)
	if err != nil {
		return err
	}
	if cfg.Restore {
		fmt.Println("modserve: restored durable state")
	}
	ctx, cancel := context.WithCancel(context.Background())
	bound := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- mod.ListenAndServe(ctx, "127.0.0.1:0", s, func(b string) { bound <- b })
	}()
	base := "http://" + <-bound
	resp, err := http.Get(base + mod.APIVersion + "/healthz")
	if err != nil {
		cancel()
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		cancel()
		return fmt.Errorf("healthz returned %d", resp.StatusCode)
	}
	reqs, err := mod.GenerateRequests(cfg.Catalog, load)
	if err != nil {
		cancel()
		return err
	}
	rep, err := mod.RunHTTPDriver(ctx, base, reqs, conc)
	if err != nil {
		cancel()
		return err
	}
	if served := rep.Admitted + rep.Degraded; served+rep.Rejected != len(reqs) {
		cancel()
		return fmt.Errorf("served %d + rejected %d of %d requests", served, rep.Rejected, len(reqs))
	}
	fmt.Printf("modserve: %d requests served over HTTP (admitted %d, degraded %d, rejected %d)\n",
		len(reqs), rep.Admitted, rep.Degraded, rep.Rejected)
	if err := scrapeMetrics(base, cfg.MeterStages); err != nil {
		cancel()
		return err
	}
	fmt.Println("modserve: metrics scrape ok")
	if cfg.Store != nil {
		// Exercise the warm-restart primitive end to end: force a durable
		// snapshot over the admin route before shutting down, so a later
		// -restore run picks the state up.
		resp, err := http.Post(base+mod.APIVersion+"/admin/snapshot", "application/json", nil)
		if err != nil {
			cancel()
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			cancel()
			return fmt.Errorf("admin/snapshot returned %d", resp.StatusCode)
		}
		fmt.Println("modserve: durable snapshot saved")
	}
	// Drop the smoke client's keep-alive connections (every request above
	// rode the shared DefaultTransport, including any conn the transport
	// raced open and never used) before asking the server to wind down:
	// a pooled connection the server still counts as new or active would
	// otherwise hold http.Server.Shutdown until its deadline.
	http.DefaultClient.CloseIdleConnections()
	cancel()
	return <-done
}

// scrapeMetrics fetches GET /v1/metrics and sanity-checks the Prometheus
// exposition: the counter family must always be present, and with stage
// metering on the latency histogram family must be too.
func scrapeMetrics(base string, metered bool) error {
	resp, err := http.Get(base + mod.APIVersion + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		return fmt.Errorf("metrics Content-Type %q is not the Prometheus text exposition", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	body := string(blob)
	if !strings.Contains(body, "# TYPE mod_requests_total counter") {
		return fmt.Errorf("metrics exposition is missing the request counter family:\n%s", body)
	}
	if metered && !strings.Contains(body, "# TYPE mod_stage_latency_seconds histogram") {
		return fmt.Errorf("metrics exposition is missing the stage histogram family:\n%s", body)
	}
	return nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "modserve:", err)
		os.Exit(1)
	}
}
