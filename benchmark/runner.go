package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// spanCapacity bounds the traced pass's span buffer (about 20 MiB); the
// per-name totals stay exact beyond it.
const spanCapacity = 1 << 19

// serverEpochSlots is serve.Config's default replanning period, which
// the direct layer drives reproduce.
const serverEpochSlots = 512

type runner struct {
	o     options
	host  hostInfo
	trace []serve.Request
	// refp is the reference process every pass measures against.
	refp *refProc
	// problems lists failed output checks; any entry fails the run.
	problems []string

	// wire-durable: the store the untimed preparation left, and the
	// counters it reported before closing.
	prepDir   string
	prepStats serve.Stats
	restores  int

	// batch-offline-flash: the untimed sequential Submit replay every
	// SubmitBatch iteration must reproduce.
	ref *serve.DrainResult
}

// pass is what one pass over a workload measured.
type pass struct {
	// setups holds each set-up's time in seconds, refSetups the time of
	// the reference set-up timed right after it, and setupRatios the
	// ratio of the two.
	setups      []float64
	refSetups   []float64
	setupRatios []float64
	// latWindows holds the raw latency p50 (ms) of each open-loop window
	// (wire) or measured iteration (batch), and latRatios the program to
	// reference latency ratio of each; cpuWindows and cpuRatios hold the
	// raw CPU per request (us) and its reference ratio per iteration
	// (batch only).
	latWindows []float64
	cpuWindows []float64
	latRatios  []float64
	cpuRatios  []float64
	// refLat holds the reference latency p50 (ms) of each window or
	// iteration, and refCPUUS the reference CPU per admission (wire) or
	// per kernel call (batch), in us.
	refLat   []float64
	refCPUs  []float64 // per iteration (batch)
	refCPUUS float64
	// latRatio and cpuRatio are the pass's program-to-reference ratios,
	// and latencyMS and cpuUS the gated latency_p50_ms and cpu_us_per_req
	// they give at the references' calibrated costs, nominal.
	latRatio, cpuRatio float64
	latencyMS, cpuUS   float64
	nominal            refCosts
	latN               int
	sat                phaseCost // saturation windows (wire) or measured iterations (batch)
	satReqs            int64     // admissions completed in sat
	sent, ok           int64
	failed             int64
	channels           float64
	heapBytes          float64
	samples            map[string]int
	diag               []string

	// Traced-pass details for the per-layer metrics.
	openWindow, satWindow [2]int64 // recorder ns
	clientNS              [][2]int64
	stats                 serve.Stats
	stages                []serve.StageSet
	drained               *serve.DrainResult
	setupTotals           [2][numSpanNames]spanTotals // before/after the timed set-ups
	serverTotals          [2][numSpanNames]spanTotals // measured server's lifetime
	runAdmissions         int64
	goroutinesEnd         int
	runFrom, runTo        int // trace range the measured server was sent

	// The latest batch iteration's call times (ms) and cost.
	iterLat  []float64
	iterCost phaseCost
}

func newRunner(o options) (*runner, error) {
	r := &runner{o: o, host: readHost()}
	tr, err := makeTrace(o.w, o.seed, o.z.horizon)
	if err != nil {
		return nil, err
	}
	r.trace = tr
	if o.w.wire {
		need := o.z.prefix + o.z.warm + o.z.open + o.z.sat + 1
		if len(tr) < need {
			return nil, fmt.Errorf("trace of %d requests is shorter than the %d the run sends", len(tr), need)
		}
	}
	return r, nil
}

func (r *runner) pass(rec *recorder) (*pass, error) {
	p := &pass{samples: map[string]int{}, nominal: r.o.w.nominal}
	var err error
	if r.o.w.wire {
		err = r.wirePass(p, rec)
	} else {
		err = r.batchPass(p, rec)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (r *runner) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (p *pass) correct() bool { return p.sent > 0 }

func (p *pass) addSetup(prog, ref time.Duration) {
	p.setups = append(p.setups, prog.Seconds())
	p.refSetups = append(p.refSetups, ref.Seconds())
	p.setupRatios = append(p.setupRatios, prog.Seconds()/ref.Seconds())
}

// endToEnd returns the gated metrics of a pass.
func (p *pass) endToEnd() map[string]metric {
	m := map[string]metric{
		"setup_s":        {p.nominal.setupS * median(p.setupRatios), "s"},
		"latency_p50_ms": {p.latencyMS, "ms"},
		"cpu_us_per_req": {p.cpuUS, "us"},
		"ok_ratio":       {float64(p.ok) / float64(max(p.sent, 1)), "ratio"},
		"mean_channels":  {p.channels, "channels"},
		"heap_live_mb":   {p.heapBytes / (1 << 20), "MiB"},
	}
	p.samples["setup_s"] = len(p.setups)
	p.diag = append(p.diag,
		fmt.Sprintf("setup_s raw = %.6f (median of %d set-ups, quartiles %.6f-%.6f), reference ratio = %.4f (quartiles %.4f-%.4f)",
			median(p.setups), len(p.setups), quantile(sortedCopy(p.setups), 0.25), quantile(sortedCopy(p.setups), 0.75),
			median(p.setupRatios), quantile(sortedCopy(p.setupRatios), 0.25), quantile(sortedCopy(p.setupRatios), 0.75)),
		// The measured costs the calibration constants (refCosts) come from.
		fmt.Sprintf("reference raw setup_s=%.6g lat_ms=%.6g cpu_us=%.6g (calibrated %g, %g, %g)",
			median(p.refSetups), median(p.refLat), p.refCPUUS, p.nominal.setupS, p.nominal.latMS, p.nominal.cpuUS))
	p.samples["latency_p50_ms"] = p.latN
	p.samples["cpu_us_per_req"] = int(p.satReqs)
	p.samples["ok_ratio"] = int(p.sent)
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
	return m
}

// serverConfig returns the workload's server configuration; for a
// durable workload it opens a fresh copy of the prepared store, which
// the server owns and dir names (remove it after Close).
func (r *runner) serverConfig(rec *recorder) (cfg serve.Config, dir string, err error) {
	cfg = serverConfig(r.o.w)
	if rec != nil {
		cfg.MeterReplanNanos = true
	}
	if !r.o.w.durable {
		return cfg, "", nil
	}
	if r.prepDir == "" {
		if err := r.prepareStore(); err != nil {
			return cfg, "", err
		}
	}
	r.restores++
	dir = filepath.Join(r.o.workDir, fmt.Sprintf("restore-%d", r.restores))
	if err := copyDir(r.prepDir, dir); err != nil {
		return cfg, "", err
	}
	fs, err := store.NewFile(dir)
	if err != nil {
		return cfg, "", err
	}
	var st store.Store = fs
	if rec != nil {
		st = &tracedStore{inner: fs, rec: rec}
	}
	cfg.Store, cfg.OwnStore, cfg.Restore = st, true, true
	return cfg, dir, nil
}

// newServer calls serve.New, inside a span when traced.  On failure it
// closes a store the configuration owns.
func newServer(rec *recorder, cfg serve.Config) (*serve.Server, error) {
	sp := rec.begin(spanServeNew, -1)
	s, err := serve.New(cfg)
	rec.end(sp, spanServeNew, 0, err)
	if err != nil && cfg.OwnStore && cfg.Store != nil {
		cfg.Store.Close()
	}
	return s, err
}

// prepareStore admits the trace's first z.prefix requests into a file
// store, untimed, and closes the server: the state every wire-durable
// set-up and run restores.
func (r *runner) prepareStore() error {
	dir := filepath.Join(r.o.workDir, "prepared")
	fs, err := store.NewFile(dir)
	if err != nil {
		return err
	}
	cfg := serverConfig(r.o.w)
	cfg.Store, cfg.OwnStore = fs, true
	s, err := newServer(nil, cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	for off := 0; off < r.o.z.prefix; off += r.o.z.batch {
		end := min(off+r.o.z.batch, r.o.z.prefix)
		for i, res := range s.SubmitBatch(r.trace[off:end]) {
			if res.Err != nil {
				return fmt.Errorf("prepare store: request %d: %w", off+i, res.Err)
			}
			if msg := ticketProblem(res.Ticket.Decision, res.Ticket.T, res.Ticket.Delay, res.Ticket.StartAt); msg != "" {
				r.fail("prepare store: request %d: %s", off+i, msg)
			}
		}
	}
	st, err := s.Stats()
	if err != nil {
		return err
	}
	r.prepDir, r.prepStats = dir, st
	return nil
}

// checkRestored verifies that a restored server reports exactly the
// admissions the preparation made, before it serves a request.
func (r *runner) checkRestored(s *serve.Server) error {
	st, err := s.Stats()
	if err != nil {
		return err
	}
	want := r.prepStats
	if st.Admitted != want.Admitted || st.Degraded != want.Degraded || st.Rejected != want.Rejected || st.Unknown != want.Unknown {
		r.fail("restored server reports admitted=%d degraded=%d rejected=%d unknown=%d, the preparation made %d/%d/%d/%d",
			st.Admitted, st.Degraded, st.Rejected, st.Unknown, want.Admitted, want.Degraded, want.Rejected, want.Unknown)
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// settleGoroutines waits briefly for exiting goroutines (connection
// handlers, shard loops) and returns the count left.
func settleGoroutines(floor int) int {
	n := 0
	for i := 0; i < 100; i++ {
		if n = runtime.NumGoroutine(); n <= floor {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n
}
