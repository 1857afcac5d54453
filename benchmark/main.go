// Command benchmark is the repository's end-to-end benchmark.  It drives
// the live admission server through its public functions on three
// workloads (see workloads.go), checks every output, and prints one JSON
// result line last.  Run it from the repository root:
//
//	bash benchmark/run.sh --workload wire-online --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics: setup_s,
// latency_p50_ms, cpu_us_per_req, ok_ratio, mean_channels, heap_live_mb.
// With --trace 1 the workload runs twice in one process, untraced and then
// traced; the result carries the per-layer metrics of the traced pass, and
// the lines before it report the tracing overhead.
//
// On a shared VM, raw timings follow the hypervisor's steal far more than
// the program, so setup_s, latency_p50_ms and cpu_us_per_req are
// calibrated against benchmark-owned reference work, run in a reference
// process of its own beside the program under the same host conditions
// (see reference.go); the raw figures, wall-clock throughput and tail
// latency are printed as diagnostics and never gated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// buildDir is where the launcher builds the binary; the benchmark keeps
// its temporary stores and span dumps there too.
const buildDir = ".bench_build"

func main() {
	if code, ok := childMain(); ok {
		os.Exit(code)
	}
	name := flag.String("workload", "wire-online", "workload: wire-online | batch-offline-flash | wire-durable")
	seed := flag.Int64("seed", 1, "seed of the generated request trace")
	seconds := flag.Int("seconds", 15, "measured time of one run, in seconds")
	trace := flag.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	res, err := run(options{
		w:       w,
		seed:    *seed,
		z:       sizesFor(w, *seconds),
		traced:  *trace == 1,
		workDir: filepath.Join(buildDir, "run-"+strconv.Itoa(os.Getpid())),
		spanDir: filepath.Join(buildDir, "spans"),
		out:     os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type options struct {
	w      workload
	seed   int64
	z      sizes
	traced bool
	// workDir holds the run's stores; it is removed when the run ends.
	workDir string
	// spanDir receives the traced pass's span dump.
	spanDir string
	out     io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run and returns its result.  An error means
// the run could not be carried out; failed output checks come back as
// Correct == false.
func run(o options) (result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(o.workDir)
	r, err := newRunner(o)
	if err != nil {
		return result{}, err
	}
	refFile := ""
	if o.w.durable {
		refFile = filepath.Join(o.workDir, "reference.bin")
	}
	if r.refp, err = startReference(runtime.GOMAXPROCS(0), refFile); err != nil {
		return result{}, err
	}
	defer r.refp.kill()
	r.printf("benchmark workload=%s seed=%d trace=%v requests=%d horizon=%g", o.w.name, o.seed, o.traced, len(r.trace), o.z.horizon)
	r.printf("host %s", fmtHost(r.host))
	if !o.traced {
		p, err := r.pass(nil)
		if err != nil {
			return result{}, err
		}
		e2e := p.endToEnd()
		r.printMetrics(e2e, p)
		if err := r.refp.stop(); err != nil {
			return result{}, err
		}
		return r.result(e2e, p), nil
	}
	base, err := r.pass(nil)
	if err != nil {
		return result{}, err
	}
	baseE2E := base.endToEnd()
	r.printMetrics(baseE2E, base)
	rec := newRecorder(spanCapacity)
	tp, err := r.pass(rec)
	if err != nil {
		return result{}, err
	}
	tracedE2E := tp.endToEnd()
	for _, name := range []string{"cpu_us_per_req", "latency_p50_ms"} {
		b, t := baseE2E[name].Value, tracedE2E[name].Value
		r.printf("tracing overhead %s: untraced=%.4f traced=%.4f diff=%+.4f %s (%+.1f%%)", name, b, t, t-b, baseE2E[name].Unit, 100*(t-b)/b)
	}
	layers, err := r.layerMetrics(tp, rec)
	if err != nil {
		return result{}, err
	}
	rec.spanSummary(o.out, "#")
	path := filepath.Join(o.spanDir, o.w.name+".csv")
	n, err := rec.writeSpans(path)
	if err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	r.printf("spans written=%d dropped=%d file=%s", n, rec.dropped, path)
	if err := r.refp.stop(); err != nil {
		return result{}, err
	}
	res := r.result(layers, tp)
	res.Attempted += base.sent
	res.Failed += base.failed
	res.Correct = res.Correct && base.correct()
	return res, nil
}

func (r *runner) result(m map[string]metric, p *pass) result {
	return result{Correct: p.correct() && len(r.problems) == 0, Attempted: p.sent, Failed: p.failed, Metrics: m}
}

func (r *runner) printf(format string, args ...any) {
	fmt.Fprintf(r.o.out, "# "+format+"\n", args...)
}

// printMetrics prints each end-to-end metric with its unit and sample
// count, then the never-gated diagnostics.
func (r *runner) printMetrics(m map[string]metric, p *pass) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.printf("%s %s = %.6g %s (samples=%d)", r.o.w.name, n, m[n].Value, m[n].Unit, p.samples[n])
	}
	for _, d := range p.diag {
		r.printf("%s diag %s", r.o.w.name, d)
	}
	for _, pr := range r.problems {
		r.printf("%s CHECK FAILED: %s", r.o.w.name, pr)
	}
}
