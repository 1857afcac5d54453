package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/serve"
)

// batchPass runs one pass of the in-process workload: timed set-ups, one
// untimed warm-up iteration, then iterations of the whole trace through
// Server.SubmitBatch until the run's seconds are spent.  Every iteration
// is a fresh server whose drained schedule must equal, bit for bit, the
// untimed sequential Submit replay.
func (r *runner) batchPass(p *pass, rec *recorder) error {
	if r.ref == nil {
		ref, err := r.reference()
		if err != nil {
			return err
		}
		r.ref = ref
	}
	for i := 0; i < r.o.z.setups; i++ {
		runtime.GC()
		start := time.Now()
		s, err := newServer(rec, serverConfig(r.o.w))
		if err != nil {
			return err
		}
		tk, err := s.Submit(r.trace[0])
		d := time.Since(start)
		s.Close()
		if err != nil {
			return fmt.Errorf("set-up: first request: %w", err)
		}
		if msg := ticketProblem(tk.Decision, tk.T, tk.Delay, tk.StartAt); msg != "" {
			r.fail("set-up: first request: %s", msg)
		}
		ref, err := r.refp.setup("setup-batch", r.trace[0])
		if err != nil {
			return err
		}
		p.addSetup(d, ref)
	}
	floor := runtime.NumGoroutine()
	if err := r.batchIteration(nil, nil); err != nil {
		return err
	}
	var lat []float64
	stealFrom := readCPUStat()
	deadline := time.Now().Add(time.Duration(r.o.z.seconds * float64(time.Second)))
	for it := 0; it == 0 || time.Now().Before(deadline); it++ {
		if err := r.batchIteration(p, rec); err != nil {
			return err
		}
		lat = append(lat, p.iterLat...)
		i := len(p.latRatios) - 1
		r.printf("%s iteration %d requests=%d calls=%d secs=%.3f steal=%.1f%% call_p50_ms=%.4f cpu_us_per_req=%.4f latency_ratio=%.4f cpu_ratio=%.4g",
			r.o.w.name, it, len(r.trace), len(p.iterLat), p.iterCost.wall.Seconds(), p.iterCost.stealPct, p.latWindows[i], p.cpuWindows[i], p.latRatios[i], p.cpuRatios[i])
	}
	steal := stealPct(stealFrom, readCPUStat())
	p.latRatio, p.cpuRatio = median(p.latRatios), median(p.cpuRatios)
	p.refCPUUS = median(p.refCPUs)
	p.latencyMS = p.nominal.latMS * p.latRatio
	p.cpuUS = p.nominal.cpuUS * p.cpuRatio
	s := sortedCopy(lat)
	p.latN = len(s)
	tail := supportedTail(len(s))
	p.diag = append(p.diag,
		fmt.Sprintf("SubmitBatch call p50_ms = %.4f (raw, samples=%d)", quantile(s, 0.5), len(s)),
		fmt.Sprintf("SubmitBatch call p99_ms = %.4f (raw, samples=%d, supported=%v)", quantile(s, 0.99), len(s), tail != ""),
		fmt.Sprintf("cpu_us_per_req raw = %.4f (median of iterations)", median(p.cpuWindows)),
		"loadgen.* = n/a (in-process workload: no generator)",
		fmt.Sprintf("peak_rps = %.1f (in-process SubmitBatch, wall clock)", float64(p.satReqs)/p.sat.wall.Seconds()),
		fmt.Sprintf("host.steal_pct = %.2f (measured iterations)", steal))
	p.runFrom, p.runTo = 0, len(r.trace)
	p.goroutinesEnd = settleGoroutines(floor)
	return nil
}

// batchIteration replays the whole trace through SubmitBatch on a fresh
// server, checks every ticket and the drained schedule, and folds the
// measurements into p (nil: warm-up, not measured).  Each call is
// followed by one reference kernel call in the reference process.  The
// program's CPU is the server process's over the whole iteration, so GC
// work that spills past a call still counts; the server process does
// nothing else in it but check tickets and wait for the reference.
func (r *runner) batchIteration(p *pass, rec *recorder) error {
	heapBase := liveHeap()
	cfg := serverConfig(r.o.w)
	if rec != nil {
		cfg.MeterReplanNanos = true
	}
	s, err := newServer(rec, cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	var sent, ok int64
	var refCPU time.Duration
	calls := len(r.trace)/r.o.z.batch + 1
	lat, refLat := make([]float64, 0, calls), make([]float64, 0, calls)
	m := startMeter()
	for off := 0; off < len(r.trace); off += r.o.z.batch {
		end := min(off+r.o.z.batch, len(r.trace))
		sp := rec.begin(spanSubmitBatch, int64(off))
		start := time.Now()
		res := s.SubmitBatch(r.trace[off:end])
		d := time.Since(start)
		rec.end(sp, spanSubmitBatch, int64(end-off), nil)
		lat = append(lat, ms(d))
		refWall, refC, err := r.refp.kernel()
		if err != nil {
			return err
		}
		refLat = append(refLat, ms(refWall))
		refCPU += refC
		for i, x := range res {
			sent++
			if x.Err != nil {
				r.fail("request %d: %v", off+i, x.Err)
				continue
			}
			if msg := ticketProblem(x.Ticket.Decision, x.Ticket.T, x.Ticket.Delay, x.Ticket.StartAt); msg != "" {
				r.fail("request %d: %s", off+i, msg)
				continue
			}
			ok++
		}
	}
	cost := m.stop()
	heap := liveHeap() - heapBase
	var stats serve.MetricsSnapshot
	if p != nil {
		if stats, err = s.Metrics(); err != nil {
			return err
		}
	}
	sp := rec.begin(spanDrain, -1)
	dr, err := s.Drain(r.o.z.horizon)
	rec.end(sp, spanDrain, 0, err)
	if err != nil {
		return err
	}
	r.checkDrain(dr)
	if p == nil {
		return nil
	}
	p.iterLat, p.iterCost = lat, cost
	cpu := float64(cost.cpu) / 1e3 / float64(len(r.trace))
	refCallUS := float64(refCPU) / 1e3 / float64(len(refLat))
	p.latWindows = append(p.latWindows, median(lat))
	p.refLat = append(p.refLat, median(refLat))
	// Each call is paired with the reference call right after it.
	pairs := make([]float64, len(lat))
	for i := range lat {
		pairs[i] = lat[i] / refLat[i]
	}
	p.latRatios = append(p.latRatios, median(pairs))
	p.cpuWindows = append(p.cpuWindows, cpu)
	p.refCPUs = append(p.refCPUs, refCallUS)
	p.cpuRatios = append(p.cpuRatios, cpu/refCallUS)
	p.sat.add(cost)
	p.satReqs += ok
	p.sent += sent
	p.ok += ok
	p.failed += sent - ok
	p.heapBytes = heap
	p.channels = dr.AverageChannels()
	p.drained = dr
	p.stats, p.stages = stats.Stats, stats.Stages
	p.runAdmissions = ok
	p.samples["mean_channels"]++
	p.samples["heap_live_mb"]++
	return nil
}

// reference replays the trace with sequential Submit calls, untimed, and
// drains: the schedule every measured iteration must reproduce.
func (r *runner) reference() (*serve.DrainResult, error) {
	s, err := serve.New(serverConfig(r.o.w))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for i, req := range r.trace {
		tk, err := s.Submit(req)
		if err != nil {
			return nil, fmt.Errorf("reference replay: request %d: %w", i, err)
		}
		if msg := ticketProblem(tk.Decision, tk.T, tk.Delay, tk.StartAt); msg != "" {
			r.fail("reference replay: request %d: %s", i, msg)
		}
	}
	return s.Drain(r.o.z.horizon)
}

// checkDrain compares a drained iteration with the reference replay: per
// object streams, cost and busy time, and the mean channel count, all bit
// for bit.
func (r *runner) checkDrain(dr *serve.DrainResult) {
	ref := r.ref
	if len(dr.Objects) != len(ref.Objects) {
		r.fail("drain reports %d objects, the reference %d", len(dr.Objects), len(ref.Objects))
		return
	}
	for i, got := range dr.Objects {
		want := ref.Objects[i]
		if got.Name != want.Name || got.Streams != want.Streams ||
			math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
			math.Float64bits(got.BusyTime) != math.Float64bits(want.BusyTime) {
			r.fail("object %s: streams=%d cost=%v busy=%v, reference %s streams=%d cost=%v busy=%v",
				got.Name, got.Streams, got.Cost, got.BusyTime, want.Name, want.Streams, want.Cost, want.BusyTime)
		}
	}
	if a, b := dr.AverageChannels(), ref.AverageChannels(); math.Float64bits(a) != math.Float64bits(b) {
		r.fail("mean channels %v, reference %v", a, b)
	}
}
