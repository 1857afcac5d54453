package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/serve"
)

// wireConns is the generator's connection count to the program, and to
// the reference exchange: capped at nproc, so a closed-loop phase never
// keeps more requests in flight than the host has CPUs.
func wireConns() int { return min(2, runtime.NumCPU()) }

// phaseCap bounds a phase at this multiple of its nominal duration, so a
// badly regressed program still ends within the run's time limit.
const phaseCap = 3

// httpFront serves the HTTP API of a server on a listener.
type httpFront struct {
	hs     *http.Server
	done   chan error
	closed bool
}

// serveHTTP serves the program's HTTP API on ln, wrapped for tracing
// when rec is set.
func serveHTTP(s *serve.Server, ln net.Listener, rec *recorder) *httpFront {
	var h http.Handler = serve.Handler(s)
	if rec != nil {
		h = &tracedHandler{next: h, rec: rec}
	}
	return startFront(h, ln)
}

func startFront(h http.Handler, ln net.Listener) *httpFront {
	f := &httpFront{hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { f.done <- f.hs.Serve(ln) }()
	return f
}

// close shuts the HTTP server down (idle connections close at once) and
// waits for its Serve goroutine.  Closing twice is a no-op.
func (f *httpFront) close() {
	if f.closed {
		return
	}
	f.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.hs.Shutdown(ctx); err != nil {
		f.hs.Close()
	}
	<-f.done
}

// wireSetup times one set-up: from serve.New (restoring the prepared
// store on wire-durable) until the server has answered its first
// request over a fresh connection.  The store copy, the listener and a
// forced GC happen before the clock starts.  It returns the set-up's
// time and that of the reference set-up timed right after it.
func (r *runner) wireSetup(rec *recorder, first int) (prog, ref time.Duration, err error) {
	cfg, dir, err := r.serverConfig(rec)
	if err != nil {
		return 0, 0, err
	}
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	start := time.Now()
	s, err := newServer(rec, cfg)
	if err != nil {
		ln.Close()
		return 0, 0, err
	}
	front := serveHTTP(s, ln, rec)
	status, body, err := firstRequest(ln.Addr().String(), "", first, r.trace[first])
	prog = time.Since(start)
	front.close()
	s.Close()
	if err != nil {
		return 0, 0, fmt.Errorf("set-up: first request: %w", err)
	}
	if status != http.StatusOK {
		r.fail("set-up: first request answered %d: %.100q", status, body)
	} else if msg := ticketBodyProblem(body); msg != "" {
		r.fail("set-up: first request: %s", msg)
	}
	ref, err = r.refp.setup("setup-wire", r.trace[first])
	return prog, ref, err
}

func firstRequest(addr, path string, id int, req serve.Request) (int, []byte, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	cl := &client{conn: c, br: bufio.NewReader(c)}
	if err := cl.writePost(path, int64(id), req); err != nil {
		return 0, nil, err
	}
	return cl.readResponse()
}

// wirePass runs one pass of a wire workload: timed set-ups, then a
// measured server driven over HTTP by the generator process through a
// closed-loop warm-up, an open loop at a fixed light rate and a
// closed-loop saturation phase, then drained and checked.
func (r *runner) wirePass(p *pass, rec *recorder) error {
	z := r.o.z
	from := z.prefix
	if rec != nil {
		p.setupTotals[0] = rec.snapshotTotals()
	}
	for i := 0; i < z.setups; i++ {
		d, ref, err := r.wireSetup(rec, from)
		if err != nil {
			return err
		}
		p.addSetup(d, ref)
	}
	if rec != nil {
		p.setupTotals[1] = rec.snapshotTotals()
	}

	floor := runtime.NumGoroutine()
	cfg, dir, err := r.serverConfig(rec)
	if err != nil {
		return err
	}
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if rec != nil {
		p.serverTotals[0] = rec.snapshotTotals()
	}
	heapBase := liveHeap()
	s, err := newServer(rec, cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	if r.o.w.durable {
		if err := r.checkRestored(s); err != nil {
			return err
		}
	}
	st0, err := s.Stats()
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	front := serveHTTP(s, ln, rec)
	defer front.close()
	gen, err := startChild("generator", loadgenEnv, genConfig{Addr: ln.Addr().String(), RefAddr: r.refp.addr,
		Workload: r.o.w.name, Seed: r.o.seed, Horizon: z.horizon, Conns: wireConns()})
	if err != nil {
		return err
	}
	defer gen.kill()

	// window runs one generator phase.  A program phase runs inside the
	// server process's meters; a reference phase's CPU is the reference
	// process's.
	window := func(cmd phaseCmd) (phaseResult, phaseCost, [2]int64, error) {
		var res phaseResult
		var ref0 time.Duration
		if cmd.Reference {
			var err error
			if ref0, err = r.refp.cpu(); err != nil {
				return res, phaseCost{}, [2]int64{}, err
			}
		}
		sp := rec.begin(spanWindow, int64(cmd.From))
		t0 := rec.nowOr0()
		m := startMeter()
		err := gen.call(cmd, &res)
		cost := m.stop()
		t1 := rec.nowOr0()
		rec.end(sp, spanWindow, res.Sent, err)
		if err != nil {
			return res, cost, [2]int64{}, fmt.Errorf("phase %s: %w", cmd.Name, err)
		}
		if cmd.Reference {
			ref1, err := r.refp.cpu()
			if err != nil {
				return res, cost, [2]int64{}, err
			}
			cost.cpu = ref1 - ref0
		}
		r.checkPhase(res)
		cpu := float64(cost.cpu) / 1e3 / float64(max(res.AdmissionsOK, 1))
		r.printf("%s window %-9s sent=%d failed=%d admissions=%d reads=%d refs=%d secs=%.3f cpu_us_per_adm=%.3f steal=%.1f%% lat_p50_ms=%.4f ref_lat_p50_ms=%.4f",
			r.o.w.name, res.Name, res.Sent, res.Failed, res.Admissions, res.Reads, res.RefAdmissions, res.Seconds, cpu, cost.stealPct, res.LatP50, res.RefLatP50)
		return res, cost, [2]int64{t0, t1}, nil
	}
	// measured folds a program window into the pass's operation counts.
	measured := func(res phaseResult) {
		p.sent += res.Sent
		p.ok += res.Answered
		p.failed += res.Failed
	}
	split := func(total, k, n int) int {
		if k == n-1 {
			return total - total/n*(n-1)
		}
		return total / n
	}
	readEvery := r.o.w.readEvery
	next := from
	var admittedOK int64

	// Saturation windows: each program window has z.sat/z.satWindows
	// admissions.  With operator reads (each copies and sorts every
	// finalized interval, nearly all of wire-durable's CPU), the reference
	// window after it has as many admissions and the same share of
	// reference reads; without, as many admissions as fit its time.
	nominal := float64(z.sat) / r.o.w.satRate / float64(z.satWindows)
	refWindow := func(name string, n int) phaseCmd {
		cmd := phaseCmd{Name: name, From: from, Count: int(refSatRate * nominal), Reference: true, MaxSeconds: phaseCap*nominal + 5}
		if readEvery > 0 {
			cmd.Count, cmd.ReadEvery = n, readEvery
		}
		return cmd
	}

	// Warm-up: the program closed loop without reads (on wire-durable it
	// also carries the restored server close to its next snapshot, so the
	// measured windows cross one), then two reference windows.
	res, _, _, err := window(phaseCmd{Name: "warm", From: next, Count: z.warm, MaxSeconds: phaseCap*float64(z.warm)/r.o.w.satRate + 10})
	if err != nil {
		return err
	}
	next += int(res.Admissions)
	admittedOK += res.AdmissionsOK
	for k := 0; k < 2; k++ {
		if _, _, _, err := window(refWindow(fmt.Sprintf("warm/ref/%d", k), split(z.sat, 0, z.satWindows))); err != nil {
			return err
		}
	}

	// Open loop: program and reference operations alternate at twice the
	// program's rate, so each program admission is paired with a reference
	// admission sent one interval later, under the same host conditions.
	stealFrom := readCPUStat()
	var openLat, openLag []float64
	for k := 0; k < z.windows; k++ {
		n := split(z.open, k, z.windows)
		res, _, win, err := window(phaseCmd{Name: fmt.Sprintf("open/%d", k), From: next, Count: n, Rate: 2 * z.openRate,
			ReadEvery: readEvery, MaxSeconds: phaseCap*float64(n)/z.openRate + 5, Raw: true, PerRequest: rec != nil})
		if err != nil {
			return err
		}
		next += int(res.Admissions)
		admittedOK += res.AdmissionsOK
		measured(res)
		p.latWindows = append(p.latWindows, res.LatP50)
		p.latRatios = append(p.latRatios, res.PairRatioP50)
		p.refLat = append(p.refLat, res.RefLatP50)
		openLat = append(openLat, res.LatMS...)
		openLag = append(openLag, res.LagMS...)
		if k == 0 {
			p.openWindow[0] = win[0]
		}
		p.openWindow[1] = win[1]
		p.clientNS = append(p.clientNS, res.PerRequest...)
	}

	// Saturation: short closed-loop windows of the program, each followed
	// by a reference window, so each pair sees one host state.  The
	// program's CPU is the server process's over the whole phase, so work
	// that spills past a window (a GC cycle, a WAL flush) still counts.
	var refCPU, satWall time.Duration
	var refAdm int64
	satMeter := startMeter()
	for k := 0; k < z.satWindows; k++ {
		n := split(z.sat, k, z.satWindows)
		res, cost, win, err := window(phaseCmd{Name: fmt.Sprintf("sat/%d", k), From: next, Count: n,
			ReadEvery: readEvery, MaxSeconds: phaseCap*nominal + 5})
		if err != nil {
			return err
		}
		refRes, refCost, _, err := window(refWindow(fmt.Sprintf("sat/%d/ref", k), n))
		if err != nil {
			return err
		}
		refCPU += refCost.cpu
		refAdm += refRes.AdmissionsOK
		next += int(res.Admissions)
		admittedOK += res.AdmissionsOK
		measured(res)
		satWall += cost.wall
		p.satReqs += res.AdmissionsOK
		if k == 0 {
			p.satWindow[0] = win[0]
		}
		p.satWindow[1] = win[1]
	}
	p.sat = satMeter.stop()
	p.sat.wall = satWall
	steal := stealPct(stealFrom, readCPUStat())
	// Latency: the median over windows of the median paired ratio.  CPU:
	// program CPU per admission over reference CPU per admission.
	p.latRatio = median(p.latRatios)
	p.latencyMS = r.o.w.nominal.latMS * p.latRatio
	rawCPU := float64(p.sat.cpu) / 1e3 / float64(max(p.satReqs, 1))
	p.refCPUUS = float64(refCPU) / 1e3 / float64(max(refAdm, 1))
	p.cpuRatio = rawCPU / p.refCPUUS
	p.cpuUS = r.o.w.nominal.cpuUS * p.cpuRatio
	openLat, openLag = sortedCopy(openLat), sortedCopy(openLag)
	p.latN = len(openLat)
	tail := supportedTail(len(openLat))
	p.diag = append(p.diag,
		fmt.Sprintf("loadgen.latency_p50_ms = %.4f (raw, all open-loop samples pooled, samples=%d)", quantile(openLat, 0.5), len(openLat)),
		fmt.Sprintf("loadgen.latency_p99_ms = %.4f (raw, samples=%d, supported=%v)", quantile(openLat, 0.99), len(openLat), tail != ""),
		fmt.Sprintf("loadgen.latency_p999_ms = %.4f (raw, samples=%d, supported=%v)", quantile(openLat, 0.999), len(openLat), tail == "p99.9"),
		fmt.Sprintf("loadgen.lag_ms_p99 = %.4f (samples=%d)", quantile(openLag, 0.99), len(openLag)),
		fmt.Sprintf("loadgen.peak_rps = %.1f (admissions=%d, secs=%.3f)", float64(p.satReqs)/p.sat.wall.Seconds(), p.satReqs, p.sat.wall.Seconds()),
		fmt.Sprintf("latency_p50_ms raw = %.4f (median of open-loop windows), reference ratio = %.4f", median(p.latWindows), p.latRatio),
		fmt.Sprintf("cpu_us_per_req raw = %.4f (saturation phase), reference ratio = %.4f", rawCPU, p.cpuRatio),
		fmt.Sprintf("host.steal_pct = %.2f (open and saturation windows)", steal))
	p.heapBytes = liveHeap() - heapBase
	if err := gen.stop(); err != nil {
		return err
	}
	p.runFrom, p.runTo = from, next

	snap, err := s.Metrics()
	if err != nil {
		return err
	}
	p.stats, p.stages = snap.Stats, snap.Stages
	p.runAdmissions = (snap.Stats.Admitted + snap.Stats.Degraded) - (st0.Admitted + st0.Degraded)
	if p.failed == 0 && p.runAdmissions != admittedOK {
		r.fail("server admitted %d requests, the generator got %d admission tickets", p.runAdmissions, admittedOK)
	}
	horizon := z.horizon
	if next < len(r.trace) {
		horizon = r.trace[next].T
	}
	sp := rec.begin(spanDrain, -1)
	dr, err := s.Drain(horizon)
	rec.end(sp, spanDrain, 0, err)
	if err != nil {
		return err
	}
	p.drained = dr
	p.channels = dr.AverageChannels()
	p.samples["mean_channels"], p.samples["heap_live_mb"] = 1, 1
	front.close()
	s.Close()
	if rec != nil {
		p.serverTotals[1] = rec.snapshotTotals()
	}
	p.goroutinesEnd = settleGoroutines(floor)
	return nil
}

// checkPhase applies the per-phase accounting checks.  The generator
// may open only its keep-alive connections: wireConns() to the program,
// and at most as many to the reference exchange.
func (r *runner) checkPhase(res phaseResult) {
	if res.Answered+res.Failed != res.Sent {
		r.fail("phase %s: answered %d + failed %d != sent %d", res.Name, res.Answered, res.Failed, res.Sent)
	}
	if want := int64(wireConns()); res.Dials != want || res.RefDials > want {
		r.fail("phase %s: generator opened %d program and %d reference connections, want only its %d keep-alive ones each",
			res.Name, res.Dials, res.RefDials, want)
	}
	if res.Cut {
		r.fail("phase %s: cut by its time cap after %d admissions", res.Name, res.Admissions)
	}
	for _, e := range res.Errors {
		r.fail("phase %s: %s", res.Name, e)
	}
}
