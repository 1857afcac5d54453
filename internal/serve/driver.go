package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/arrivals"
	"repro/internal/multiobject"
	"repro/internal/stats"
	"repro/internal/textplot"
)

// ArrivalKind selects the load generator's arrival process.
type ArrivalKind int

const (
	// ConstantArrivals: a request exactly every mean inter-arrival time.
	ConstantArrivals ArrivalKind = iota
	// PoissonArrivals: exponential inter-arrival times.
	PoissonArrivals
	// RampArrivals: a nonhomogeneous Poisson process whose rate ramps up
	// linearly to RampFactor times the initial rate (prime-time evening).
	RampArrivals
	// FlashArrivals: Poisson background traffic with a flash crowd —
	// RampFactor times the baseline rate — over the middle fifth of the
	// horizon (a premiere or breaking-news spike).
	FlashArrivals
)

func (k ArrivalKind) String() string {
	switch k {
	case ConstantArrivals:
		return "constant rate"
	case PoissonArrivals:
		return "Poisson"
	case RampArrivals:
		return "ramp"
	case FlashArrivals:
		return "flash crowd"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// LoadConfig describes the request load offered to a server.
type LoadConfig struct {
	// Horizon is the load duration in catalog time units.
	Horizon float64
	// MeanInterArrival is the aggregate mean inter-arrival time across the
	// catalog; object i receives a share proportional to its popularity
	// (exactly like sim.WorkloadConfig).
	MeanInterArrival float64
	// Kind selects the arrival process.
	Kind ArrivalKind
	// RampFactor is the final-to-initial rate ratio for RampArrivals and
	// the flash-crowd rate multiplier for FlashArrivals (default 4).
	RampFactor float64
	// Seed seeds the per-object generators (object i uses Seed+i), so a
	// fixed seed replays the identical request sequence — the published
	// numbers are reproducible from the command line.
	Seed int64
}

// GenerateRequests builds the deterministic, time-sorted request sequence
// the load generator replays.  The per-object traces are generated exactly
// like sim.RunWorkload generates its workload — same popularity shares,
// same per-object seeds — so a live replay is comparable (and, for the
// Poisson/constant kinds, equivalence-testable) against the batch path.
func GenerateRequests(cat multiobject.Catalog, cfg LoadConfig) ([]Request, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	if !(cfg.Horizon > 0) || math.IsInf(cfg.Horizon, 1) {
		return nil, fmt.Errorf("%w: load horizon must be positive and finite, got %g", ErrBadConfig, cfg.Horizon)
	}
	if !(cfg.MeanInterArrival > 0) || math.IsInf(cfg.MeanInterArrival, 1) {
		return nil, fmt.Errorf("%w: load mean inter-arrival must be positive and finite, got %g", ErrBadConfig, cfg.MeanInterArrival)
	}
	ramp := cfg.RampFactor
	if math.IsNaN(ramp) || math.IsInf(ramp, 0) {
		return nil, fmt.Errorf("%w: load ramp factor must be finite, got %g", ErrBadConfig, ramp)
	}
	if ramp <= 0 {
		ramp = 4
	}
	if cfg.Kind == FlashArrivals && ramp < 1 {
		return nil, fmt.Errorf("%w: flash-crowd rate factor must be at least 1, got %g", ErrBadConfig, ramp)
	}
	var popTotal float64
	for _, o := range cat {
		popTotal += o.Popularity
	}
	type timed struct {
		t   float64
		obj int
	}
	var all []timed
	for i, o := range cat {
		share := 1 / float64(len(cat))
		if popTotal > 0 {
			share = o.Popularity / popTotal
		}
		if share <= 0 {
			continue
		}
		mean := cfg.MeanInterArrival / share
		var tr arrivals.Trace
		switch cfg.Kind {
		case ConstantArrivals:
			tr = arrivals.Constant(mean, cfg.Horizon)
		case PoissonArrivals:
			tr = arrivals.Poisson(mean, cfg.Horizon, cfg.Seed+int64(i))
		case RampArrivals:
			tr = arrivals.Ramp(mean, mean/ramp, cfg.Horizon, cfg.Seed+int64(i))
		case FlashArrivals:
			tr = arrivals.Flash(mean, ramp, 0.4*cfg.Horizon, 0.2*cfg.Horizon, cfg.Horizon, cfg.Seed+int64(i))
		default:
			return nil, fmt.Errorf("%w: unknown arrival kind %d", ErrBadConfig, int(cfg.Kind))
		}
		for _, t := range tr {
			all = append(all, timed{t: t, obj: i})
		}
	}
	// Global time order; catalog order breaks exact ties so the sequence is
	// fully deterministic.
	sort.Slice(all, func(a, b int) bool {
		if all[a].t != all[b].t {
			return all[a].t < all[b].t
		}
		return all[a].obj < all[b].obj
	})
	reqs := make([]Request, len(all))
	for i, tm := range all {
		reqs[i] = Request{Object: cat[tm.obj].Name, T: tm.t}
	}
	return reqs, nil
}

// Report is the closed-loop load generator's outcome.
type Report struct {
	// Requests is the number of requests offered.
	Requests int
	// Admitted/Degraded/Rejected count the admission outcomes observed.
	Admitted, Degraded, Rejected int
	// Failed counts HTTP requests answered with a JSON error (HTTP mode
	// only; e.g. unknown objects), including requests still refused by
	// backpressure after the retry budget.
	Failed int
	// PressureRetries counts 429 responses the HTTP driver retried after
	// honoring their Retry-After (capped backoff); PressureFailed counts
	// requests abandoned after the retry budget.  A trace that completes
	// under transient pressure shows retries but no failures.
	PressureRetries int
	PressureFailed  int
	// OfferedDelay summarizes StartAt - T over served requests: the actual
	// start-up delay each client was offered (degradations raise it).
	OfferedDelay stats.Summary
	// Latency summarizes the wall-clock request round-trip (HTTP mode
	// only; zero for the in-process driver).
	Latency stats.Summary
	// Drain is the final accounting (in-process mode only).
	Drain *DrainResult
	// Stats is the server-side snapshot (HTTP mode).
	Stats *Stats

	delays    []float64
	latencies []float64
}

// RunDriver replays the request sequence against an in-process server in
// strict time order, one request at a time, then drains it at the horizon.
// With a fixed-seed sequence from GenerateRequests the entire run —
// decisions, tickets, drained per-object stream counts and bandwidth
// totals — is deterministic for any shard count, which is what the
// equivalence tests against sim.RunWorkload and the batch planners
// assert.
//
// Cancelling ctx stops the replay between requests and returns an error
// wrapping ctx.Err().  The server itself stays healthy: its shards hold
// no driver state, so the caller can still Drain it (finalizing whatever
// was admitted) and must still Close it.
func RunDriver(ctx context.Context, s *Server, reqs []Request, horizon float64) (*Report, error) {
	rep := &Report{Requests: len(reqs)}
	for i, req := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("serve: driver canceled after %d of %d requests: %w", i, len(reqs), err)
		}
		ticket, err := s.Submit(req)
		if err != nil {
			return nil, err
		}
		rep.Count(ticket)
	}
	dr, err := s.Drain(horizon)
	if err != nil {
		return nil, err
	}
	rep.Drain = dr
	rep.Finish()
	return rep, nil
}

// Backpressure retry budget of the HTTP driver: how many 429 responses
// one request may absorb before it counts as failed, and the cap on any
// single Retry-After-driven sleep.
const (
	maxPressureRetries = 8
	maxPressureBackoff = 2 * time.Second
)

// RunHTTPDriver replays the request sequence against a live HTTP endpoint
// with the given number of concurrent connections, measuring round-trip
// latencies, then snapshots /stats.  Unlike the in-process driver the
// interleaving (and therefore any admission degradation) is subject to
// network scheduling, so this mode measures rather than reproduces.
// Cancelling ctx stops dispatching and aborts in-flight requests.
//
// A 429 answer (queue-depth backpressure) is not a failure: the driver
// honors the Retry-After header — sleeping at most maxPressureBackoff —
// and retries the same request up to maxPressureRetries times, counting
// each retry in Report.PressureRetries; only a request still refused
// after the budget lands in Failed (and PressureFailed).  A trace
// offered through transient pressure therefore completes.
func RunHTTPDriver(ctx context.Context, baseURL string, reqs []Request, concurrency int) (*Report, error) {
	if concurrency < 1 {
		concurrency = 1
	}
	client := &http.Client{Timeout: 30 * time.Second}
	rep := &Report{Requests: len(reqs)}
	var mu sync.Mutex
	var firstErr error
	work := make(chan Request)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range work {
				body, _ := json.Marshal(req)
			attempt:
				for attempt := 0; ; attempt++ {
					hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
						baseURL+APIVersion+"/request", bytes.NewReader(body))
					if err == nil {
						hreq.Header.Set("Content-Type", "application/json")
					}
					t0 := time.Now()
					var resp *http.Response
					if err == nil {
						resp, err = client.Do(hreq)
					}
					lat := time.Since(t0).Seconds()
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						break
					}
					if resp.StatusCode == http.StatusTooManyRequests {
						retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						mu.Lock()
						if attempt >= maxPressureRetries {
							rep.Failed++
							rep.PressureFailed++
							mu.Unlock()
							break
						}
						rep.PressureRetries++
						mu.Unlock()
						select {
						case <-time.After(retryAfter):
						case <-ctx.Done():
							break attempt
						}
						continue
					}
					// Error responses are JSON {"error": ...}; decode both
					// shapes so a per-request failure is counted, not fatal.
					var out struct {
						Ticket
						Error string `json:"error"`
					}
					decErr := json.NewDecoder(resp.Body).Decode(&out)
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					mu.Lock()
					switch {
					case decErr != nil:
						if firstErr == nil {
							firstErr = fmt.Errorf("serve: bad ticket from %s: %w", baseURL, decErr)
						}
					case out.Error != "":
						rep.Failed++
					default:
						rep.Count(out.Ticket)
						rep.latencies = append(rep.latencies, lat)
					}
					mu.Unlock()
					break
				}
			}
		}()
	}
dispatch:
	for _, req := range reqs {
		select {
		case work <- req:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("serve: HTTP driver canceled: %w", err)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	resp, err := client.Get(baseURL + APIVersion + "/stats")
	if err == nil {
		var st Stats
		if json.NewDecoder(resp.Body).Decode(&st) == nil {
			rep.Stats = &st
		}
		resp.Body.Close()
	}
	rep.Finish()
	return rep, nil
}

// parseRetryAfter turns a Retry-After header (delay-seconds form) into
// the driver's sleep: the advertised delay capped at maxPressureBackoff,
// or half the cap when the header is absent or unparseable.
func parseRetryAfter(h string) time.Duration {
	d := maxPressureBackoff / 2
	if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && secs >= 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > maxPressureBackoff {
		d = maxPressureBackoff
	}
	return d
}

// Count tallies one ticket: the admission decision and, for served
// requests, the offered start-up delay sample.  Drivers that replay
// requests themselves (e.g. modserve's bench mode, which times every
// Submit) feed their tickets through Count and call Finish once done, so
// their reports carry the same delay summaries as RunDriver's.
func (r *Report) Count(t Ticket) {
	switch t.Decision {
	case Degraded:
		r.Degraded++
	case Rejected:
		r.Rejected++
		return
	default:
		r.Admitted++
	}
	r.delays = append(r.delays, t.StartAt-t.T)
}

// Finish summarizes the collected delay and latency samples.
func (r *Report) Finish() {
	r.OfferedDelay = stats.Summarize(r.delays)
	r.Latency = stats.Summarize(r.latencies)
}

// Render writes the report as aligned tables and a start-up-delay
// histogram, and after a drain the server's peak, average and busy time,
// read from the drained Stats.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "requests:             %d\n", r.Requests)
	fmt.Fprintf(w, "admitted:             %d\n", r.Admitted)
	fmt.Fprintf(w, "degraded:             %d\n", r.Degraded)
	fmt.Fprintf(w, "rejected:             %d\n", r.Rejected)
	if r.Failed > 0 {
		fmt.Fprintf(w, "failed:               %d\n", r.Failed)
	}
	if r.PressureRetries > 0 {
		fmt.Fprintf(w, "pressure retries:     %d\n", r.PressureRetries)
	}
	if r.PressureFailed > 0 {
		fmt.Fprintf(w, "pressure failed:      %d\n", r.PressureFailed)
	}
	if r.OfferedDelay.N > 0 {
		fmt.Fprintf(w, "offered delay:        %s\n", r.OfferedDelay)
	}
	if r.Latency.N > 0 {
		fmt.Fprintf(w, "request latency (s):  %s\n", r.Latency)
	}
	if len(r.delays) > 1 {
		fmt.Fprintf(w, "\nStart-up delay histogram (time units):\n%s", histogram(r.delays, 8))
	}
	if len(r.latencies) > 1 {
		fmt.Fprintf(w, "\nRequest latency histogram (seconds):\n%s", histogram(r.latencies, 8))
	}
	objs := r.objects()
	if len(objs) > 0 {
		tbl := textplot.NewTable("object", "strategy", "shard", "L", "delay", "scale", "arrivals", "clients", "rejected", "streams", "cost", "busy")
		for _, o := range objs {
			tbl.AddRow(o.Name, o.Strategy, o.Shard, o.L, o.Delay, o.Scale, o.Arrivals, o.Clients, o.Rejected, o.Streams, o.Cost, o.BusyTime)
		}
		fmt.Fprintf(w, "\n%s", tbl.String())
	}
	if r.Drain != nil {
		fmt.Fprintf(w, "\nserver peak:          %d channels\n", r.Drain.Stats.Peak)
		fmt.Fprintf(w, "server average:       %.2f channels\n", r.AverageChannels())
		fmt.Fprintf(w, "total busy time:      %.2f time units\n", r.Drain.Stats.BusyTime)
	}
}

// AverageChannels returns the drained time-average channel usage (0 before
// a drain).
func (r *Report) AverageChannels() float64 {
	if r.Drain == nil {
		return 0
	}
	return r.Drain.AverageChannels()
}

// objects returns the per-object stats from whichever side produced them.
func (r *Report) objects() []ObjectStats {
	if r.Drain != nil {
		return r.Drain.Objects
	}
	if r.Stats != nil {
		return r.Stats.Objects
	}
	return nil
}

// histogram renders an equal-width bucket table of the samples.
func histogram(xs []float64, buckets int) string {
	if len(xs) == 0 || buckets < 1 {
		return ""
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	counts := make([]int, buckets)
	width := (hi - lo) / float64(buckets)
	for _, x := range xs {
		i := int((x - lo) / width)
		if i >= buckets {
			i = buckets - 1
		}
		counts[i]++
	}
	tbl := textplot.NewTable("from", "to", "count", "bar")
	for i, c := range counts {
		bar := ""
		for j := 0; j < 40*c/len(xs); j++ {
			bar += "#"
		}
		tbl.AddRow(lo+float64(i)*width, lo+float64(i+1)*width, c, bar)
	}
	return tbl.String()
}
