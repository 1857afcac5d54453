package serve_test

// Backpressure tests: queue-depth reservation arbitration (deterministic
// reject counts under a paused shard), the 429 + Retry-After HTTP
// contract, and the HTTP driver completing a trace through transient
// pressure — then draining to the same cost totals as an unpressured run
// of the admitted subset.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/multiobject"
	"repro/internal/serve"
)

// pressureServer: one object, one shard, so every submit contends on the
// same queue.
func pressureServer(t *testing.T, highWater int) *serve.Server {
	t.Helper()
	s, err := serve.New(serve.Config{
		Catalog:           multiobject.ZipfCatalog(1, 1.0, 0.125, 1.0),
		Shards:            1,
		PressureHighWater: highWater,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestBackpressureDeterministic holds the single shard paused while K
// identical requests race the reservation counter: exactly highWater of
// them may hold queue slots, so exactly K-highWater must be refused with
// a *PressureError — deterministically, whatever the goroutine schedule,
// because reservation order is the arbitration.  After release, the
// admitted subset drains to the same cost totals as an unpressured run
// of the same subset (all arrivals share one instant, so the totals are
// independent of WHICH submits won).  The sweep runs from a permissive
// mark to one that refuses almost everything.
func TestBackpressureDeterministic(t *testing.T) {
	for _, tc := range []struct{ submits, highWater int }{{6, 2}, {8, 1}, {8, 2}, {8, 4}} {
		t.Run(fmt.Sprintf("submits=%d,high_water=%d", tc.submits, tc.highWater), func(t *testing.T) {
			testBackpressureDeterministic(t, tc.submits, tc.highWater)
		})
	}
}

func testBackpressureDeterministic(t *testing.T, K, HW int) {
	s := pressureServer(t, HW)
	release, err := s.Pause(0)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		tk  serve.Ticket
		err error
	}
	results := make(chan outcome, K)
	for i := 0; i < K; i++ {
		go func() {
			tk, err := s.Submit(serve.Request{Object: "object-01", T: 0.5})
			results <- outcome{tk, err}
		}()
	}
	// While the shard is paused only pressure-refused submits can return:
	// the reservation holders are blocked awaiting the loop.  So the
	// first K-HW results are exactly the rejections.
	for i := 0; i < K-HW; i++ {
		select {
		case r := <-results:
			if !errors.Is(r.err, serve.ErrPressure) {
				t.Fatalf("refusal %d: err = %v, want ErrPressure", i, r.err)
			}
			var pe *serve.PressureError
			if !errors.As(r.err, &pe) {
				t.Fatalf("refusal %d: err %v is not a *PressureError", i, r.err)
			}
			if pe.Shard != 0 || pe.Depth <= int64(HW) || pe.RetryAfter < time.Second {
				t.Fatalf("refusal %d: unexpected details %+v", i, pe)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for pressure refusal %d", i)
		}
	}
	release()
	for i := 0; i < HW; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("admitted submit %d failed: %v", i, r.err)
			}
			if r.tk.Decision != serve.Admitted {
				t.Fatalf("admitted submit %d: decision %q", i, r.tk.Decision)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for admitted submit %d", i)
		}
	}

	dr, err := s.Drain(2)
	if err != nil {
		t.Fatal(err)
	}
	st := dr.Stats
	if st.RejectedPressure != int64(K-HW) {
		t.Errorf("RejectedPressure = %d, want %d", st.RejectedPressure, K-HW)
	}
	if st.Admitted != int64(HW) {
		t.Errorf("Admitted = %d, want %d", st.Admitted, HW)
	}
	if len(st.Shards) != 1 {
		t.Fatalf("Shards = %+v, want one entry", st.Shards)
	}
	sh := st.Shards[0]
	if sh.QueueDepth != 0 || sh.HighWater != int64(HW) || sh.Dequeued != int64(HW) || sh.PressureHighWater != HW {
		t.Errorf("shard queue stats = %+v, want depth 0, high water %d, dequeued %d", sh, HW, HW)
	}

	// Unpressured reference run of the admitted subset: HW identical
	// requests, no backpressure, same drain horizon.
	ref := pressureServer(t, 0)
	for i := 0; i < HW; i++ {
		if _, err := ref.Submit(serve.Request{Object: "object-01", T: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	refDr, err := ref.Drain(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Objects) != 1 || len(refDr.Objects) != 1 {
		t.Fatalf("object counts: pressured %d, reference %d", len(dr.Objects), len(refDr.Objects))
	}
	a, b := dr.Objects[0], refDr.Objects[0]
	if a.Cost != b.Cost || a.BusyTime != b.BusyTime || a.Streams != b.Streams || a.Clients != b.Clients {
		t.Errorf("pressured run diverges from unpressured run of the admitted subset:\npressured %+v\nreference %+v", a, b)
	}
}

// statusRecorder remembers the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// TestHTTPDriverBackpressure drives a paused single-shard server over
// HTTP past its high-water mark: the test observes at least one 429 with
// a Retry-After header, keeps the shard paused until the driver itself
// has been refused once, releases it, and the driver — honoring
// Retry-After with capped backoff — completes the whole trace with no
// failures; the server then drains to the same cost totals as an
// unpressured run of the admitted subset (one arrival instant, so any
// admitted subset is cost-equivalent).
func TestHTTPDriverBackpressure(t *testing.T) {
	s := pressureServer(t, 1)
	// Count the 429s answered to the driver; the probe marks its own
	// requests with an X-Probe header.
	var driver429 atomic.Int64
	h := serve.Handler(s)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		h.ServeHTTP(rec, r)
		if rec.status == http.StatusTooManyRequests && r.Header.Get("X-Probe") == "" {
			driver429.Add(1)
		}
	}))
	defer hs.Close()

	release, err := s.Pause(0)
	if err != nil {
		t.Fatal(err)
	}

	reqs := make([]serve.Request, 6)
	for i := range reqs {
		reqs[i] = serve.Request{Object: "object-01", T: 0.5}
	}
	type driven struct {
		rep *serve.Report
		err error
	}
	done := make(chan driven, 1)
	go func() {
		rep, err := serve.RunHTTPDriver(context.Background(), hs.URL, reqs, 3)
		done <- driven{rep, err}
	}()

	// Probe until the queue is over its high-water mark: a 429 with a
	// Retry-After header.  Blocked probes (those that won a reservation)
	// time out client-side; the server finishes them after release.
	probe := &http.Client{Timeout: 300 * time.Millisecond}
	saw429 := false
	deadline := time.Now().Add(15 * time.Second)
	for !saw429 && time.Now().Before(deadline) {
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/request",
			strings.NewReader(`{"object":"object-01","t":0.5}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Probe", "1")
		resp, err := probe.Do(req)
		if err != nil {
			continue // client timeout: the probe is parked in the queue
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			ra := resp.Header.Get("Retry-After")
			if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
				t.Errorf("429 Retry-After = %q, want an integer >= 1", ra)
			}
			saw429 = true
		}
		resp.Body.Close()
	}
	if !saw429 {
		release()
		t.Fatal("never observed a 429 while the shard was paused")
	}
	// The driver's requests may reach the server only now: keep the shard
	// paused until one of them has been refused, so the driver's
	// Retry-After path is what the rest of the test checks.
	for driver429.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	release()
	if driver429.Load() == 0 {
		t.Fatal("the driver was never refused while the shard was paused")
	}

	var d driven
	select {
	case d = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("driver did not complete after release")
	}
	if d.err != nil {
		t.Fatalf("driver failed: %v", d.err)
	}
	rep := d.rep
	if rep.PressureRetries < 1 {
		t.Errorf("PressureRetries = %d, want >= 1 (the driver must have honored Retry-After)", rep.PressureRetries)
	}
	if rep.PressureFailed != 0 || rep.Failed != 0 {
		t.Errorf("driver abandoned requests: PressureFailed=%d Failed=%d", rep.PressureFailed, rep.Failed)
	}
	if rep.Admitted+rep.Degraded != len(reqs) {
		t.Errorf("driver served %d+%d of %d requests after transient pressure",
			rep.Admitted, rep.Degraded, len(reqs))
	}

	dr, err := s.Drain(2)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: an unpressured run of the admitted subset.  All
	// arrivals share t=0.5, so one admission reproduces the totals of
	// any admitted subset.
	ref := pressureServer(t, 0)
	if _, err := ref.Submit(serve.Request{Object: "object-01", T: 0.5}); err != nil {
		t.Fatal(err)
	}
	refDr, err := ref.Drain(2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := dr.Objects[0], refDr.Objects[0]
	if a.Cost != b.Cost || a.BusyTime != b.BusyTime || a.Streams != b.Streams {
		t.Errorf("post-pressure drain diverges from unpressured reference:\npressured %+v\nreference %+v", a, b)
	}
}

// TestBatchBackpressure pins SubmitBatch's whole-sub-batch reservation
// and the /v1/requests 429 contract: a batch refused entirely answers
// 429 + Retry-After with per-entry errors.
func TestBatchBackpressure(t *testing.T) {
	s := pressureServer(t, 2)
	hs := httptest.NewServer(serve.Handler(s))
	defer hs.Close()

	release, err := s.Pause(0)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// In-process: a 3-request batch cannot reserve over high water 2.
	res := s.SubmitBatch([]serve.Request{
		{Object: "object-01", T: 0.5},
		{Object: "object-01", T: 0.5},
		{Object: "object-01", T: 0.5},
	})
	for i, r := range res {
		if !errors.Is(r.Err, serve.ErrPressure) {
			t.Fatalf("batch entry %d: err = %v, want ErrPressure", i, r.Err)
		}
	}

	// HTTP: the same refusal is a 429 with Retry-After and per-entry
	// error bodies.
	resp, err := http.Post(hs.URL+"/v1/requests", "application/json",
		strings.NewReader(`[{"object":"object-01","t":0.5},{"object":"object-01","t":0.5},{"object":"object-01","t":0.5}]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 batch answer missing Retry-After")
	}
}
