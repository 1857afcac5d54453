package serve_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/multiobject"
	"repro/internal/serve"
)

func TestSubmitTicketShape(t *testing.T) {
	cat := multiobject.ZipfCatalog(3, 1.0, 0.1, 1.0)
	s, err := serve.New(serve.Config{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tk, err := s.Submit(serve.Request{Object: "object-01", T: 0.55})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Decision != serve.Admitted {
		t.Fatalf("decision = %q, want admitted", tk.Decision)
	}
	if tk.Slot != 5 { // floor(0.55 / 0.1)
		t.Errorf("slot = %d, want 5", tk.Slot)
	}
	if want := 0.6; math.Abs(tk.StartAt-want) > 1e-12 {
		t.Errorf("start_at = %g, want %g", tk.StartAt, want)
	}
	if tk.StartAt-tk.T > tk.Delay+1e-12 {
		t.Errorf("offered delay %g exceeds guarantee %g", tk.StartAt-tk.T, tk.Delay)
	}
	// The receiving program runs from the root stream down to the client's
	// own slot, strictly increasing.
	if len(tk.Program) == 0 || tk.Program[len(tk.Program)-1] != tk.Slot {
		t.Fatalf("program %v does not end at slot %d", tk.Program, tk.Slot)
	}
	for i := 1; i < len(tk.Program); i++ {
		if tk.Program[i] <= tk.Program[i-1] {
			t.Fatalf("program %v is not strictly increasing", tk.Program)
		}
	}
}

func TestUnknownObjectAndClose(t *testing.T) {
	cat := multiobject.ZipfCatalog(2, 1.0, 0.1, 1.0)
	s, err := serve.New(serve.Config{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(serve.Request{Object: "nope", T: 0}); !errors.Is(err, serve.ErrUnknownObject) {
		t.Fatalf("unknown object error = %v", err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Unknown != 1 {
		t.Errorf("unknown counter = %d, want 1", st.Unknown)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Submit(serve.Request{Object: "object-01", T: 0}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if _, err := s.Stats(); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("stats after close = %v, want ErrClosed", err)
	}
}

// TestAdmissionDegradesThenRejects drives one object far past a tiny
// channel cap and checks the controller walks the FitDelays ladder:
// admissions at scale 1, then degradations that raise the delay, then
// rejections once MaxDelayScale is exhausted — every outcome counted.
func TestAdmissionDegradesThenRejects(t *testing.T) {
	cat := multiobject.Catalog{{Name: "hot", Length: 1, Popularity: 1, Delay: 0.01}}
	s, err := serve.New(serve.Config{
		Catalog:       cat,
		MaxChannels:   2,
		DegradeStep:   2,
		MaxDelayScale: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var admitted, degraded, rejected int
	lastDelay := 0.01
	for i := 0; i < 400; i++ {
		tk, err := s.Submit(serve.Request{Object: "hot", T: float64(i) * 0.005})
		if err != nil {
			t.Fatal(err)
		}
		switch tk.Decision {
		case serve.Admitted:
			admitted++
		case serve.Degraded:
			degraded++
			if tk.Delay <= lastDelay {
				t.Fatalf("degradation %d did not raise the delay: %g -> %g", degraded, lastDelay, tk.Delay)
			}
			lastDelay = tk.Delay
		case serve.Rejected:
			rejected++
			if tk.Program != nil {
				t.Fatal("rejected ticket carries a program")
			}
		}
	}
	if admitted == 0 || degraded == 0 || rejected == 0 {
		t.Fatalf("expected all outcomes, got admitted=%d degraded=%d rejected=%d", admitted, degraded, rejected)
	}
	if degraded != 2 { // scale 1 -> 2 -> 4, then the ladder is exhausted
		t.Errorf("degraded = %d, want 2 (step 2 up to scale 4)", degraded)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != int64(admitted) || st.Degraded != int64(degraded) || st.Rejected != int64(rejected) {
		t.Errorf("counters %d/%d/%d, want %d/%d/%d",
			st.Admitted, st.Degraded, st.Rejected, admitted, degraded, rejected)
	}
	obj, err := s.Object("hot")
	if err != nil {
		t.Fatal(err)
	}
	if obj.Scale != 4 {
		t.Errorf("final scale = %g, want 4", obj.Scale)
	}
	if obj.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", obj.Epoch)
	}
}

// TestConcurrentSubmitRace exercises the sharded event loops under
// concurrent load from many goroutines (plus stats readers); run with
// -race in CI.
func TestConcurrentSubmitRace(t *testing.T) {
	cat := multiobject.ZipfCatalog(16, 1.0, 0.05, 1.0)
	s, err := serve.New(serve.Config{Catalog: cat, Shards: 4, MaxChannels: 50})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("object-%02d", (g*7+i)%16+1)
				if _, err := s.Submit(serve.Request{Object: name, T: float64(i) * 0.01}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Stats(); err != nil {
					t.Errorf("stats: %v", err)
					return
				}
				if _, err := s.Object("object-01"); err != nil {
					t.Errorf("object: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	dr, err := s.Drain(4)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, o := range dr.Objects {
		total += o.Arrivals
	}
	if st := dr.Stats; total != st.Admitted+st.Degraded {
		t.Errorf("per-object arrivals %d != admitted+degraded %d", total, st.Admitted+st.Degraded)
	}
	s.Close()
}

// TestStatsOutcomesMatchObjects pins that every Stats read is one state
// of each shard: while four goroutines submit, with rising virtual T,
// under a channel cap tight enough for all three outcomes, each read's
// Admitted+Degraded must equal the sum of its objects' Arrivals and its
// Rejected the sum of their Rejected.
func TestStatsOutcomesMatchObjects(t *testing.T) {
	cat := multiobject.ZipfCatalog(16, 1.0, 0.02, 1.0)
	s, err := serve.New(serve.Config{Catalog: cat, Shards: 2, MaxChannels: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("object-%02d", (g*5+i)%16+1)
				if _, err := s.Submit(serve.Request{Object: name, T: float64(i) * 0.002}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	off := 0
	for r := 0; r < 2000; r++ {
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		var arrivals, rejected int64
		for _, o := range st.Objects {
			arrivals += o.Arrivals
			rejected += o.Rejected
		}
		if st.Admitted+st.Degraded != arrivals || st.Rejected != rejected {
			if off++; off <= 3 {
				t.Errorf("read %d: admitted+degraded %d, rejected %d; its objects sum to %d arrivals, %d rejected",
					r, st.Admitted+st.Degraded, st.Rejected, arrivals, rejected)
			}
		}
	}
	close(stop)
	wg.Wait()
	if off > 0 {
		t.Errorf("%d of 2000 reads contradict their own objects", off)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted == 0 || st.Degraded == 0 || st.Rejected == 0 {
		t.Errorf("want all three outcomes, got admitted %d, degraded %d, rejected %d", st.Admitted, st.Degraded, st.Rejected)
	}
}

// TestObjectMatchesStatsRow checks that Object answers, for every object
// and every strategy, the row Stats reports for it: on two shards, under a
// channel cap that degrades and rejects, with stage metering on (so the
// rows carry replan wall time) and once more after a drain.  An unknown
// name is ErrUnknownObject.
func TestObjectMatchesStatsRow(t *testing.T) {
	cat := multiobject.ZipfCatalog(8, 1.0, 0.05, 1.0)
	reqs, err := serve.GenerateRequests(cat, serve.LoadConfig{Horizon: 6, MeanInterArrival: 0.01, Kind: serve.PoissonArrivals, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range serve.LivePlanners() {
		s, err := serve.New(serve.Config{Catalog: cat, Shards: 2, MaxChannels: 12, DefaultStrategy: strategy, EpochSlots: 32, MeterStages: true})
		if err != nil {
			t.Fatal(err)
		}
		same := func(when string) {
			st, err := s.Stats()
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range st.Objects {
				got, err := s.Object(want.Name)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s, %s: Object(%q) = %+v, Stats reports %+v", strategy, when, want.Name, got, want)
				}
			}
			if st.Degraded == 0 || st.Rejected == 0 {
				t.Fatalf("%s: want degradations and rejections, got %d and %d", strategy, st.Degraded, st.Rejected)
			}
		}
		for _, r := range reqs {
			if _, err := s.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		same("mid-run")
		if _, err := s.Drain(6); err != nil {
			t.Fatal(err)
		}
		same("drained")
		if _, err := s.Object("no-such-object"); !errors.Is(err, serve.ErrUnknownObject) {
			t.Fatalf("%s: unknown object: err = %v, want ErrUnknownObject", strategy, err)
		}
		s.Close()
	}
}

func TestGenerateRequestsDeterministicAndSorted(t *testing.T) {
	cat := multiobject.ZipfCatalog(5, 1.0, 0.05, 1.0)
	cfg := serve.LoadConfig{Horizon: 6, MeanInterArrival: 0.05, Kind: serve.PoissonArrivals, Seed: 3}
	a, err := serve.GenerateRequests(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serve.GenerateRequests(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].T < a[i-1].T {
			t.Fatalf("requests not time-sorted at %d", i)
		}
	}
	cfg.Seed = 4
	c, err := serve.GenerateRequests(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced an identical request sequence")
		}
	}
}

// TestGenerateRequestsRefusesBadLoad pins ErrBadConfig, not a generator
// panic or a loop that never ends, for every load value the generators
// cannot draw from.
func TestGenerateRequestsRefusesBadLoad(t *testing.T) {
	cat := multiobject.ZipfCatalog(3, 1.0, 0.1, 1.0)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		cfg  serve.LoadConfig
	}{
		{"NaN horizon", serve.LoadConfig{Horizon: nan, MeanInterArrival: 0.1, Kind: serve.PoissonArrivals}},
		{"+Inf horizon", serve.LoadConfig{Horizon: inf, MeanInterArrival: 0.1, Kind: serve.ConstantArrivals}},
		{"zero horizon", serve.LoadConfig{Horizon: 0, MeanInterArrival: 0.1, Kind: serve.PoissonArrivals}},
		{"NaN mean", serve.LoadConfig{Horizon: 5, MeanInterArrival: nan, Kind: serve.PoissonArrivals}},
		{"+Inf mean", serve.LoadConfig{Horizon: 5, MeanInterArrival: inf, Kind: serve.PoissonArrivals}},
		{"zero mean", serve.LoadConfig{Horizon: 5, MeanInterArrival: 0, Kind: serve.PoissonArrivals}},
		{"NaN ramp factor", serve.LoadConfig{Horizon: 5, MeanInterArrival: 0.1, Kind: serve.RampArrivals, RampFactor: nan}},
		{"+Inf ramp factor", serve.LoadConfig{Horizon: 5, MeanInterArrival: 0.1, Kind: serve.RampArrivals, RampFactor: inf}},
		{"-Inf flash factor", serve.LoadConfig{Horizon: 5, MeanInterArrival: 0.1, Kind: serve.FlashArrivals, RampFactor: -inf}},
		{"flash factor below 1", serve.LoadConfig{Horizon: 5, MeanInterArrival: 0.1, Kind: serve.FlashArrivals, RampFactor: 0.5}},
	} {
		if _, err := serve.GenerateRequests(cat, c.cfg); !errors.Is(err, serve.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", c.name, err)
		}
	}
	// A ramp factor below 1 ramps the rate down: valid for a ramp.
	if _, err := serve.GenerateRequests(cat, serve.LoadConfig{Horizon: 5, MeanInterArrival: 0.1, Kind: serve.RampArrivals, RampFactor: 0.5}); err != nil {
		t.Errorf("ramp factor 0.5: %v", err)
	}
}

// TestRampArrivals checks the ramp process is valid, deterministic, and
// actually ramps: the second half of the horizon sees more arrivals than
// the first when the rate quadruples.
func TestRampArrivals(t *testing.T) {
	tr := arrivals.Ramp(0.1, 0.025, 100, 7)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr2 := arrivals.Ramp(0.1, 0.025, 100, 7)
	if len(tr) != len(tr2) {
		t.Fatalf("ramp not deterministic: %d vs %d arrivals", len(tr), len(tr2))
	}
	first, second := 0, 0
	for _, at := range tr {
		if at < 50 {
			first++
		} else {
			second++
		}
	}
	if second <= first {
		t.Errorf("ramp did not ramp: %d arrivals before midpoint, %d after", first, second)
	}
	// Expected count: integral of the rate = horizon * (r0+r1)/2 = 100*25 = 2500.
	if len(tr) < 2000 || len(tr) > 3000 {
		t.Errorf("ramp produced %d arrivals, want ~2500", len(tr))
	}
	reqs, err := serve.GenerateRequests(
		multiobject.ZipfCatalog(3, 1.0, 0.1, 1.0),
		serve.LoadConfig{Horizon: 5, MeanInterArrival: 0.1, Kind: serve.RampArrivals, Seed: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 {
		t.Fatal("ramp load produced no requests")
	}
}

// TestMaxSlotJumpGuard pins the event-loop guard: a request stamped
// absurdly far in the future is rejected without advancing the clock, and
// the server keeps serving normal requests afterwards.
func TestMaxSlotJumpGuard(t *testing.T) {
	cat := multiobject.ZipfCatalog(2, 1.0, 0.1, 1.0)
	s, err := serve.New(serve.Config{Catalog: cat, MaxSlotJump: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tk, err := s.Submit(serve.Request{Object: "object-01", T: 1e15})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Decision != serve.Rejected {
		t.Fatalf("far-future request decision = %q, want rejected", tk.Decision)
	}
	tk, err = s.Submit(serve.Request{Object: "object-01", T: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Decision != serve.Admitted || tk.Slot != 2 {
		t.Fatalf("follow-up request = %+v, want admitted at slot 2", tk)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 || st.Admitted != 1 {
		t.Errorf("counters rejected=%d admitted=%d, want 1/1", st.Rejected, st.Admitted)
	}
	// Within the bound, big jumps still work (and don't wedge).
	tk, err = s.Submit(serve.Request{Object: "object-02", T: 50})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Decision != serve.Admitted {
		t.Fatalf("in-bound jump = %+v, want admitted", tk)
	}
}

// TestDegradeCorrectsGauge checks that after a degradation truncates an
// epoch's trailing streams, the live gauge drains back to the truncated
// plan's level instead of staying pinned at the stale estimates: the
// controller must not cascade into rejections while real usage is under
// budget.
func TestDegradeCorrectsGauge(t *testing.T) {
	cat := multiobject.Catalog{{Name: "hot", Length: 1, Popularity: 1, Delay: 0.01}}
	s, err := serve.New(serve.Config{
		Catalog:       cat,
		MaxChannels:   3,
		DegradeStep:   4,
		MaxDelayScale: 100, // delay ladder never exhausts (clamped at the length)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lateRejections := 0
	for i := 0; i < 2000; i++ {
		tk, err := s.Submit(serve.Request{Object: "hot", T: float64(i) * 0.01})
		if err != nil {
			t.Fatal(err)
		}
		// Early rejections are legitimate: streams of the pre-degradation
		// epochs really are still transmitting while the degraded plan
		// ramps up.  But once those streams end (well before t = 15 here),
		// the truncation corrections must have drained the gauge to the
		// degraded plan's level — usage of the final plan (L = 2) peaks at
		// 2 channels, under the cap of 3 — so late rejections would mean
		// the gauge is pinned high by stale estimates.
		if tk.Decision == serve.Rejected && i >= 1500 {
			lateRejections++
		}
	}
	if lateRejections > 0 {
		t.Errorf("%d rejections in steady state: gauge did not recover after degradations", lateRejections)
	}
	obj, err := s.Object("hot")
	if err != nil {
		t.Fatal(err)
	}
	// Step 4 under MaxDelayScale 100 walks 1 -> 4 -> 16 -> 64 and stops.
	if obj.Scale != 64 {
		t.Errorf("steady-state scale = %g, want 64", obj.Scale)
	}
}
