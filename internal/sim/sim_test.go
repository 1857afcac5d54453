package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mergetree"
	"repro/internal/online"
	"repro/internal/schedule"
)

func TestRunForestFig3(t *testing.T) {
	f := mergetree.NewForest(15)
	tr, err := mergetree.Parse("0(1 2 3(4) 5(6 7))")
	if err != nil {
		t.Fatal(err)
	}
	f.Add(tr)
	res, err := RunForest(f)
	if err != nil {
		t.Fatalf("RunForest: %v", err)
	}
	if res.Stalls != 0 {
		t.Errorf("playback stalled %d times; every client must play uninterrupted", res.Stalls)
	}
	if res.TotalBandwidth != 36 {
		t.Errorf("TotalBandwidth = %d, want 36", res.TotalBandwidth)
	}
	if res.PeakBandwidth != 4 {
		t.Errorf("PeakBandwidth = %d, want 4", res.PeakBandwidth)
	}
	if res.MaxBuffer != 7 {
		t.Errorf("MaxBuffer = %d, want 7", res.MaxBuffer)
	}
	if len(res.Clients) != 8 {
		t.Fatalf("expected 8 clients, got %d", len(res.Clients))
	}
	for _, c := range res.Clients {
		if c.MaxConcurrent > 2 {
			t.Errorf("client %d listened to %d streams at once", c.Arrival, c.MaxConcurrent)
		}
		if c.FinishSlot != c.Arrival+15 {
			t.Errorf("client %d finished at slot %d, want %d", c.Arrival, c.FinishSlot, c.Arrival+15)
		}
		if c.StartDelay != 0 {
			t.Errorf("client %d has start delay %d", c.Arrival, c.StartDelay)
		}
	}
	if got := res.NormalizedBandwidth(); got != 36.0/15.0 {
		t.Errorf("NormalizedBandwidth = %v", got)
	}
	if res.AverageBandwidth() <= 0 {
		t.Errorf("AverageBandwidth should be positive")
	}
}

func TestRunForestMatchesAnalyticCosts(t *testing.T) {
	// The simulator's measured bandwidth must equal the analytic full cost
	// for optimal forests (up to the clamping of streams at length L, which
	// never triggers for optimal forests).
	for _, c := range []struct{ L, n int64 }{{15, 8}, {15, 14}, {4, 16}, {8, 40}, {50, 120}} {
		f := core.OptimalForest(c.L, c.n)
		res, err := RunForest(f)
		if err != nil {
			t.Fatalf("RunForest(L=%d,n=%d): %v", c.L, c.n, err)
		}
		if res.Stalls != 0 {
			t.Errorf("L=%d n=%d: %d stalls", c.L, c.n, res.Stalls)
		}
		if res.TotalBandwidth != core.FullCost(c.L, c.n) {
			t.Errorf("L=%d n=%d: simulated bandwidth %d != F(L,n) = %d",
				c.L, c.n, res.TotalBandwidth, core.FullCost(c.L, c.n))
		}
		if res.MaxBuffer > c.L/2 {
			t.Errorf("L=%d n=%d: buffer %d exceeds L/2", c.L, c.n, res.MaxBuffer)
		}
	}
}

func TestRunForestOnlineAlgorithm(t *testing.T) {
	srv := online.NewServer(30)
	f := srv.Forest(100)
	res, err := RunForest(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls != 0 {
		t.Errorf("on-line schedule stalled %d times", res.Stalls)
	}
	if res.TotalBandwidth != online.Cost(30, 100) {
		t.Errorf("simulated bandwidth %d != A(30,100) = %d", res.TotalBandwidth, online.Cost(30, 100))
	}
}

func TestRunReceiveAllSchedule(t *testing.T) {
	// The simulator executes receive-all schedules as well: clients listen
	// to every stream on their path and still play back without stalls, at
	// the lower Fw(L,n) bandwidth.
	f := core.OptimalForestAll(15, 14)
	fs, err := schedule.BuildReceiveAll(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSchedule(fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls != 0 {
		t.Errorf("receive-all schedule stalled %d times", res.Stalls)
	}
	if res.TotalBandwidth != core.FullCostAll(15, 14) {
		t.Errorf("simulated bandwidth %d != Fw(15,14) = %d", res.TotalBandwidth, core.FullCostAll(15, 14))
	}
	if res.TotalBandwidth >= core.FullCost(15, 14) {
		t.Errorf("receive-all bandwidth should be below the receive-two optimum")
	}
}

func TestRunForestDetectsCorruptedSchedule(t *testing.T) {
	f := mergetree.NewForest(15)
	tr, _ := mergetree.Parse("0(1 2 3(4) 5(6 7))")
	f.Add(tr)
	fs, err := schedule.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate stream 5: clients 6 and 7 now miss parts and must stall.
	s := fs.Streams[5]
	s.Length = 3
	fs.Streams[5] = s
	res, err := RunSchedule(fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls == 0 {
		t.Errorf("expected stalls after truncating a stream")
	}
}

func TestRunForestBufferedForest(t *testing.T) {
	f := core.OptimalForestBuffered(20, 4, 60)
	res, err := RunForest(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls != 0 {
		t.Errorf("stalls: %d", res.Stalls)
	}
	if res.MaxBuffer > 4 {
		t.Errorf("buffer bound violated: %d > 4", res.MaxBuffer)
	}
}

func TestRunScheduleEmpty(t *testing.T) {
	fs := &schedule.ForestSchedule{L: 10,
		Streams:  map[int64]schedule.StreamSchedule{},
		Programs: map[int64]*schedule.Program{}}
	res, err := RunSchedule(fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBandwidth != 0 || len(res.Clients) != 0 {
		t.Errorf("empty schedule should produce an empty result")
	}
}

func TestRunScheduleInvalidL(t *testing.T) {
	fs := &schedule.ForestSchedule{L: 0,
		Streams:  map[int64]schedule.StreamSchedule{},
		Programs: map[int64]*schedule.Program{}}
	if _, err := RunSchedule(fs); err == nil {
		t.Errorf("expected error for invalid L")
	}
}

func TestClientsSortedInResult(t *testing.T) {
	f := core.OptimalForest(10, 25)
	res, err := RunForest(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Clients); i++ {
		if res.Clients[i].Arrival < res.Clients[i-1].Arrival {
			t.Fatalf("clients not sorted by arrival")
		}
	}
}

func BenchmarkRunForest(b *testing.B) {
	f := core.OptimalForest(50, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunForest(f); err != nil {
			b.Fatal(err)
		}
	}
}
