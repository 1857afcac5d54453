package hybrid

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/dyadic"
)

func TestModeString(t *testing.T) {
	if ModeDyadic.String() != "dyadic" || ModeDelayGuaranteed.String() != "delay-guaranteed" {
		t.Errorf("mode names wrong")
	}
	if Mode(7).String() == "" {
		t.Errorf("unknown mode should format")
	}
}

func TestRunErrors(t *testing.T) {
	for _, c := range []struct {
		name                        string
		trace                       arrivals.Trace
		horizon, mediaLength, delay float64
	}{
		{"unsorted trace", arrivals.Trace{0.5, 0.2}, 10, 1, 0.01},
		{"zero horizon", arrivals.Trace{0.1}, 0, 1, 0.01},
		{"NaN horizon", arrivals.Trace{0.1}, math.NaN(), 1, 0.01},
		{"infinite horizon", arrivals.Trace{0.1}, math.Inf(1), 1, 0.01},
		{"zero media length", arrivals.Trace{0.1}, 10, 0, 0.01},
		{"zero delay", arrivals.Trace{0.1}, 10, 1, 0},
		{"delay past media length", arrivals.Trace{0.1}, 10, 1, 2},
	} {
		if _, err := Run(c.trace, c.horizon, c.mediaLength, c.delay); err == nil {
			t.Errorf("%s: Run succeeded, want an error", c.name)
		}
	}
}

func TestRunEmptyTraceCostsNothingInDyadicMode(t *testing.T) {
	res, err := Run(arrivals.Trace{}, 10, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// With no arrivals every window is lightly loaded, the dyadic mode
	// serves nothing, and the hybrid cost is zero — while the pure
	// delay-guaranteed algorithm would still pay for a stream per slot.
	if res.TotalCost != 0 {
		t.Errorf("hybrid cost on an empty trace = %v, want 0", res.TotalCost)
	}
	if res.PureDelayGuaranteedCost <= 0 {
		t.Errorf("pure delay-guaranteed cost should be positive")
	}
	if res.LoadedFraction != 0 {
		t.Errorf("no window should be classified as loaded")
	}
}

func TestRunSaturatedTraceUsesDelayGuaranteedEverywhere(t *testing.T) {
	// An arrival in every slot: every window is loaded, so the hybrid cost
	// equals the pure delay-guaranteed cost.
	tr := arrivals.Constant(0.005, 10) // two arrivals per slot on average
	res, err := Run(tr, 10, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoadedFraction < 0.99 {
		t.Errorf("loaded fraction = %v, want ~1", res.LoadedFraction)
	}
	if math.Abs(res.TotalCost-res.PureDelayGuaranteedCost) > 1e-9 {
		t.Errorf("hybrid cost %v != pure delay-guaranteed cost %v", res.TotalCost, res.PureDelayGuaranteedCost)
	}
	for _, s := range res.Segments {
		if s.Mode != ModeDelayGuaranteed {
			t.Errorf("segment [%v,%v) should be delay-guaranteed", s.Start, s.End)
		}
	}
}

func TestRunNonStationaryTraceSwitchesModes(t *testing.T) {
	// Quiet first half (sparse Poisson), busy second half (dense constant
	// rate).  The hybrid server must use the dyadic mode in (most of) the
	// quiet half and the delay-guaranteed mode in the busy half, and must
	// beat the pure delay-guaranteed server overall.
	quiet := arrivals.Poisson(0.2, 10, 5)
	var busy arrivals.Trace
	for _, t0 := range arrivals.Constant(0.004, 10) {
		busy = append(busy, 10+t0)
	}
	tr := arrivals.Merge(quiet, busy)
	res, err := Run(tr, 20, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoadedFraction <= 0.3 || res.LoadedFraction >= 0.7 {
		t.Errorf("loaded fraction = %v, expected roughly half the horizon", res.LoadedFraction)
	}
	if res.TotalCost >= res.PureDelayGuaranteedCost {
		t.Errorf("hybrid (%v) should beat pure delay-guaranteed (%v) on a half-quiet trace",
			res.TotalCost, res.PureDelayGuaranteedCost)
	}
	// Mode assignment sanity: every segment fully inside the busy half is
	// delay-guaranteed; every segment fully inside the quiet half (before
	// time 9) is dyadic.
	for _, s := range res.Segments {
		if s.Start >= 10.5 && s.Mode != ModeDelayGuaranteed {
			t.Errorf("busy segment [%v,%v) served in %v mode", s.Start, s.End, s.Mode)
		}
		if s.End <= 9 && s.Mode != ModeDyadic {
			t.Errorf("quiet segment [%v,%v) served in %v mode", s.Start, s.End, s.Mode)
		}
	}
	// Total arrivals across segments equals the trace size.
	total := 0
	for _, s := range res.Segments {
		total += s.Arrivals
	}
	if total != len(tr) {
		t.Errorf("segments account for %d arrivals, trace has %d", total, len(tr))
	}
}

func TestRunCostNeverWorseThanBothPureStrategiesCombined(t *testing.T) {
	// The hybrid cost is at most the pure delay-guaranteed cost plus the
	// pure dyadic cost (each segment is served by one of the two).
	for seed := int64(0); seed < 5; seed++ {
		tr := arrivals.Poisson(0.008, 15, seed)
		res, err := Run(tr, 15, 1, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalCost > res.PureDelayGuaranteedCost+res.PureDyadicCost+1e-9 {
			t.Errorf("seed %d: hybrid cost %v exceeds the sum of both pure costs", seed, res.TotalCost)
		}
	}
}

// TestSegmentForests checks that each dyadic segment with arrivals keeps
// the batched dyadic forest of exactly its own arrivals, priced at its
// cost, and that no other segment holds one.
func TestSegmentForests(t *testing.T) {
	quiet := arrivals.Poisson(0.2, 10, 5)
	var busy arrivals.Trace
	for _, t0 := range arrivals.Constant(0.004, 10) {
		busy = append(busy, 10+t0)
	}
	tr := arrivals.Merge(quiet, busy)
	res, err := Run(tr, 20, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	dyadicWithArrivals := 0
	for _, s := range res.Segments {
		var own arrivals.Trace
		for _, a := range tr {
			if a >= s.Start && a < s.End {
				own = append(own, a)
			}
		}
		if s.Arrivals != len(own) {
			t.Errorf("segment [%v,%v) counts %d arrivals, trace has %d there", s.Start, s.End, s.Arrivals, len(own))
		}
		if s.Mode != ModeDyadic || len(own) == 0 {
			if s.Forest != nil {
				t.Errorf("%v segment [%v,%v) with %d arrivals holds a forest", s.Mode, s.Start, s.End, len(own))
			}
			continue
		}
		dyadicWithArrivals++
		want, err := dyadic.BuildBatchedForest(own, 1, 0.01, dyadic.GoldenPoisson())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Forest, want) {
			t.Errorf("segment [%v,%v): forest differs from the batched dyadic forest of its arrivals", s.Start, s.End)
		}
		if s.Forest.NormalizedCost() != s.Cost {
			t.Errorf("segment [%v,%v): cost %v, forest costs %v", s.Start, s.End, s.Cost, s.Forest.NormalizedCost())
		}
	}
	if dyadicWithArrivals == 0 {
		t.Fatal("no dyadic segment with arrivals: the trace does not exercise Segment.Forest")
	}
}

func BenchmarkHybridRun(b *testing.B) {
	tr := arrivals.Poisson(0.005, 50, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tr, 50, 1, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}
