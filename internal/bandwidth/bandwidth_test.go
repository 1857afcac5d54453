package bandwidth

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestTotalAndNormalized(t *testing.T) {
	u := New()
	u.Add(0, 15)
	u.AddLength(5, 9)
	u.AddLength(7, 2)
	if got := u.Total(); got != 26 {
		t.Errorf("Total = %v, want 26", got)
	}
	if got := u.NormalizedTotal(15); math.Abs(got-26.0/15.0) > 1e-12 {
		t.Errorf("NormalizedTotal = %v", got)
	}
	if got := u.Streams(); got != 3 {
		t.Errorf("Streams = %d, want 3", got)
	}
}

func TestAddIgnoresEmptyIntervals(t *testing.T) {
	u := New()
	u.Add(5, 5)
	u.Add(6, 4)
	if u.Total() != 0 || u.Streams() != 0 {
		t.Errorf("empty intervals should not be recorded")
	}
}

func TestNormalizedTotalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	New().NormalizedTotal(0)
}

func TestPeak(t *testing.T) {
	u := New()
	u.Add(0, 10)
	u.Add(2, 5)
	u.Add(4, 6)
	u.Add(5, 7)
	// Intervals [0,10),[2,5),[4,6),[5,7): during [4,5) three streams are
	// active; at time 5 the second ends as the fourth starts, so the peak
	// stays 3.
	if got := u.Peak(); got != 3 {
		t.Errorf("Peak = %d, want 3", got)
	}
}

func TestPeakEndBeforeStartAtTies(t *testing.T) {
	u := New()
	u.Add(0, 5)
	u.Add(5, 10)
	if got := u.Peak(); got != 1 {
		t.Errorf("back-to-back streams should peak at 1, got %d", got)
	}
	if New().Peak() != 0 {
		t.Errorf("empty usage should have zero peak")
	}
}

func TestAverage(t *testing.T) {
	u := New()
	u.Add(0, 10)
	u.Add(0, 5)
	// Over [0,10): total transmission time 15 -> average 1.5.
	if got := u.Average(0, 10); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Average = %v, want 1.5", got)
	}
	// Over [5,10): only the first stream is active.
	if got := u.Average(5, 10); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Average over [5,10) = %v, want 1", got)
	}
	if got := u.Average(3, 3); got != 0 {
		t.Errorf("degenerate window should average 0")
	}
}

func TestIntervalDuration(t *testing.T) {
	if (Interval{2, 5}).Duration() != 3 {
		t.Errorf("Duration wrong")
	}
	if (Interval{5, 2}).Duration() != 0 {
		t.Errorf("inverted interval should have zero duration")
	}
}

func TestPeakFig3Example(t *testing.T) {
	// The Fig. 3 schedule (L=15, n=8 optimal tree) has peak bandwidth 4.
	u := New()
	lengths := map[int64]int64{0: 15, 1: 1, 2: 2, 3: 5, 4: 1, 5: 9, 6: 1, 7: 2}
	for start, l := range lengths {
		u.AddLength(float64(start), float64(l))
	}
	if got := u.Peak(); got != 4 {
		t.Errorf("Peak = %d, want 4", got)
	}
	if got := u.Total(); got != 36 {
		t.Errorf("Total = %v, want 36", got)
	}
	if got := u.Average(0, 15); math.Abs(got-36.0/15.0) > 1e-12 {
		t.Errorf("Average = %v, want 2.4", got)
	}
}

// Edge cases: an empty usage and zero-width query windows must degrade
// gracefully rather than divide by zero or panic.

func TestEmptyUsageEdgeCases(t *testing.T) {
	u := New()
	if got := u.Peak(); got != 0 {
		t.Errorf("empty Peak = %d, want 0", got)
	}
	if got := u.Total(); got != 0 {
		t.Errorf("empty Total = %g, want 0", got)
	}
	if got := u.Average(0, 10); got != 0 {
		t.Errorf("empty Average = %g, want 0", got)
	}
	if got := u.Streams(); got != 0 {
		t.Errorf("empty Streams = %d, want 0", got)
	}
}

func TestZeroWidthWindows(t *testing.T) {
	u := New()
	u.Add(0, 10)
	u.Add(2, 5)
	if got := u.Average(3, 3); got != 0 {
		t.Errorf("Average over [3,3) = %g, want 0", got)
	}
	if got := u.Average(5, 3); got != 0 {
		t.Errorf("Average over inverted window = %g, want 0", got)
	}
}

func TestZeroWidthIntervalsIgnoredEverywhere(t *testing.T) {
	u := New()
	u.Add(4, 4)       // empty
	u.AddLength(7, 0) // empty
	u.Add(0, 2)
	if got := u.Streams(); got != 1 {
		t.Errorf("Streams = %d, want 1 (empty intervals dropped)", got)
	}
	if got := u.Peak(); got != 1 {
		t.Errorf("Peak = %d, want 1", got)
	}
	if got := u.Total(); got != 2 {
		t.Errorf("Total = %g, want 2", got)
	}
}

// eventSortPeak is the original Peak: one event per interval end point,
// sorted by time with ends before starts at ties, then a running count.
// It is the oracle for the sort-free sweep.
func eventSortPeak(ivs []Interval) int {
	type event struct {
		t     float64
		delta int
	}
	events := make([]event, 0, 2*len(ivs))
	for _, iv := range ivs {
		if iv.Duration() == 0 {
			continue
		}
		events = append(events, event{iv.Start, +1}, event{iv.End, -1})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return events[i].delta < events[j].delta
	})
	cur, peak := 0, 0
	for _, e := range events {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak
}

// randomIntervals draws n intervals on a coarse grid, so ties between
// starts and ends are frequent.
func randomIntervals(rng *rand.Rand, n int) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		s := float64(rng.Intn(40)) / 4
		ivs[i] = Interval{Start: s, End: s + float64(rng.Intn(12))/4}
	}
	return ivs
}

func TestPeakMatchesEventSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		ivs := randomIntervals(rng, rng.Intn(60))
		u := New()
		for _, iv := range ivs {
			u.Add(iv.Start, iv.End)
		}
		if got, want := u.Peak(), eventSortPeak(ivs); got != want {
			t.Fatalf("trial %d: Peak = %d, event-sort oracle = %d over %v", trial, got, want, ivs)
		}
	}
}

// TestTrackerMatchesUsage feeds intervals in random batches, settling a
// random frontier no later than the earliest start still to come after
// each batch, and checks the tracked peak against Usage.Peak over
// everything added so far.  A second tracker folds the same batches with
// two random cuts at once (Fold, one sort) where a third runs Settle,
// Settle and Peak one after another: the settled pairs after each cut,
// the peak and the pending intervals must agree, and each settled peak
// must equal a brute-force count of every interval ever added.
func TestTrackerMatchesUsage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		ivs := randomIntervals(rng, rng.Intn(80))
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
		var tr, one, seq Tracker
		u := New()
		for next := 0; next < len(ivs); {
			k := next + 1 + rng.Intn(8)
			if k > len(ivs) {
				k = len(ivs)
			}
			for _, iv := range ivs[next:k] {
				tr.Add(iv.Start, iv.End)
				one.Add(iv.Start, iv.End)
				seq.Add(iv.Start, iv.End)
				u.Add(iv.Start, iv.End)
			}
			next = k
			if next < len(ivs) && rng.Intn(3) > 0 {
				tr.Settle(ivs[next].Start - float64(rng.Intn(3))/4)
			}
			if got, want := tr.Peak(), u.Peak(); got != want {
				t.Fatalf("trial %d after %d intervals: Tracker.Peak = %d, Usage.Peak = %d", trial, next, got, want)
			}
			bound := math.Inf(1)
			if next < len(ivs) {
				bound = ivs[next].Start
			}
			cuts := []float64{bound - float64(rng.Intn(5))/4, bound - float64(rng.Intn(5))/4}
			var want [][2]float64
			for _, c := range cuts {
				seq.Settle(c)
				at, peak := seq.Settled()
				want = append(want, [2]float64{at, float64(peak)})
				if brute := peakBefore(ivs[:next], at); peak != brute && !math.IsInf(at, 1) {
					t.Fatalf("trial %d: settled peak %d before %v, brute force %d", trial, peak, at, brute)
				}
			}
			var got [][2]float64
			peak := one.Fold(cuts, func(at float64, peak int) { got = append(got, [2]float64{at, float64(peak)}) })
			if !reflect.DeepEqual(got, want) || peak != seq.Peak() || peak != u.Peak() || !reflect.DeepEqual(one.pending, seq.pending) {
				t.Fatalf("trial %d cuts %v: Fold settled %v, peak %d, %d pending; Settle/Settle/Peak %v, %d, %d pending (Usage.Peak %d)",
					trial, cuts, got, peak, len(one.pending), want, seq.Peak(), len(seq.pending), u.Peak())
			}
		}
		tr.Settle(math.Inf(1))
		if got, want := tr.Peak(), u.Peak(); got != want || len(tr.pending) != 0 {
			t.Fatalf("trial %d settled at +Inf: Peak = %d (want %d), %d intervals still pending", trial, got, want, len(tr.pending))
		}
	}
}

// peakBefore is the brute-force peak of the count profile of ivs before
// w: the largest number of intervals covering a start earlier than w.
func peakBefore(ivs []Interval, w float64) int {
	peak := 0
	for _, a := range ivs {
		if a.End <= a.Start || a.Start >= w {
			continue
		}
		n := 0
		for _, b := range ivs {
			if b.End > b.Start && b.Start <= a.Start && a.Start < b.End {
				n++
			}
		}
		peak = max(peak, n)
	}
	return peak
}

// TestTrackerResumesFromSettledPair restarts a tracker mid-stream the way
// a restored server does: from the (frontier, peak) pair Settled reports,
// re-adding only the intervals that end after the frontier.  The resumed
// tracker must keep matching Usage.Peak over everything added.
func TestTrackerResumesFromSettledPair(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		ivs := randomIntervals(rng, 1+rng.Intn(80))
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
		var tr Tracker
		u := New()
		cut := rng.Intn(len(ivs))
		for _, iv := range ivs[:cut] {
			tr.Add(iv.Start, iv.End)
			u.Add(iv.Start, iv.End)
		}
		if cut < len(ivs) {
			tr.Settle(ivs[cut].Start - float64(rng.Intn(3))/4)
		}
		w, peak := tr.Settled()
		resumed := NewTracker(w, peak)
		for _, iv := range ivs[:cut] {
			if iv.End > w {
				resumed.Add(iv.Start, iv.End)
			}
		}
		for _, iv := range ivs[cut:] {
			resumed.Add(iv.Start, iv.End)
			u.Add(iv.Start, iv.End)
		}
		if got, want := resumed.Peak(), u.Peak(); got != want {
			t.Fatalf("trial %d resumed at %v (peak %d): Peak = %d, Usage.Peak = %d", trial, w, peak, got, want)
		}
		resumed.Settle(math.Inf(1))
		if got, want := resumed.Peak(), u.Peak(); got != want {
			t.Fatalf("trial %d resumed, settled at +Inf: Peak = %d, want %d", trial, got, want)
		}
	}
}

func TestTrackerReleasesLargeFold(t *testing.T) {
	var tr Tracker
	for i := 0; i < 100000; i++ {
		tr.Add(float64(i), float64(i)+2)
	}
	tr.Settle(99990)
	if got := tr.Peak(); got != 2 {
		t.Fatalf("Peak = %d, want 2", got)
	}
	if len(tr.pending) != 11 || cap(tr.pending) > 1024 {
		t.Fatalf("after settling, %d intervals pending in a backing array of %d; want 11 in a small one", len(tr.pending), cap(tr.pending))
	}
}

func BenchmarkUsagePeak(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	u := New()
	for i := 0; i < 500000; i++ {
		s := rng.Float64() * 1e4
		u.Add(s, s+rng.Float64()*20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPeak = u.Peak()
	}
}

var benchPeak int
