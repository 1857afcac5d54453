package offline

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/moderr"
)

// sameCells fails the test unless warm and cold agree on every structural
// field and every in-band cell, bit for bit.
func sameCells(t *testing.T, warm, cold *Tables, label string) {
	t.Helper()
	if warm.N() != cold.N() {
		t.Fatalf("%s: n = %d, want %d", label, warm.N(), cold.N())
	}
	if warm.Cells() != cold.Cells() {
		t.Fatalf("%s: cells = %d, want %d", label, warm.Cells(), cold.Cells())
	}
	n := cold.N()
	for i := 0; i < n; i++ {
		if warm.Limit(i) != cold.Limit(i) {
			t.Fatalf("%s: limit(%d) = %d, want %d", label, i, warm.Limit(i), cold.Limit(i))
		}
		for j := i; j <= cold.Limit(i); j++ {
			if warm.MC(i, j) != cold.MC(i, j) {
				t.Fatalf("%s: mc(%d,%d) = %v, want %v", label, i, j, warm.MC(i, j), cold.MC(i, j))
			}
			if warm.Split(i, j) != cold.Split(i, j) {
				t.Fatalf("%s: split(%d,%d) = %d, want %d", label, i, j, warm.Split(i, j), cold.Split(i, j))
			}
		}
	}
}

// TestExtendMatchesColdExactly is the warm-start correctness property: a
// table grown by K Extend calls over epoch suffixes must equal one cold
// ComputeTables run on the concatenated arrivals, cell for cell and cost
// for cost, across band widths and receive models.
func TestExtendMatchesColdExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(120)
		times := randomTimes(rng, n, 40)
		window := 0.0 // unbanded
		if trial%2 == 1 {
			window = 1 + rng.Float64()*12
		}
		model := ReceiveTwo
		if trial%3 == 2 {
			model = ReceiveAll
		}
		cold, err := ComputeTables(ctx, times, model, window, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Grow the same table in K random chunks (some possibly empty).
		chunks := 1 + rng.Intn(6)
		warm := &Tables{model: model, window: window}
		at := 0
		for c := 0; c < chunks; c++ {
			end := at + rng.Intn(n-at+1)
			if c == chunks-1 {
				end = n
			}
			if err := warm.Extend(ctx, times[at:end], 1); err != nil {
				t.Fatalf("Extend[%d:%d]: %v", at, end, err)
			}
			at = end
		}
		sameCells(t, warm, cold, "chunked")
		// One-by-one extends stress the one-column-per-chunk path.
		if n <= 60 {
			one := &Tables{model: model, window: window}
			for i := 0; i < n; i++ {
				if err := one.Extend(ctx, times[i:i+1], 1); err != nil {
					t.Fatalf("Extend one-by-one at %d: %v", i, err)
				}
			}
			sameCells(t, one, cold, "one-by-one")
		}
	}
}

// TestSolveForestResumable interleaves Extend with SolveForest and checks
// each intermediate forest is bit-identical to a cold OptimalForest
// run over the same prefix — the exact shape of warm epoch replanning.
func TestSolveForestResumable(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(100)
		times := randomTimes(rng, n, 25)
		L := 3 + rng.Float64()*6
		warm, err := ComputeTables(ctx, nil, ReceiveTwo, L, 1)
		if err != nil {
			t.Fatal(err)
		}
		at := 0
		for at < n {
			end := at + 1 + rng.Intn(n-at)
			if err := warm.Extend(ctx, times[at:end], 1); err != nil {
				t.Fatal(err)
			}
			at = end
			got, err := warm.SolveForest(L)
			if err != nil {
				t.Fatal(err)
			}
			want, err := OptimalForest(ctx, times[:at], L, ReceiveTwo)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Cost {
				t.Fatalf("prefix %d: cost %v, want %v", at, got.Cost, want.Cost)
			}
			if len(got.Roots) != len(want.Roots) {
				t.Fatalf("prefix %d: roots %v, want %v", at, got.Roots, want.Roots)
			}
			for i := range got.Roots {
				if got.Roots[i] != want.Roots[i] {
					t.Fatalf("prefix %d: roots %v, want %v", at, got.Roots, want.Roots)
				}
			}
		}
	}
}

// TestExtendValidation pins the error behavior: non-monotone suffixes and
// arrivals that do not continue the table are ErrBadInstance, and extending
// with a canceled context reports the cancellation without mutating n.
func TestExtendValidation(t *testing.T) {
	ctx := context.Background()
	tab, err := ComputeTables(ctx, []float64{1, 2, 3}, ReceiveTwo, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Extend(ctx, []float64{5, 4}, 1); !errors.Is(err, moderr.ErrBadInstance) {
		t.Fatalf("non-monotone suffix: err = %v, want ErrBadInstance", err)
	}
	if err := tab.Extend(ctx, []float64{3}, 1); !errors.Is(err, moderr.ErrBadInstance) {
		t.Fatalf("non-continuing suffix: err = %v, want ErrBadInstance", err)
	}
	if err := tab.Extend(ctx, nil, 1); err != nil {
		t.Fatalf("empty suffix: err = %v, want nil", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := tab.Extend(canceled, []float64{9}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled extend: err = %v, want context.Canceled", err)
	}
	if tab.N() != 3 {
		t.Fatalf("n after failed extends = %d, want 3", tab.N())
	}
}

// TestCloneIndependent checks a clone can be extended without disturbing
// the original — the pattern the replan benchmarks rely on.
func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	times := randomTimes(rng, 80, 20)
	base, err := ComputeTables(ctx, times[:50], ReceiveTwo, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ComputeTables(ctx, times[:50], ReceiveTwo, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := base.Clone()
	if err := cl.Extend(ctx, times[50:], 1); err != nil {
		t.Fatal(err)
	}
	sameCells(t, base, want, "original after clone-extend")
	cold, err := ComputeTables(ctx, times, ReceiveTwo, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameCells(t, cl, cold, "extended clone")
}

// liveCadence returns the chunk ends at which warm epoch replanning extends
// its tables over n arrivals: each time 32 + absorbed/8 arrivals are
// pending (internal/live's absorption rule), then once for the tail at the
// epoch's close.
func liveCadence(n int) []int {
	var ends []int
	absorbed := 0
	for k := 1; k <= n; k++ {
		if k-absorbed >= 32+absorbed/8 {
			ends = append(ends, k)
			absorbed = k
		}
	}
	if absorbed < n {
		ends = append(ends, n)
	}
	return ends
}

// absorbLive grows tab over times the way warm epoch replanning does: an
// Extend plus an AdvancePartition(L) at each liveCadence chunk end.
func absorbLive(ctx context.Context, tab *Tables, times []float64, L float64) error {
	at := 0
	for _, end := range liveCadence(len(times)) {
		if err := tab.Extend(ctx, times[at:end], 1); err != nil {
			return err
		}
		if err := tab.AdvancePartition(L); err != nil {
			return err
		}
		at = end
	}
	return nil
}

// TestExtendLiveCadenceMatchesCold grows tables at the live absorption
// cadence and checks they equal a cold build cell for cell, unbanded and
// banded, on instances large enough that the banded one's late chunks
// carry several hundred arrivals each.
func TestExtendLiveCadenceMatchesCold(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		n         int
		perWindow float64
		window    float64
	}{
		{"unbanded", 1500, 100, 0},
		{"banded", 4800, 40, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			times := replanArrivals(tc.n, 1/tc.perWindow)
			cold, err := ComputeTables(ctx, times, ReceiveTwo, tc.window, 1)
			if err != nil {
				t.Fatal(err)
			}
			warm := &Tables{model: ReceiveTwo, window: tc.window}
			if err := absorbLive(ctx, warm, times, 1); err != nil {
				t.Fatal(err)
			}
			sameCells(t, warm, cold, tc.name)
		})
	}
}

// TestExtendAllocatesOnlyNewCells guards the append-only layout: absorbing
// a flash-density epoch (about 10 media-length windows, a few hundred
// arrivals each) at the live cadence, Extend and AdvancePartition together
// may allocate at most 1.15x the final table — each cell once plus the
// O(n) per-arrival bookkeeping, with no realloc-and-copy of old cells.
func TestExtendAllocatesOnlyNewCells(t *testing.T) {
	const (
		n         = 4400
		perWindow = 440
		L         = 1.0
	)
	ctx := context.Background()
	times := replanArrivals(n, 1.0/perWindow)
	tab, err := ComputeTables(ctx, nil, ReceiveTwo, L, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := absorbLive(ctx, tab, times, L); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	ratio := float64(alloc) / float64(tab.MemoryBytes())
	t.Logf("%d arrivals, %d cells: allocated %d bytes, %.3fx the %d-byte table", n, tab.Cells(), alloc, ratio, tab.MemoryBytes())
	if ratio > 1.15 {
		t.Fatalf("absorbing the epoch allocated %.2fx the final table, want <= 1.15x", ratio)
	}
}
