package offline

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/moderr"
)

// costLog holds every cost column of a table as its fill made it final,
// column j at index j, so tests can compare costs the live band has since
// dropped.
type costLog [][]float64

// capture installs a hook on tab that records each cost column into log
// as it is filled, overwriting what an earlier fill recorded at the same
// column.
func capture(tab *Tables, log *costLog) {
	tab.onColumn = func(j int, costs []float64) {
		for len(*log) <= j {
			*log = append(*log, nil)
		}
		(*log)[j] = slices.Clone(costs)
	}
}

// capturing returns an empty table of the given model and window that
// records its cost columns into the returned log.
func capturing(model Model, window float64) (*Tables, *costLog) {
	tab, log := &Tables{model: model, window: window}, &costLog{}
	capture(tab, log)
	return tab, log
}

// sameCells fails the test unless warm and cold agree on every structural
// field (each column's first stored row included), every split and every
// cost in the live band, bit for bit, and, given both cost logs, on every
// cost column either fill recorded.
func sameCells(t *testing.T, warm, cold *Tables, warmCosts, coldCosts *costLog, label string) {
	t.Helper()
	if warm.N() != cold.N() {
		t.Fatalf("%s: n = %d, want %d", label, warm.N(), cold.N())
	}
	if warm.Cells() != cold.Cells() {
		t.Fatalf("%s: cells = %d, want %d", label, warm.Cells(), cold.Cells())
	}
	n := cold.N()
	for j := 0; j < n; j++ {
		if warm.first(j) != cold.first(j) {
			t.Fatalf("%s: column %d stored from row %d, want %d", label, j, warm.first(j), cold.first(j))
		}
		for i := cold.first(j); i <= j; i++ {
			if warm.Split(i, j) != cold.Split(i, j) {
				t.Fatalf("%s: split(%d,%d) = %d, want %d", label, i, j, warm.Split(i, j), cold.Split(i, j))
			}
			if i >= cold.first(n-1) && math.Float64bits(warm.MC(i, j)) != math.Float64bits(cold.MC(i, j)) {
				t.Fatalf("%s: live mc(%d,%d) = %v, want %v", label, i, j, warm.MC(i, j), cold.MC(i, j))
			}
		}
	}
	if !slices.Equal(warm.best, cold.best) || !slices.Equal(warm.choice, cold.choice) {
		t.Fatalf("%s: partition differs", label)
	}
	if warmCosts == nil || coldCosts == nil {
		return
	}
	if len(*warmCosts) != n || len(*coldCosts) != n {
		t.Fatalf("%s: %d and %d cost columns recorded, want %d", label, len(*warmCosts), len(*coldCosts), n)
	}
	for j := 0; j < n; j++ {
		w, c := (*warmCosts)[j], (*coldCosts)[j]
		if len(w) != len(c) || len(c) != j-cold.first(j)+1 {
			t.Fatalf("%s: cost column %d has %d and %d cells, want %d", label, j, len(w), len(c), j-cold.first(j)+1)
		}
		for k := range c {
			if math.Float64bits(w[k]) != math.Float64bits(c[k]) {
				t.Fatalf("%s: mc(%d,%d) = %v, want %v", label, j-k, j, w[k], c[k])
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
		window := wide
		if trial%2 == 1 {
			window = 1 + rng.Float64()*12
		}
		model := ReceiveTwo
		if trial%3 == 2 {
			model = ReceiveAll
		}
		cold, coldCosts := capturing(model, window)
		if err := cold.Extend(ctx, times, 1); err != nil {
			t.Fatal(err)
		}
		// Grow the same table in K random chunks (some possibly empty).
		chunks := 1 + rng.Intn(6)
		warm, warmCosts := capturing(model, window)
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
		sameCells(t, warm, cold, warmCosts, coldCosts, "chunked")
		// One-by-one extends stress the one-column-per-chunk path.
		if n <= 60 {
			one, oneCosts := capturing(model, window)
			for i := 0; i < n; i++ {
				if err := one.Extend(ctx, times[i:i+1], 1); err != nil {
					t.Fatalf("Extend one-by-one at %d: %v", i, err)
				}
			}
			sameCells(t, one, cold, oneCosts, coldCosts, "one-by-one")
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
	tab, err := ComputeTables(ctx, []float64{1, 2, 3}, ReceiveTwo, 1, 1)
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
// Extend at each liveCadence chunk end (the tables advance their
// partition with the columns).
func absorbLive(ctx context.Context, tab *Tables, times []float64) error {
	at := 0
	for _, end := range liveCadence(len(times)) {
		if err := tab.Extend(ctx, times[at:end], 1); err != nil {
			return err
		}
		at = end
	}
	return nil
}

// TestExtendLiveCadenceMatchesCold grows tables at the live absorption
// cadence and checks they equal a cold build cell for cell, on a window
// that keeps the whole triangle ("unbanded") and on a banded one, on
// instances large enough that the banded one's late chunks carry several
// hundred arrivals each.
func TestExtendLiveCadenceMatchesCold(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		n         int
		perWindow float64
		window    float64
	}{
		{"unbanded", 1500, 100, wide},
		{"banded", 4800, 40, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			times := replanArrivals(tc.n, 1/tc.perWindow)
			cold, coldCosts := capturing(ReceiveTwo, tc.window)
			if err := cold.Extend(ctx, times, 1); err != nil {
				t.Fatal(err)
			}
			warm, warmCosts := capturing(ReceiveTwo, tc.window)
			if err := absorbLive(ctx, warm, times); err != nil {
				t.Fatal(err)
			}
			sameCells(t, warm, cold, warmCosts, coldCosts, tc.name)
		})
	}
}

// TestExtendAllocatesOnlyNewCells guards the append-only layout: absorbing
// a flash-density epoch (about 10 media-length windows, a few hundred
// arrivals each) at the live cadence, Extend may allocate at most 1.15x
// the final table — each cell once plus chunk slack and the O(n)
// per-arrival bookkeeping, with no realloc-and-copy of old cells.
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
	if err := absorbLive(ctx, tab, times); err != nil {
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
