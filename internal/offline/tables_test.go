package offline

import (
	"context"
	"math/rand"
	"testing"
)

// wide is a window wider than every merge cost of the test instances:
// every arrival then falls in the first group, so forest tables store each
// column from row 0 and hold the whole triangle, every cost readable.
const wide = 1e9

// TestTablesMatchFastExactly is the required equivalence property: the
// flattened DP, on a window that keeps the whole triangle, must reproduce
// the mc and split tables of MergeCostTableFast bit for bit on random
// instances, in both receive models.
func TestTablesMatchFastExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(100)
		times := randomTimes(rng, n, 50)
		for _, model := range []Model{ReceiveTwo, ReceiveAll} {
			mc, split, err := MergeCostTableFast(times, model)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := ComputeTables(context.Background(), times, model, wide, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					if got, want := tab.MC(i, j), mc[i][j]; got != want {
						t.Fatalf("model %v: mc(%d,%d) = %v, want %v", model, i, j, got, want)
					}
					if got, want := tab.Split(i, j), split[i][j]; got != want {
						t.Fatalf("model %v: split(%d,%d) = %d, want %d", model, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestTablesBandedMatchesFull checks that forest tables agree with
// MergeCostTableFast on every stored cell — splits as stored, costs as
// each column's fill left them — store nothing outside the window band (so
// BandCells bounds them), and store every row the partition can still
// use: each (i, j) with i >= max(lo(j), choice[j]).
func TestTablesBandedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(80)
		times := randomTimes(rng, n, 30)
		window := 1 + rng.Float64()*10
		mc, split, err := MergeCostTableFast(times, ReceiveTwo)
		if err != nil {
			t.Fatal(err)
		}
		banded, costs := capturing(ReceiveTwo, window)
		if err := banded.Extend(context.Background(), times, 1); err != nil {
			t.Fatal(err)
		}
		if got, bound := banded.Cells(), BandCells(times, window); got > bound {
			t.Fatalf("banded cells = %d, above the BandCells bound %d", got, bound)
		}
		for j := 0; j < n; j++ {
			lo := 0
			for times[j]-times[lo] >= window {
				lo++
			}
			keep := max(lo, int(banded.choice[j]))
			for i := 0; i <= j; i++ {
				in := i >= banded.first(j)
				if in && times[j]-times[i] >= window {
					t.Fatalf("(%d,%d) stored outside the window", i, j)
				}
				if i >= keep && !in {
					t.Fatalf("(%d,%d) not stored, want rows from max(lo, choice) = %d", i, j, keep)
				}
				if !in {
					continue
				}
				if (*costs)[j][j-i] != mc[i][j] || banded.Split(i, j) != split[i][j] {
					t.Fatalf("banded cell (%d,%d) diverges from MergeCostTableFast", i, j)
				}
			}
		}
	}
}

// TestMemoryBytesAccounting sanity-checks the 12-bytes-per-cell estimate
// used by CheckSize to refuse over-sized instances, on tables that hold
// the whole triangle.
func TestMemoryBytesAccounting(t *testing.T) {
	times := randomTimes(rand.New(rand.NewSource(1)), 100, 10)
	tab, err := ComputeTables(context.Background(), times, ReceiveTwo, wide, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tab.MemoryBytes(), int64(100*101/2*12); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}
