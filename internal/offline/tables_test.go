package offline

import (
	"context"
	"math/rand"
	"testing"
)

// TestTablesMatchFastExactly is the required equivalence property: the
// flattened DP must reproduce the mc and split tables of
// MergeCostTableFast bit for bit on random instances, in both receive
// models.
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
			tab, err := ComputeTables(context.Background(), times, model, 0, 1)
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

// TestTablesBandedMatchesFull checks that banded tables agree with the full
// computation on every in-band cell and report the band size BandCells
// predicts.
func TestTablesBandedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(80)
		times := randomTimes(rng, n, 30)
		window := 1 + rng.Float64()*10
		full, err := ComputeTables(context.Background(), times, ReceiveTwo, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		banded, err := ComputeTables(context.Background(), times, ReceiveTwo, window, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := banded.Cells(), BandCells(times, window); got != want {
			t.Fatalf("banded cells = %d, BandCells predicts %d", got, want)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				in := times[j]-times[i] < window
				if in != banded.InBand(i, j) {
					t.Fatalf("InBand(%d,%d) = %v, want %v", i, j, banded.InBand(i, j), in)
				}
				if !in {
					continue
				}
				if banded.MC(i, j) != full.MC(i, j) || banded.Split(i, j) != full.Split(i, j) {
					t.Fatalf("banded cell (%d,%d) diverges from full", i, j)
				}
			}
		}
	}
}

// TestMemoryBytesAccounting sanity-checks the 12-bytes-per-cell estimate
// used by policy.OfflineOptimal to refuse over-sized instances.
func TestMemoryBytesAccounting(t *testing.T) {
	times := randomTimes(rand.New(rand.NewSource(1)), 100, 10)
	tab, err := ComputeTables(context.Background(), times, ReceiveTwo, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tab.MemoryBytes(), int64(100*101/2*12); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}
