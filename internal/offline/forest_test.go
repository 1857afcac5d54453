package offline

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/moderr"
)

// forestTraceKinds are the arrival shapes the forest-table tests draw from.
// The two slot-end kinds place arrivals on multiples of a delay that
// binary floating point cannot represent, where merge costs tie exactly in
// real arithmetic but not after rounding.
var forestTraceKinds = []string{
	"exponential", "uniform", "clustered", "power-law", "near-L-gap",
	"density-switching", "offset-1e6", "integer-slot", "third-slot-end",
	"slot-end-0.02",
}

// forestTrace draws a strictly increasing trace of at most n arrivals of
// the given kind and the media length L it is planned with.
func forestTrace(rng *rand.Rand, kind string, n int) ([]float64, float64) {
	perWindow := 1 + rng.Float64()*120 // arrivals per media length, on average
	L := 1.0
	times := make([]float64, 0, n)
	at := 0.0
	exp := func() float64 { return rng.ExpFloat64() / perWindow }
	switch kind {
	case "exponential", "offset-1e6":
		if kind == "offset-1e6" {
			at = 1e6
		}
		for k := 0; k < n; k++ {
			at += exp()
			times = append(times, at)
		}
	case "uniform":
		span := float64(n) / perWindow
		for k := 0; k < n; k++ {
			times = append(times, rng.Float64()*span)
		}
		slices.Sort(times)
	case "clustered":
		for len(times) < n {
			at += 0.5 + rng.ExpFloat64()
			size, spread := 1+rng.Intn(60), 0.05+rng.Float64()*0.5
			for k := min(size, n-len(times)); k > 0; k-- {
				times = append(times, at+rng.Float64()*spread)
			}
		}
		slices.Sort(times)
	case "power-law":
		alpha := 1.1 + rng.Float64()*1.4
		scale := (alpha - 1) / perWindow // mean gap 1/perWindow
		for k := 0; k < n; k++ {
			at += scale * (math.Pow(1-rng.Float64(), -1/alpha) - 1)
			times = append(times, at)
		}
	case "near-L-gap":
		for k := 0; k < n; k++ {
			if rng.Intn(2) == 0 {
				at += L * (0.98 + rng.Float64()*0.04)
			} else {
				at += exp()
			}
			times = append(times, at)
		}
	case "density-switching":
		for len(times) < n {
			dense := 20 + rng.Float64()*200
			sparse := 0.5 + rng.Float64()*2
			for k := 1 + rng.Intn(80); k > 0 && len(times) < n; k-- {
				at += rng.ExpFloat64() / dense
				times = append(times, at)
			}
			for k := 1 + rng.Intn(10); k > 0 && len(times) < n; k-- {
				at += rng.ExpFloat64() / sparse
				times = append(times, at)
			}
		}
	case "integer-slot", "third-slot-end", "slot-end-0.02":
		// Occupied slot ends: slot k ends at (k+1)·delay.
		delay := 0.02
		switch kind {
		case "integer-slot":
			delay, L = 1, float64(2+rng.Intn(60))
		case "third-slot-end":
			delay, L = 1.0/3, float64(1+rng.Intn(20))
		}
		occupied := 0.05 + rng.Float64()*0.95
		for k := 0; len(times) < n; k++ {
			if rng.Float64() < occupied {
				times = append(times, float64(k+1)*delay)
			}
		}
	default:
		panic("unknown trace kind " + kind)
	}
	// Drop ties (and the rare rounding collapse at a large offset).
	out := times[:0]
	for _, v := range times {
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out, L
}

// TestMergeCostQuadrangleInequality pins the property forest tables rest
// on: the exact O(n^3) merge cost satisfies the quadrangle inequality
// MC(a,c) + MC(a+1,c+1) <= MC(a,c+1) + MC(a+1,c) on every adjacent
// quadruple, within rounding (1e-12 relative).
func TestMergeCostQuadrangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	kinds := []string{"exponential", "uniform", "clustered", "slot-end-0.02"}
	worst := 0.0
	runs := 0
	for trial := 0; trial < 160; trial++ {
		times, _ := forestTrace(rng, kinds[trial%len(kinds)], 2+rng.Intn(39))
		for _, model := range []Model{ReceiveTwo, ReceiveAll} {
			mc, _, err := MergeCostTable(times, model)
			if err != nil {
				t.Fatal(err)
			}
			runs++
			n := len(times)
			for a := 0; a+2 < n; a++ {
				for c := a + 1; c+1 < n; c++ {
					lhs := mc[a][c] + mc[a+1][c+1]
					rhs := mc[a][c+1] + mc[a+1][c]
					if v := (lhs - rhs) / rhs; v > worst {
						worst = v
					}
					if lhs > rhs*(1+1e-12) {
						t.Fatalf("%s %v, n=%d: MC(%d,%d)+MC(%d,%d) = %v > %v = MC(%d,%d)+MC(%d,%d)",
							kinds[trial%len(kinds)], model, n, a, c, a+1, c+1, lhs, rhs, a, c+1, a+1, c)
					}
				}
			}
		}
	}
	t.Logf("%d instance x model runs, worst relative violation %.3g", runs, worst)
}

// fullWindowForest is the reference the forest tables are checked
// against: MergeCostTableFast plus the partition scan over the whole
// L-window (every group start i with times[j-1] - times[i] < L, scanned
// from j-1 down with ties kept at the latest start).
func fullWindowForest(t *testing.T, times []float64, L float64, model Model) (float64, []int) {
	t.Helper()
	mc, _, err := MergeCostTableFast(times, model)
	if err != nil {
		t.Fatal(err)
	}
	n := len(times)
	best := make([]float64, n+1)
	choice := make([]int, n+1)
	p := 0
	for j := 1; j <= n; j++ {
		for times[j-1]-times[p] >= L {
			p++
		}
		best[j] = math.MaxFloat64
		for i := j - 1; i >= p; i-- {
			if c := best[i] + L + mc[i][j-1]; c < best[j] {
				best[j], choice[j] = c, i
			}
		}
	}
	var roots []int
	for j := n; j > 0; j = choice[j] {
		roots = append(roots, choice[j])
	}
	slices.Reverse(roots)
	return best[n], roots
}

// TestForestMatchesFullWindowReference checks OptimalForest, which scans
// only the rows forest tables keep, against the full-window reference:
// bit for bit in Cost and Roots on every continuous and integer-slot
// shape.  On slot ends at delay 1/3 or 0.02 rounding can make the
// reference's own last-group start step back by a few ulps, so there the
// cost must match within 1e-12 relative and never fall below the
// reference (the pruned scan searches a subset of the same candidates).
func TestForestMatchesFullWindowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1980))
	ctx := context.Background()
	runs, inexact, reordered := 0, 0, 0
	for trial := 0; trial < 550; trial++ {
		kind := forestTraceKinds[trial%len(forestTraceKinds)]
		times, L := forestTrace(rng, kind, 1+rng.Intn(600))
		for _, model := range []Model{ReceiveTwo, ReceiveAll} {
			runs++
			got, err := OptimalForest(ctx, times, L, model)
			if err != nil {
				t.Fatal(err)
			}
			cost, roots := fullWindowForest(t, times, L, model)
			if kind == "third-slot-end" || kind == "slot-end-0.02" {
				if got.Cost < cost || got.Cost-cost > 1e-12*cost {
					t.Fatalf("%s %v, n=%d: cost %v, reference %v", kind, model, len(times), got.Cost, cost)
				}
				if got.Cost != cost {
					inexact++
				} else if !slices.Equal(got.Roots, roots) {
					reordered++
				}
				continue
			}
			if got.Cost != cost || !slices.Equal(got.Roots, roots) {
				t.Fatalf("%s %v, n=%d, L=%g: cost %v roots %v, reference cost %v roots %v",
					kind, model, len(times), L, got.Cost, got.Roots, cost, roots)
			}
		}
	}
	t.Logf("%d instance x model runs; slot-end runs: %d differed in the last bits of cost, %d only in roots", runs, inexact, reordered)
}

// TestForestTablesPruned checks the pruning engages: on a flash-density
// epoch (4,400 arrivals at 440 per window) forest tables store at most
// 60% of the window band.
func TestForestTablesPruned(t *testing.T) {
	times := replanArrivals(4400, 1.0/440)
	tab, err := ComputeTables(context.Background(), times, ReceiveTwo, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells, band := tab.Cells(), BandCells(times, 1)
	t.Logf("%d of %d band cells stored (%.3f)", cells, band, float64(cells)/float64(band))
	if float64(cells) > 0.6*float64(band) {
		t.Fatalf("forest tables store %d cells, want <= 0.6 x the %d-cell band", cells, band)
	}
}

// TestSolveForestNeedsForestTables pins the narrowed calls: AdvancePartition
// and SolveForest accept only the tables' own window, and ComputeTables
// only a window that is positive and finite.
func TestSolveForestNeedsForestTables(t *testing.T) {
	ctx := context.Background()
	times := []float64{0, 0.25, 0.5, 1.5}
	for _, tc := range []struct {
		window, L float64
		ok        bool
	}{
		{1, 1, true},
		{1, 0.5, false},
		{1, 2, false},
		{1, math.NaN(), false},
		{1, math.Inf(1), false},
		{2.5, 2.5, true},
		{2.5, 0, false},
	} {
		tab, err := ComputeTables(ctx, times, ReceiveTwo, tc.window, 1)
		if err != nil {
			t.Fatal(err)
		}
		errA := tab.AdvancePartition(tc.L)
		_, errS := tab.SolveForest(tc.L)
		for _, err := range []error{errA, errS} {
			if tc.ok && err != nil {
				t.Errorf("window %g, L %g: err = %v, want nil", tc.window, tc.L, err)
			}
			if !tc.ok && !errors.Is(err, moderr.ErrBadInstance) {
				t.Errorf("window %g, L %g: err = %v, want ErrBadInstance", tc.window, tc.L, err)
			}
		}
	}
	// The one table mode: a window that is not positive and finite is
	// refused, with or without arrivals.
	for _, window := range []float64{0, -1, math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, in := range [][]float64{nil, times} {
			if tab, err := ComputeTables(ctx, in, ReceiveTwo, window, 1); !errors.Is(err, moderr.ErrBadInstance) || tab != nil {
				t.Errorf("window %g, %d arrivals: tables %v, err = %v, want ErrBadInstance", window, len(in), tab, err)
			}
		}
	}
}
