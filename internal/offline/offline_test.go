package offline

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/dyadic"
	"repro/internal/mergetree"
	"repro/internal/moderr"
)

func slotTimes(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func randomTimes(rng *rand.Rand, n int, span float64) []float64 {
	out := make([]float64, n)
	set := map[float64]bool{}
	for i := range out {
		for {
			v := rng.Float64() * span
			if !set[v] {
				set[v] = true
				out[i] = v
				break
			}
		}
	}
	sortFloats(out)
	return out
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestModelString(t *testing.T) {
	if ReceiveTwo.String() != "receive-two" || ReceiveAll.String() != "receive-all" {
		t.Errorf("model names wrong")
	}
	if Model(9).String() == "" {
		t.Errorf("unknown model should still format")
	}
}

func TestValidateTimes(t *testing.T) {
	if err := validateTimes([]float64{1, 2, 2}); err == nil {
		t.Errorf("non-increasing times should fail")
	}
	if err := validateTimes([]float64{math.NaN()}); err == nil {
		t.Errorf("NaN should fail")
	}
	if err := validateTimes([]float64{0, 1, 2}); err != nil {
		t.Errorf("valid times rejected: %v", err)
	}
	if _, _, err := MergeCostTable([]float64{2, 1}, ReceiveTwo); err == nil {
		t.Errorf("MergeCostTable should propagate validation errors")
	}
	if _, _, err := MergeCostTableFast([]float64{2, 1}, ReceiveTwo); err == nil {
		t.Errorf("MergeCostTableFast should propagate validation errors")
	}
	if _, err := ComputeTables(context.Background(), []float64{2, 1}, ReceiveTwo, 1, 1); err == nil {
		t.Errorf("ComputeTables should propagate validation errors")
	}
}

// optimalTree is the optimal single merge tree over all the arrivals and
// its merge cost: the root interval of tables that hold the whole
// triangle.
func optimalTree(t *testing.T, times []float64, model Model) (*mergetree.RTree, float64) {
	t.Helper()
	tab, err := ComputeTables(context.Background(), times, model, wide, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := len(times)
	return tab.BuildTree(times, 0, n-1), tab.MC(0, n-1)
}

func TestSlottedMatchesClosedForm(t *testing.T) {
	// With arrivals at 0,1,...,n-1 the general DP must reproduce the paper's
	// closed forms M(n) and Mw(n).
	for n := 1; n <= 60; n++ {
		times := slotTimes(n)
		_, mc := optimalTree(t, times, ReceiveTwo)
		if int64(math.Round(mc)) != core.MergeCost(int64(n)) {
			t.Errorf("general DP merge cost for n=%d is %v, want %d", n, mc, core.MergeCost(int64(n)))
		}
		_, ma := optimalTree(t, times, ReceiveAll)
		if int64(math.Round(ma)) != core.MergeCostAll(int64(n)) {
			t.Errorf("general DP receive-all cost for n=%d is %v, want %d", n, ma, core.MergeCostAll(int64(n)))
		}
	}
}

func TestFastMatchesPlainDP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(40)
		times := randomTimes(rng, n, 10)
		for _, model := range []Model{ReceiveTwo, ReceiveAll} {
			plain, _, err := MergeCostTable(times, model)
			if err != nil {
				t.Fatal(err)
			}
			fast, _, err := MergeCostTableFast(times, model)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					if math.Abs(plain[i][j]-fast[i][j]) > 1e-9 {
						t.Fatalf("trial %d model %v: interval [%d,%d]: plain %v fast %v (times %v)",
							trial, model, i, j, plain[i][j], fast[i][j], times)
					}
				}
			}
		}
	}
}

func TestOptimalTreeMatchesCostAndIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(30)
		times := randomTimes(rng, n, 5)
		tr, cost := optimalTree(t, times, ReceiveTwo)
		if tr.Size() != n {
			t.Fatalf("tree has %d nodes, want %d", tr.Size(), n)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("invalid tree: %v", err)
		}
		if err := tr.ValidatePreorder(); err != nil {
			t.Fatalf("preorder violated: %v", err)
		}
		if math.Abs(tr.MergeCost()-cost) > 1e-9 {
			t.Fatalf("tree cost %v != DP cost %v", tr.MergeCost(), cost)
		}
		// Receive-all tree as well.
		trA, costA := optimalTree(t, times, ReceiveAll)
		if math.Abs(trA.MergeCostAll()-costA) > 1e-9 {
			t.Fatalf("receive-all tree cost %v != DP cost %v", trA.MergeCostAll(), costA)
		}
		if costA > cost+1e-9 {
			t.Fatalf("receive-all optimum %v worse than receive-two optimum %v", costA, cost)
		}
	}
}

func TestOptimalTreeErrors(t *testing.T) {
	if _, err := ComputeTables(context.Background(), []float64{3, 1}, ReceiveTwo, 1, 1); err == nil {
		t.Errorf("unsorted input should fail")
	}
	if _, err := ComputeTables(context.Background(), []float64{1, math.NaN()}, ReceiveTwo, 1, 1); err == nil {
		t.Errorf("NaN input should fail")
	}
}

func TestMergeCostEmptyAndSingle(t *testing.T) {
	tab, err := ComputeTables(context.Background(), nil, ReceiveTwo, wide, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tab.N() != 0 || tab.Cells() != 0 {
		t.Errorf("empty tables hold %d arrivals, %d cells; want none", tab.N(), tab.Cells())
	}
	if _, c := optimalTree(t, []float64{3.5}, ReceiveTwo); c != 0 {
		t.Errorf("single arrival merge cost should be 0")
	}
}

func TestOptimalTreeBeatsDyadicAndEveryEnumeratedTree(t *testing.T) {
	// The DP optimum must be a lower bound for the dyadic heuristic and for
	// every enumerated merge tree over the same arrivals.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(8)
		times := randomTimes(rng, n, 0.9)
		_, opt := optimalTree(t, times, ReceiveTwo)
		// Enumerate all shapes (reusing the slotted enumerator's shapes and
		// relabeling with the real times).
		for _, shape := range mergetree.Enumerate(0, n) {
			rt := relabel(shape, times)
			if rt.MergeCost() < opt-1e-9 {
				t.Fatalf("enumerated tree beats the DP optimum: %v < %v", rt.MergeCost(), opt)
			}
		}
		// Dyadic (single tree regime: beta = 1).
		f, err := dyadic.BuildForest(times, 1.0, dyadic.Params{Alpha: 2, Beta: 1})
		if err != nil {
			t.Fatal(err)
		}
		if f.Streams() == 1 {
			dy := f.Trees[0].MergeCost()
			if dy < opt-1e-9 {
				t.Fatalf("dyadic tree cost %v below the optimum %v", dy, opt)
			}
		}
	}
}

func relabel(shape *mergetree.Tree, times []float64) *mergetree.RTree {
	rt := mergetree.NewR(times[shape.Arrival])
	for _, c := range shape.Children {
		rt.AddChild(relabel(c, times))
	}
	return rt
}

func TestOptimalForestSlottedMatchesCore(t *testing.T) {
	// With slot arrivals and integer L the general forest DP must reproduce
	// the delay-guaranteed optimum F(L,n).
	for _, c := range []struct{ L, n int64 }{{15, 8}, {15, 14}, {4, 16}, {8, 30}, {30, 60}} {
		res, err := OptimalForest(context.Background(), slotTimes(int(c.n)), float64(c.L), ReceiveTwo)
		if err != nil {
			t.Fatal(err)
		}
		if int64(math.Round(res.Cost)) != core.FullCost(c.L, c.n) {
			t.Errorf("L=%d n=%d: general DP cost %v, slotted optimum %d", c.L, c.n, res.Cost, core.FullCost(c.L, c.n))
		}
		if int64(len(res.Roots)) != core.OptimalStreamCount(c.L, c.n) {
			// The number of roots may differ if several stream counts tie;
			// only the cost must match.
			if int64(math.Round(res.Cost)) != core.FullCost(c.L, c.n) {
				t.Errorf("L=%d n=%d: root count %d", c.L, c.n, len(res.Roots))
			}
		}
	}
}

func TestOptimalForestStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(40)
		times := randomTimes(rng, n, 3)
		res, err := OptimalForest(context.Background(), times, 1.0, ReceiveTwo)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Forest.Validate(); err != nil {
			t.Fatalf("forest invalid: %v", err)
		}
		if res.Forest.Size() != n {
			t.Fatalf("forest covers %d arrivals, want %d", res.Forest.Size(), n)
		}
		if math.Abs(res.Forest.FullCost()-res.Cost) > 1e-9 {
			t.Fatalf("forest cost %v != DP cost %v", res.Forest.FullCost(), res.Cost)
		}
		if res.NormalizedCost() < float64(len(res.Roots))-1e-9 {
			t.Fatalf("normalized cost below the number of full streams")
		}
		// First arrival is always a root.
		if len(res.Roots) == 0 || res.Roots[0] != 0 {
			t.Fatalf("the first arrival must start a full stream: %v", res.Roots)
		}
	}
}

func TestOptimalForestIsLowerBoundForHeuristics(t *testing.T) {
	// The exact off-line optimum must never exceed the dyadic heuristic's
	// cost on the same trace.
	for seed := int64(0); seed < 8; seed++ {
		tr := arrivals.Poisson(0.02, 4, seed)
		if len(tr) < 2 {
			continue
		}
		res, err := OptimalForest(context.Background(), tr, 1.0, ReceiveTwo)
		if err != nil {
			t.Fatal(err)
		}
		dy, err := dyadic.TotalCost(tr, 1.0, dyadic.GoldenPoisson())
		if err != nil {
			t.Fatal(err)
		}
		if res.NormalizedCost() > dy+1e-9 {
			t.Errorf("seed %d: optimal %.4f exceeds dyadic %.4f", seed, res.NormalizedCost(), dy)
		}
	}
}

func TestOptimalForestErrors(t *testing.T) {
	if _, err := OptimalForest(context.Background(), []float64{0, 1}, 0, ReceiveTwo); err == nil {
		t.Errorf("non-positive L should fail")
	}
	// A non-finite L fails before any table is allocated.
	times := replanArrivals(3000, 0.001)
	for _, L := range []float64{math.NaN(), math.Inf(1)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := OptimalForest(context.Background(), times, L, ReceiveTwo)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, moderr.ErrBadInstance) {
			t.Errorf("L = %g: err = %v, want ErrBadInstance", L, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("L = %g: allocated %d bytes before failing, want < 1 MB", L, alloc)
		}
	}
	if _, err := OptimalForest(context.Background(), []float64{1, 0}, 1, ReceiveTwo); err == nil {
		t.Errorf("unsorted times should fail")
	}
	res, err := OptimalForest(context.Background(), nil, 1, ReceiveTwo)
	if err != nil || res.Forest.Size() != 0 {
		t.Errorf("empty input should give an empty forest")
	}
}

// TestSolveGuarded pins the shared off-line guard: both caps count tied
// arrivals, non-positive caps select the defaults, and ties collapse
// before the DP, so a tied trace costs what its deduplication costs and
// an untied one what OptimalForest returns.
func TestSolveGuarded(t *testing.T) {
	ctx := context.Background()
	tied := []float64{0.1, 0.1, 0.2, 0.35, 0.35, 0.9}
	if err := CheckSize(tied, 1, 5, 0); !errors.Is(err, moderr.ErrInstanceTooLarge) {
		t.Errorf("arrival cap counting ties: err = %v, want ErrInstanceTooLarge", err)
	}
	if err := CheckSize(tied, 1, 0, BandBytes(tied, 1)-1); !errors.Is(err, moderr.ErrInstanceTooLarge) {
		t.Errorf("table cap counting ties: err = %v, want ErrInstanceTooLarge", err)
	}
	if err := CheckSize(tied, 1, 6, BandBytes(tied, 1)); err != nil {
		t.Errorf("caps met exactly: err = %v", err)
	}
	atCap := make([]float64, DefaultMaxArrivals+1)
	for i := range atCap {
		atCap[i] = float64(i)
	}
	if err := CheckSize(atCap[:DefaultMaxArrivals], 1, 0, 0); err != nil {
		t.Errorf("%d arrivals under the default caps: err = %v", DefaultMaxArrivals, err)
	}
	if err := CheckSize(atCap, 1, 0, 0); !errors.Is(err, moderr.ErrInstanceTooLarge) {
		t.Errorf("%d arrivals: err = %v, want ErrInstanceTooLarge", len(atCap), err)
	}
	if _, err := SolveGuarded(ctx, tied, 1, 2, 0); !errors.Is(err, moderr.ErrInstanceTooLarge) {
		t.Errorf("SolveGuarded over the arrival cap: err = %v, want ErrInstanceTooLarge", err)
	}

	deduped := []float64{0.1, 0.2, 0.35, 0.9}
	if got := distinct(tied); !reflect.DeepEqual(got, deduped) {
		t.Fatalf("distinct(%v) = %v, want %v", tied, got, deduped)
	}
	if got := distinct(deduped); &got[0] != &deduped[0] {
		t.Errorf("distinct copied an untied trace")
	}
	got, err := SolveGuarded(ctx, tied, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := OptimalForest(ctx, deduped, 1, ReceiveTwo)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || !reflect.DeepEqual(got.Roots, want.Roots) {
		t.Errorf("tied trace: cost %v roots %v, want the deduplicated %v roots %v", got.Cost, got.Roots, want.Cost, want.Roots)
	}
	rng := rand.New(rand.NewSource(5))
	times := randomTimes(rng, 200, 4)
	got, err = SolveGuarded(ctx, times, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ = OptimalForest(ctx, times, 1, ReceiveTwo); got.Cost != want.Cost {
		t.Errorf("untied trace: cost %v, want OptimalForest's %v", got.Cost, want.Cost)
	}
}

func TestOptimalForestReceiveAllCheaper(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	times := randomTimes(rng, 30, 2)
	two, err := OptimalForest(context.Background(), times, 1.0, ReceiveTwo)
	if err != nil {
		t.Fatal(err)
	}
	all, err := OptimalForest(context.Background(), times, 1.0, ReceiveAll)
	if err != nil {
		t.Fatal(err)
	}
	if all.Cost > two.Cost+1e-9 {
		t.Errorf("receive-all optimum %v exceeds receive-two optimum %v", all.Cost, two.Cost)
	}
}

func BenchmarkMergeCostTableFast(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	times := randomTimes(rng, 300, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MergeCostTableFast(times, ReceiveTwo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeCostTablePlain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	times := randomTimes(rng, 300, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MergeCostTable(times, ReceiveTwo); err != nil {
			b.Fatal(err)
		}
	}
}
