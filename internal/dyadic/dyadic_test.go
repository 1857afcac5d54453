package dyadic

import (
	"math"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/fib"
)

func TestParamsValidate(t *testing.T) {
	if err := Original().Validate(); err != nil {
		t.Errorf("Original params invalid: %v", err)
	}
	if err := GoldenPoisson().Validate(); err != nil {
		t.Errorf("GoldenPoisson params invalid: %v", err)
	}
	bad := []Params{
		{Alpha: 1, Beta: 0.5},
		{Alpha: 0.5, Beta: 0.5},
		{Alpha: math.NaN(), Beta: 0.5},
		{Alpha: 2, Beta: 0},
		{Alpha: 2, Beta: 1.5},
		{Alpha: 2, Beta: math.NaN()},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v should be invalid", p)
		}
	}
}

func TestGoldenConstantRate(t *testing.T) {
	p := GoldenConstantRate(100)
	if math.Abs(p.Alpha-fib.Phi) > 1e-12 {
		t.Errorf("alpha = %v, want phi", p.Alpha)
	}
	// F_h for L=100 is 55, so beta = 0.55.
	if math.Abs(p.Beta-0.55) > 1e-12 {
		t.Errorf("beta = %v, want 0.55", p.Beta)
	}
	// For tiny L beta is clamped to 1.
	if GoldenConstantRate(1).Beta != 1 {
		t.Errorf("beta should clamp to 1 for L=1")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for non-positive L")
		}
	}()
	GoldenConstantRate(0)
}

func TestGoldenPicksTuningByArrivalType(t *testing.T) {
	if Golden(true, 100) != GoldenPoisson() {
		t.Errorf("Poisson tuning = %+v, want %+v", Golden(true, 100), GoldenPoisson())
	}
	if Golden(false, 100) != GoldenConstantRate(100) {
		t.Errorf("constant-rate tuning = %+v, want %+v", Golden(false, 100), GoldenConstantRate(100))
	}
}

func TestBuildForestSingleArrival(t *testing.T) {
	f, err := BuildForest(arrivals.Trace{0.3}, 1.0, Original())
	if err != nil {
		t.Fatal(err)
	}
	if f.Streams() != 1 || f.Size() != 1 {
		t.Fatalf("single arrival should yield one root stream: %v", f)
	}
	if f.FullCost() != 1.0 {
		t.Errorf("cost = %v, want 1 media stream", f.FullCost())
	}
}

func TestBuildForestRootCutoff(t *testing.T) {
	// With beta = 0.5 and L = 1, an arrival more than 0.5 after the root
	// starts a new root.
	tr := arrivals.Trace{0.0, 0.3, 0.6, 0.7}
	f, err := BuildForest(tr, 1.0, Original())
	if err != nil {
		t.Fatal(err)
	}
	if f.Streams() != 2 {
		t.Fatalf("expected 2 root streams, got %d (%v)", f.Streams(), f)
	}
	if f.Trees[0].Arrival != 0 || f.Trees[1].Arrival != 0.6 {
		t.Errorf("unexpected roots %v and %v", f.Trees[0].Arrival, f.Trees[1].Arrival)
	}
	if f.Trees[0].Size() != 2 || f.Trees[1].Size() != 2 {
		t.Errorf("unexpected tree sizes %d and %d", f.Trees[0].Size(), f.Trees[1].Size())
	}
}

func TestBuildForestDyadicSplit(t *testing.T) {
	// Root at 0, cutoff 1 (beta=1, L=1), alpha=2: interval (0.5, 1] is I_1,
	// (0.25, 0.5] is I_2, (0.125, 0.25] is I_3.  Arrivals 0.2, 0.4, 0.45,
	// 0.8: 0.8 in I_1, 0.4 and 0.45 in I_2, 0.2 in I_3.  Children of the
	// root are the earliest arrival per interval in increasing order:
	// 0.2, 0.4, 0.8; 0.45 recursively merges under 0.4.
	tr := arrivals.Trace{0.0, 0.2, 0.4, 0.45, 0.8}
	f, err := BuildForest(tr, 1.0, Params{Alpha: 2, Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Streams() != 1 {
		t.Fatalf("expected a single tree, got %d", f.Streams())
	}
	root := f.Trees[0]
	if len(root.Children) != 3 {
		t.Fatalf("root should have 3 children, got %d", len(root.Children))
	}
	got := []float64{root.Children[0].Arrival, root.Children[1].Arrival, root.Children[2].Arrival}
	want := []float64{0.2, 0.4, 0.8}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("children = %v, want %v", got, want)
		}
	}
	if len(root.Children[1].Children) != 1 || root.Children[1].Children[0].Arrival != 0.45 {
		t.Errorf("0.45 should merge under 0.4: %+v", root.Children[1])
	}
	if err := f.Validate(); err != nil {
		t.Errorf("forest invalid: %v", err)
	}
}

func TestBuildForestValidatesAlways(t *testing.T) {
	// Structural invariants must hold for any trace, parameters, and seed.
	for seed := int64(0); seed < 10; seed++ {
		for _, lambda := range []float64{0.002, 0.01, 0.05} {
			tr := arrivals.Poisson(lambda, 20, seed)
			for _, p := range []Params{Original(), GoldenPoisson(), GoldenConstantRate(100)} {
				f, err := BuildForest(tr, 1.0, p)
				if err != nil {
					t.Fatalf("BuildForest: %v", err)
				}
				if err := f.Validate(); err != nil {
					t.Fatalf("forest invalid (seed=%d lambda=%v params=%+v): %v", seed, lambda, p, err)
				}
				if f.Size() != len(dedupe(tr)) {
					t.Fatalf("forest covers %d arrivals, trace has %d distinct", f.Size(), len(dedupe(tr)))
				}
			}
		}
	}
}

func TestBuildForestDuplicateArrivals(t *testing.T) {
	tr := arrivals.Trace{0.1, 0.1, 0.1, 0.4}
	f, err := BuildForest(tr, 1.0, Original())
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 2 {
		t.Errorf("duplicates should collapse: size = %d, want 2", f.Size())
	}
}

func TestBuildForestErrors(t *testing.T) {
	if _, err := BuildForest(arrivals.Trace{0.1}, 0, Original()); err == nil {
		t.Errorf("expected error for non-positive L")
	}
	if _, err := BuildForest(arrivals.Trace{0.1}, 1, Params{Alpha: 1, Beta: 0.5}); err == nil {
		t.Errorf("expected error for bad params")
	}
	if _, err := BuildForest(arrivals.Trace{0.5, 0.2}, 1, Original()); err == nil {
		t.Errorf("expected error for unsorted trace")
	}
	if _, err := BuildBatchedForest(arrivals.Trace{0.1}, 1, 0, Original()); err == nil {
		t.Errorf("expected error for non-positive delay")
	}
}

func TestCostNeverBelowOneStreamPerTree(t *testing.T) {
	tr := arrivals.Poisson(0.01, 50, 4)
	f, err := BuildForest(tr, 1.0, GoldenPoisson())
	if err != nil {
		t.Fatal(err)
	}
	if f.FullCost() < float64(f.Streams()) {
		t.Errorf("full cost %v below %d full streams", f.FullCost(), f.Streams())
	}
	// Cost can never exceed one full stream per client (merging only saves).
	if f.NormalizedCost() > float64(f.Size())+1e-9 {
		t.Errorf("dyadic cost %v exceeds unicast cost %d", f.NormalizedCost(), f.Size())
	}
}

func TestBatchedForestStartsFewerStreams(t *testing.T) {
	// Batching can only reduce the number of distinct stream start times.
	tr := arrivals.Poisson(0.001, 30, 9)
	imm, err := BuildForest(tr, 1.0, GoldenPoisson())
	if err != nil {
		t.Fatal(err)
	}
	bat, err := BuildBatchedForest(tr, 1.0, 0.01, GoldenPoisson())
	if err != nil {
		t.Fatal(err)
	}
	if bat.Size() > imm.Size() {
		t.Errorf("batched schedule has more streams (%d) than immediate (%d)", bat.Size(), imm.Size())
	}
	if err := bat.Validate(); err != nil {
		t.Errorf("batched forest invalid: %v", err)
	}
}

func TestBatchedCostApproachesImmediateForSparseArrivals(t *testing.T) {
	// When the inter-arrival time is much larger than the delay, batching
	// rarely groups clients, so the two costs are close (Section 4.2).
	tr := arrivals.Poisson(0.05, 100, 11)
	imm, err := TotalCost(tr, 1.0, GoldenPoisson())
	if err != nil {
		t.Fatal(err)
	}
	bat, err := TotalBatchedCost(tr, 1.0, 0.01, GoldenPoisson())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imm-bat)/imm > 0.2 {
		t.Errorf("sparse arrivals: immediate %v and batched %v should be close", imm, bat)
	}
}

func TestDenseArrivalsBenefitFromBatching(t *testing.T) {
	// When arrivals are much denser than the delay, batching reduces cost
	// substantially.
	tr := arrivals.Poisson(0.0005, 50, 13)
	imm, err := TotalCost(tr, 1.0, GoldenPoisson())
	if err != nil {
		t.Fatal(err)
	}
	bat, err := TotalBatchedCost(tr, 1.0, 0.01, GoldenPoisson())
	if err != nil {
		t.Fatal(err)
	}
	if bat >= imm {
		t.Errorf("dense arrivals: batched %v should be cheaper than immediate %v", bat, imm)
	}
}

func TestIntervalIndex(t *testing.T) {
	// Root 0, span 1, alpha 2: (0.5,1] -> 1, (0.25,0.5] -> 2, (0.125,0.25] -> 3.
	cases := []struct {
		t    float64
		want int
	}{
		{0.9, 1}, {0.51, 1}, {0.5, 2}, {0.3, 2}, {0.25, 3}, {0.2, 3}, {0.126, 3},
	}
	for _, c := range cases {
		if got := intervalIndex(0, 1, c.t, 2); got != c.want {
			t.Errorf("intervalIndex(%v) = %d, want %d", c.t, got, c.want)
		}
	}
	// A time essentially at the root terminates at the safety cap.
	if got := intervalIndex(0, 1, 1e-30, 2); got < 64 {
		t.Errorf("expected the safety cap to trigger, got %d", got)
	}
}

func TestDedupe(t *testing.T) {
	out := dedupe(arrivals.Trace{1, 1, 2, 3, 3, 3})
	if len(out) != 3 || out[0] != 1 || out[2] != 3 {
		t.Errorf("dedupe = %v", out)
	}
	if len(dedupe(nil)) != 0 {
		t.Errorf("dedupe(nil) should be empty")
	}
}

func BenchmarkBuildForest(b *testing.B) {
	tr := arrivals.Poisson(0.001, 100, 1)
	p := GoldenPoisson()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildForest(tr, 1.0, p); err != nil {
			b.Fatal(err)
		}
	}
}
