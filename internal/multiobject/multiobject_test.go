package multiobject

import (
	"math"
	"testing"
)

func TestObjectSlots(t *testing.T) {
	o := Object{Name: "m", Length: 2, Delay: 0.02}
	if got := o.Slots(); got != 100 {
		t.Errorf("Slots = %d, want 100", got)
	}
	if (Object{Length: 1, Delay: 2}).Slots() != 1 {
		t.Errorf("delay longer than the media should clamp to 1 slot")
	}
	if (Object{}).Slots() != 1 {
		t.Errorf("zero object should clamp to 1 slot")
	}
}

func TestObjectValidate(t *testing.T) {
	good := Object{Name: "m", Length: 2, Delay: 0.1, Popularity: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid object rejected: %v", err)
	}
	bad := []Object{
		{Name: "a", Length: 0, Delay: 0.1},
		{Name: "b", Length: 1, Delay: 0},
		{Name: "c", Length: 1, Delay: 2},
		{Name: "d", Length: 1, Delay: 0.1, Popularity: -1},
		{Name: "e", Length: 1, Delay: 0.1, Popularity: math.NaN()},
		{Name: "f", Length: math.NaN(), Delay: 0.1},
		{Name: "g", Length: math.Inf(1), Delay: 0.1},
		{Name: "h", Length: 1, Delay: math.NaN()},
		{Name: "i", Length: 1, Delay: 0.1, Popularity: math.Inf(1)},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("object %q should be invalid", o.Name)
		}
	}
}

func TestCatalogValidate(t *testing.T) {
	c := Catalog{
		{Name: "a", Length: 1, Delay: 0.1},
		{Name: "a", Length: 1, Delay: 0.1},
	}
	if err := c.Validate(); err == nil {
		t.Errorf("duplicate names should be rejected")
	}
}

func TestZipfCatalog(t *testing.T) {
	c := ZipfCatalog(5, 2, 0.02, 1)
	if len(c) != 5 {
		t.Fatalf("catalog size %d", len(c))
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i := 1; i < len(c); i++ {
		if c[i].Popularity >= c[i-1].Popularity {
			t.Errorf("popularities should decrease: %v", c)
		}
	}
	if math.Abs(c[0].Popularity-1) > 1e-12 || math.Abs(c[1].Popularity-0.5) > 1e-12 {
		t.Errorf("Zipf(1) popularities wrong: %v %v", c[0].Popularity, c[1].Popularity)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("ZipfCatalog(0,...) should panic")
		}
	}()
	ZipfCatalog(0, 1, 0.1, 1)
}

func TestBuildSingleObjectMatchesOnlineCost(t *testing.T) {
	// One object of length 1 with delay 0.01 over a horizon of 10: the plan
	// must reproduce the on-line algorithm's normalized cost.
	cat := Catalog{{Name: "m", Length: 1, Delay: 0.01, Popularity: 1}}
	plan, err := Build(cat, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Objects) != 1 {
		t.Fatalf("expected one object plan")
	}
	op := plan.Objects[0]
	if op.SlotsPerMedia != 100 {
		t.Errorf("SlotsPerMedia = %d, want 100", op.SlotsPerMedia)
	}
	if op.Streams <= 0 || plan.TotalBusyTime <= 0 {
		t.Errorf("plan has no bandwidth usage")
	}
	// Total busy time equals streams * media length for a single object.
	if math.Abs(plan.TotalBusyTime-op.Streams*cat[0].Length) > 1e-9 {
		t.Errorf("TotalBusyTime %v inconsistent with Streams %v", plan.TotalBusyTime, op.Streams)
	}
	if plan.Peak != op.Peak {
		t.Errorf("single-object peak mismatch: %d vs %d", plan.Peak, op.Peak)
	}
	if plan.AverageChannels() <= 0 || plan.AverageChannels() > float64(plan.Peak) {
		t.Errorf("average channels %v outside (0, peak]", plan.AverageChannels())
	}
}

func TestBuildMultipleObjectsAggregates(t *testing.T) {
	cat := ZipfCatalog(4, 2, 0.04, 1)
	plan, err := Build(cat, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Objects) != 4 {
		t.Fatalf("expected 4 object plans")
	}
	var sumBusy float64
	maxPeak := 0
	for _, op := range plan.Objects {
		sumBusy += op.Streams * op.Object.Length
		if op.Peak > maxPeak {
			maxPeak = op.Peak
		}
	}
	if math.Abs(sumBusy-plan.TotalBusyTime) > 1e-6 {
		t.Errorf("per-object busy time %v does not add up to %v", sumBusy, plan.TotalBusyTime)
	}
	// The server-wide peak is at least any single object's peak and at most
	// the sum of the peaks.
	if plan.Peak < maxPeak {
		t.Errorf("aggregate peak %d below a single object's peak %d", plan.Peak, maxPeak)
	}
	sumPeaks := 0
	for _, op := range plan.Objects {
		sumPeaks += op.Peak
	}
	if plan.Peak > sumPeaks {
		t.Errorf("aggregate peak %d exceeds the sum of per-object peaks %d", plan.Peak, sumPeaks)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Catalog{{Name: "x", Length: 0, Delay: 1}}, 10); err == nil {
		t.Errorf("invalid catalog should fail")
	}
	if _, err := Build(ZipfCatalog(2, 1, 0.1, 1), 0); err == nil {
		t.Errorf("non-positive horizon should fail")
	}
}

func TestLargerDelayReducesPeak(t *testing.T) {
	// The Section 5 trade-off: increasing the guaranteed delay lowers the
	// peak bandwidth.
	small, err := Build(ZipfCatalog(3, 1, 0.01, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Build(ZipfCatalog(3, 1, 0.05, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if large.Peak >= small.Peak {
		t.Errorf("increasing the delay did not reduce the peak: %d -> %d", small.Peak, large.Peak)
	}
	if large.TotalBusyTime >= small.TotalBusyTime {
		t.Errorf("increasing the delay did not reduce total bandwidth")
	}
}

func TestFitDelaysMeetsBudget(t *testing.T) {
	cat := ZipfCatalog(4, 1, 0.02, 1)
	base, err := Build(cat, 5)
	if err != nil {
		t.Fatal(err)
	}
	budget := base.Peak / 2
	if budget < 1 {
		budget = 1
	}
	res, err := FitDelays(cat, 5, budget, 1.3, 100)
	if err != nil {
		t.Fatalf("FitDelays: %v", err)
	}
	if res.Plan.Peak > budget {
		t.Errorf("fitted plan peak %d exceeds budget %d", res.Plan.Peak, budget)
	}
	if res.Scale < 1 {
		t.Errorf("scale %v below 1", res.Scale)
	}
	// A budget that the base plan already meets requires no scaling.
	res2, err := FitDelays(cat, 5, base.Peak, 1.3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Scale != 1 {
		t.Errorf("no scaling should be needed, got %v", res2.Scale)
	}
}

func TestFitDelaysErrors(t *testing.T) {
	cat := ZipfCatalog(2, 1, 0.1, 1)
	if _, err := FitDelays(cat, 5, 0, 1.3, 10); err == nil {
		t.Errorf("budget below 1 should fail")
	}
	// An impossible budget (0 channels is rejected; 1 channel with several
	// objects cannot be met even at the maximum delay).
	if _, err := FitDelays(ZipfCatalog(6, 1, 0.1, 1), 5, 1, 1.3, 2); err == nil {
		t.Errorf("unreachable budget should report an error")
	}
}

func TestPopularityAwareDelays(t *testing.T) {
	cat := ZipfCatalog(4, 2, 0.02, 1)
	out := PopularityAwareDelays(cat, 0.02, 4)
	if len(out) != 4 {
		t.Fatalf("wrong length")
	}
	// Most popular keeps the base delay; least popular gets 4x.
	if math.Abs(out[0].Delay-0.02) > 1e-12 {
		t.Errorf("most popular delay = %v, want 0.02", out[0].Delay)
	}
	if math.Abs(out[3].Delay-0.08) > 1e-12 {
		t.Errorf("least popular delay = %v, want 0.08", out[3].Delay)
	}
	// Input must be untouched.
	if cat[3].Delay != 0.02 {
		t.Errorf("input catalog was modified")
	}
	// Delays never exceed the object length.
	clamped := PopularityAwareDelays(ZipfCatalog(2, 0.05, 0.04, 1), 0.04, 10)
	for _, o := range clamped {
		if o.Delay > o.Length {
			t.Errorf("delay %v exceeds length %v", o.Delay, o.Length)
		}
	}
	single := PopularityAwareDelays(ZipfCatalog(1, 1, 0.1, 1), 0.1, 3)
	if single[0].Delay != 0.1 {
		t.Errorf("single-object catalog should keep the base delay")
	}
}

func TestPopularityAwareReducesPeakVsUniformSmallDelay(t *testing.T) {
	// Giving unpopular objects larger delays must not increase the peak
	// compared to serving everything at the small base delay.
	cat := ZipfCatalog(5, 1, 0.01, 1)
	uniform, err := Build(cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Build(PopularityAwareDelays(cat, 0.01, 5), 4)
	if err != nil {
		t.Fatal(err)
	}
	if aware.Peak > uniform.Peak {
		t.Errorf("popularity-aware delays increased the peak: %d > %d", aware.Peak, uniform.Peak)
	}
	if aware.TotalBusyTime > uniform.TotalBusyTime {
		t.Errorf("popularity-aware delays increased total bandwidth")
	}
}

func BenchmarkBuildCatalog(b *testing.B) {
	cat := ZipfCatalog(10, 2, 0.02, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cat, 20); err != nil {
			b.Fatal(err)
		}
	}
}
