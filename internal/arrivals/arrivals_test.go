package arrivals

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	tr := Constant(0.25, 1.0)
	if len(tr) != 3 {
		t.Fatalf("Constant(0.25, 1.0) has %d arrivals, want 3 (0.25, 0.5, 0.75)", len(tr))
	}
	if math.Abs(tr[0]-0.25) > 1e-12 || math.Abs(tr[2]-0.75) > 1e-12 {
		t.Errorf("unexpected arrivals %v", tr)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestConstantEmptyHorizon(t *testing.T) {
	if got := Constant(0.5, 0); len(got) != 0 {
		t.Errorf("expected no arrivals, got %v", got)
	}
	if got := Constant(2.0, 1.0); len(got) != 0 {
		t.Errorf("inter-arrival larger than horizon should produce nothing, got %v", got)
	}
}

func TestConstantPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Constant(0, 1) },
		func() { Constant(-1, 1) },
		func() { Constant(1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestGeneratorsRefuseNonFiniteLoad pins a panic, like the one for a
// non-positive lambda, for every value that would otherwise never end a
// generator's loop: a NaN or infinite horizon, a NaN rate or factor, and
// a peak rate that overflows.
func TestGeneratorsRefuseNonFiniteLoad(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		gen  func()
	}{
		{"Constant NaN horizon", func() { Constant(1, nan) }},
		{"Constant +Inf horizon", func() { Constant(1, inf) }},
		{"Constant NaN lambda", func() { Constant(nan, 1) }},
		{"Constant overflowing rate", func() { Constant(5e-324, 1) }},
		{"Poisson NaN horizon", func() { Poisson(1, nan, 1) }},
		{"Poisson +Inf horizon", func() { Poisson(1, inf, 1) }},
		{"Poisson NaN lambda", func() { Poisson(nan, 1, 1) }},
		{"Poisson overflowing rate", func() { Poisson(5e-324, 1, 1) }},
		{"Ramp NaN horizon", func() { Ramp(1, 1, nan, 1) }},
		{"Ramp +Inf horizon", func() { Ramp(1, 1, inf, 1) }},
		{"Ramp NaN start lambda", func() { Ramp(nan, 1, 1, 1) }},
		{"Ramp NaN end lambda", func() { Ramp(1, nan, 1, 1) }},
		{"Ramp overflowing peak rate", func() { Ramp(1, 5e-324, 1, 1) }},
		{"Flash NaN horizon", func() { Flash(1, 2, 0, 1, nan, 1) }},
		{"Flash +Inf horizon", func() { Flash(1, 2, 0, 1, inf, 1) }},
		{"Flash NaN lambda", func() { Flash(nan, 2, 0, 1, 1, 1) }},
		{"Flash NaN factor", func() { Flash(1, nan, 0, 1, 1, 1) }},
		{"Flash +Inf factor", func() { Flash(1, inf, 0, 1, 1, 1) }},
		{"Flash +Inf factor, +Inf lambda", func() { Flash(inf, inf, 0, 1, 1, 1) }},
		{"Flash overflowing peak rate", func() { Flash(1e-300, 1e10, 0, 1, 1, 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.gen()
		}()
	}
}

// TestInfiniteMeanDrawsNothing pins that a +Inf mean inter-arrival time,
// a rate of zero, is valid and yields an empty trace.
func TestInfiniteMeanDrawsNothing(t *testing.T) {
	inf := math.Inf(1)
	for name, tr := range map[string]Trace{
		"Constant": Constant(inf, 10),
		"Poisson":  Poisson(inf, 10, 1),
		"Ramp":     Ramp(inf, inf, 10, 1),
		"Flash":    Flash(inf, 4, 2, 2, 10, 1),
	} {
		if len(tr) != 0 {
			t.Errorf("%s with a +Inf mean drew %d arrivals, want 0", name, len(tr))
		}
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a := Poisson(0.01, 10, 42)
	b := Poisson(0.01, 10, 42)
	if len(a) != len(b) {
		t.Fatalf("same seed gave different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed gave different traces at %d", i)
		}
	}
	c := Poisson(0.01, 10, 43)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("different seeds gave identical traces")
		}
	}
}

func TestPoissonStatistics(t *testing.T) {
	lambda := 0.02
	tr := Poisson(lambda, 200, 7)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Expected count is horizon/lambda = 10000; allow 5% deviation.
	want := 200.0 / lambda
	if got := float64(tr.Count()); math.Abs(got-want)/want > 0.05 {
		t.Errorf("Poisson count %v, want about %v", got, want)
	}
	if got := tr.MeanInterArrival(); math.Abs(got-lambda)/lambda > 0.05 {
		t.Errorf("mean inter-arrival %v, want about %v", got, lambda)
	}
}

func TestPoissonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	Poisson(0, 1, 1)
}

func TestValidateRejectsBadTraces(t *testing.T) {
	if err := (Trace{0.5, 0.25}).Validate(); err == nil {
		t.Errorf("unsorted trace should fail")
	}
	if err := (Trace{-1}).Validate(); err == nil {
		t.Errorf("negative time should fail")
	}
	if err := (Trace{math.NaN()}).Validate(); err == nil {
		t.Errorf("NaN should fail")
	}
	if err := (Trace{math.Inf(1)}).Validate(); err == nil {
		t.Errorf("Inf should fail")
	}
	if err := (Trace{}).Validate(); err != nil {
		t.Errorf("empty trace should validate")
	}
}

func TestClip(t *testing.T) {
	tr := Trace{0.1, 0.5, 0.9, 1.5}
	c := tr.Clip(1.0)
	if len(c) != 3 || c[2] != 0.9 {
		t.Errorf("Clip = %v", c)
	}
	if got := tr.Clip(0); len(got) != 0 {
		t.Errorf("Clip(0) should be empty")
	}
}

func TestBatchToSlots(t *testing.T) {
	tr := Trace{0.001, 0.004, 0.013, 0.013, 0.029, 0.041}
	slots := tr.BatchToSlots(0.01)
	want := []int64{0, 1, 2, 4}
	if len(slots) != len(want) {
		t.Fatalf("BatchToSlots = %v, want %v", slots, want)
	}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("BatchToSlots = %v, want %v", slots, want)
		}
	}
}

func TestBatchTimesDelayGuarantee(t *testing.T) {
	// Every client must be served within one slot of its arrival.
	prop := func(seed int64, lam uint8) bool {
		lambda := float64(lam%50+1) / 1000.0
		tr := Poisson(lambda, 5, seed)
		slot := 0.01
		times := tr.BatchTimes(slot)
		// Each arrival's service time is the end of its slot.
		j := 0
		for _, t := range tr {
			for j < len(times) && times[j] < t {
				j++
			}
			if j >= len(times) {
				return false
			}
			if times[j]-t > slot+1e-12 || times[j] < t {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAppendBatchTimes checks that AppendBatchTimes appends the end of
// each occupied slot, (BatchToSlots index + 1) * slot, bit for bit after
// what dst holds, and reuses dst's storage; BatchTimes returns the same
// ends, and an empty, non-nil slice for an empty trace.
func TestAppendBatchTimes(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		tr := Poisson(0.02, 5, seed)
		slot := 0.01 * float64(seed)
		slots := tr.BatchToSlots(slot)
		got := tr.AppendBatchTimes([]float64{-1}, slot)
		if len(got) != len(slots)+1 || got[0] != -1 {
			t.Fatalf("seed %d: appended %d times after the prefix, want %d", seed, len(got)-1, len(slots))
		}
		batch := tr.BatchTimes(slot)
		if len(batch) != len(slots) {
			t.Fatalf("seed %d: BatchTimes returned %d slot ends, want %d", seed, len(batch), len(slots))
		}
		for i, s := range slots {
			want := float64(s+1) * slot
			if math.Float64bits(got[i+1]) != math.Float64bits(want) || math.Float64bits(batch[i]) != math.Float64bits(want) {
				t.Fatalf("seed %d: slot end %d = %v appended, %v from BatchTimes, want %v", seed, i, got[i+1], batch[i], want)
			}
		}
		buf := make([]float64, 0, len(slots))
		if again := tr.AppendBatchTimes(buf, slot); len(again) > 0 && &again[0] != &buf[:1][0] {
			t.Fatalf("seed %d: a buffer with room was reallocated", seed)
		}
	}
	if got := Trace(nil).AppendBatchTimes(nil, 1); got != nil {
		t.Fatalf("an empty trace appended %v", got)
	}
	if got := Trace(nil).BatchTimes(1); got == nil || len(got) != 0 {
		t.Fatalf("BatchTimes of an empty trace = %#v, want an empty, non-nil slice", got)
	}
}

func TestOccupiedSlots(t *testing.T) {
	tr := Trace{0.005, 0.015, 0.995, 1.2}
	if got := tr.OccupiedSlots(0.01, 1.0); got != 3 {
		t.Errorf("OccupiedSlots = %d, want 3", got)
	}
}

func TestBatchToSlotsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	Trace{0.1}.BatchToSlots(0)
}

func TestMerge(t *testing.T) {
	a := Trace{0.1, 0.4}
	b := Trace{0.2, 0.3, 0.5}
	m := Merge(a, b)
	if len(m) != 5 {
		t.Fatalf("Merge length %d", len(m))
	}
	if err := m.Validate(); err != nil {
		t.Errorf("merged trace invalid: %v", err)
	}
}

func TestFlashDeterministicAndValid(t *testing.T) {
	a := Flash(0.02, 8, 40, 20, 100, 42)
	b := Flash(0.02, 8, 40, 20, 100, 42)
	if len(a) != len(b) {
		t.Fatalf("same seed gave different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed gave different traces at %d", i)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFlashCrowdDensity(t *testing.T) {
	// Background rate 1/lambda = 50/unit, flash window [40, 60) at 8x.
	tr := Flash(0.02, 8, 40, 20, 100, 7)
	var inside, outside int
	for _, at := range tr {
		if at >= 40 && at < 60 {
			inside++
		} else {
			outside++
		}
	}
	// Expected: inside 20*8/0.02 = 8000, outside 80/0.02 = 4000; the
	// flash window must be far denser per unit time than the background.
	insideRate := float64(inside) / 20
	outsideRate := float64(outside) / 80
	if insideRate < 4*outsideRate {
		t.Errorf("flash window rate %.1f/unit not clearly above background %.1f/unit", insideRate, outsideRate)
	}
	want := 8000.0
	if math.Abs(float64(inside)-want)/want > 0.10 {
		t.Errorf("flash window count %d, want about %.0f", inside, want)
	}
}

func TestFlashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	Flash(0.02, 0.5, 0, 1, 10, 1) // factor < 1
}

func TestConstantMeanInterArrival(t *testing.T) {
	tr := Constant(0.01, 10)
	if got := tr.MeanInterArrival(); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("MeanInterArrival = %v, want 0.01", got)
	}
	if (Trace{}).MeanInterArrival() != 0 {
		t.Errorf("empty trace mean should be 0")
	}
}
