package offline

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// epochArrivals is one epoch of n exponential arrivals at perWindow
// arrivals per unit media length, drawn from seed.
func epochArrivals(seed int64, n int, perWindow float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out, at := make([]float64, n), 0.0
	for i := range out {
		at += rng.ExpFloat64() / perWindow
		out[i] = at
	}
	return out
}

// Reset test epochs, at unit media length: a calm epoch of about ten
// windows at 110 arrivals per window, and a flash epoch at four times the
// rate.
var (
	calmEpoch  = func(seed int64) []float64 { return epochArrivals(seed, 1100, 110) }
	flashEpoch = func(seed int64) []float64 { return epochArrivals(seed, 4400, 440) }
)

// retainedBytes is the storage tab holds, at capacity: every split chunk
// its chunk list still references (past its length too), at 2 bytes a
// split, the band, the ring and the per-arrival arrays.  ForestStreams'
// stack, as deep as the forest's groups and trees, is left out.
func retainedBytes(tab *Tables) int64 {
	b := int64(cap(tab.band))*8 + int64(cap(tab.ring))*8 +
		int64(cap(tab.cols))*int64(unsafe.Sizeof(column{})) +
		int64(cap(tab.times))*8 + int64(cap(tab.best))*8 + int64(cap(tab.choice))*4
	for _, c := range tab.chunks[:cap(tab.chunks)] {
		b += int64(cap(c)) * 2
	}
	return b
}

// forestStreams collects tab's ForestStreams output.
func forestStreams(t *testing.T, tab *Tables, L float64) ([][2]float64, float64) {
	t.Helper()
	var out [][2]float64
	cost, err := tab.ForestStreams(L, func(start, length float64) { out = append(out, [2]float64{start, length}) })
	if err != nil {
		t.Fatal(err)
	}
	return out, cost
}

// TestResetMatchesFresh drives one table through calm, flash, calm and
// flash epochs, each absorbed at the live cadence after a Reset, and
// checks every epoch against a fresh table over the same arrivals: the
// forest, the partition, every split and every cost cell as its column's
// fill left it, and the streams ForestStreams emits, all bit for bit.
// Tables that hold the whole triangle are reset and compared the same
// way.
func TestResetMatchesFresh(t *testing.T) {
	ctx := context.Background()
	epochs := [][]float64{calmEpoch(1), flashEpoch(2), calmEpoch(3), flashEpoch(4)}
	reused, reusedCosts := capturing(ReceiveTwo, 1)
	for k, times := range epochs {
		reused.Reset()
		*reusedCosts = (*reusedCosts)[:0]
		if err := absorbLive(ctx, reused, times); err != nil {
			t.Fatal(err)
		}
		fresh, freshCosts := capturing(ReceiveTwo, 1)
		if err := absorbLive(ctx, fresh, times); err != nil {
			t.Fatal(err)
		}
		label := []string{"calm", "flash", "calm again", "flash again"}[k]
		sameCells(t, reused, fresh, reusedCosts, freshCosts, label)
		got, err := reused.SolveForest(1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SolveForest(1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: forest differs from a fresh table's", label)
		}
		gotStreams, gotCost := forestStreams(t, reused, 1)
		wantStreams, wantCost := forestStreams(t, fresh, 1)
		if !slices.Equal(gotStreams, wantStreams) || math.Float64bits(gotCost) != math.Float64bits(wantCost) {
			t.Fatalf("%s: streams or cost differ from a fresh table's", label)
		}
	}
	rng := rand.New(rand.NewSource(8))
	unbanded, unbandedCosts := capturing(ReceiveAll, wide)
	for _, n := range []int{90, 30, 120} {
		times := randomTimes(rng, n, 40)
		unbanded.Reset()
		*unbandedCosts = (*unbandedCosts)[:0]
		if err := absorbLive(ctx, unbanded, times); err != nil {
			t.Fatal(err)
		}
		fresh, freshCosts := capturing(ReceiveAll, wide)
		if err := fresh.Extend(ctx, times, 1); err != nil {
			t.Fatal(err)
		}
		sameCells(t, unbanded, fresh, unbandedCosts, freshCosts, "unbanded")
	}
}

// TestResetReleasesFlashStorage checks the retention rule: after a calm
// epoch that follows a flash epoch, a table holds what it held after the
// same calm epoch on its own, though the flash epoch made it hold more
// than four times that.  The two can differ by a few percent: a fresh
// table's band has the size its last growth gave it, a shrunk one the
// size the epoch's largest live band would give it, and a shrunk
// per-arrival array holds exactly the epoch's arrivals.
func TestResetReleasesFlashStorage(t *testing.T) {
	ctx := context.Background()
	calm, flash := calmEpoch(5), flashEpoch(6)
	tab := &Tables{model: ReceiveTwo, window: 1}
	absorb := func(times []float64) int64 {
		if err := absorbLive(ctx, tab, times); err != nil {
			t.Fatal(err)
		}
		tab.Reset()
		return retainedBytes(tab)
	}
	calmBytes := absorb(calm)
	flashBytes := absorb(flash)
	againBytes := absorb(calm)
	t.Logf("retained after calm %d B, after flash %d B, after calm again %d B", calmBytes, flashBytes, againBytes)
	if flashBytes <= 4*calmBytes {
		t.Fatalf("the flash epoch left %d B, want more than 4x the calm epoch's %d B", flashBytes, calmBytes)
	}
	if againBytes > calmBytes*21/20 {
		t.Fatalf("calm after flash retains %d B, want at most 5%% above the calm epoch's own %d B", againBytes, calmBytes)
	}
}

// TestResetEpochAllocatesLittle checks that a Reset table absorbs a second
// flash-density epoch of the same size, at the live cadence, allocating
// under 1% of what absorbing the first one into a fresh table did.  The
// first Reset may allocate once, to fit the band to the epoch's largest
// live band; from then on a Reset and an epoch together stay under 1%.
func TestResetEpochAllocatesLittle(t *testing.T) {
	ctx := context.Background()
	times := replanArrivals(flashN, flashMean)
	tab := &Tables{model: ReceiveTwo, window: flashL}
	allocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	absorb := func() {
		if err := absorbLive(ctx, tab, times); err != nil {
			t.Fatal(err)
		}
	}
	first := allocs(absorb)
	tab.Reset()
	second := allocs(absorb)
	third := allocs(func() { tab.Reset(); absorb() })
	t.Logf("first epoch allocated %d B, the second %d B (%.4f%%), Reset and the third %d B (%.4f%%)",
		first, second, 100*float64(second)/float64(first), third, 100*float64(third)/float64(first))
	if float64(second) >= 0.01*float64(first) || float64(third) >= 0.01*float64(first) {
		t.Fatalf("the second epoch allocated %d B and Reset with the third %d B, want each under 1%% of the first's %d B",
			second, third, first)
	}
}

// TestResetAfterCanceledExtend checks that Reset repairs a table an Extend
// left part-filled: cancelled between two columns (deterministically,
// from the column hook), the table is Reset and absorbs the same epoch
// again, and must then equal a fresh table cell for cell.
func TestResetAfterCanceledExtend(t *testing.T) {
	times := calmEpoch(9)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tab, costs := capturing(ReceiveTwo, 1)
	hook := tab.onColumn
	tab.onColumn = func(j int, col []float64) {
		hook(j, col)
		if j == len(times)/2 {
			cancel()
		}
	}
	if err := tab.Extend(ctx, times[:40], 1); err != nil {
		t.Fatal(err)
	}
	if err := tab.Extend(ctx, times[40:], 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Extend cancelled mid-fill: err = %v, want context.Canceled", err)
	}
	if n := tab.N(); n <= 40 || n >= len(times) {
		t.Fatalf("the cancelled Extend left %d columns, want it stopped mid-fill", n)
	}
	tab.Reset()
	*costs = (*costs)[:0]
	if err := absorbLive(context.Background(), tab, times); err != nil {
		t.Fatal(err)
	}
	fresh, freshCosts := capturing(ReceiveTwo, 1)
	if err := absorbLive(context.Background(), fresh, times); err != nil {
		t.Fatal(err)
	}
	sameCells(t, tab, fresh, costs, freshCosts, "reset after a cancelled Extend")
}
