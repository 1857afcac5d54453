package offline

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// replanArrivals builds a deterministic Poisson-like epoch trace: n
// arrivals with exponential spacing at the given mean.
func replanArrivals(n int, mean float64) []float64 {
	rng := rand.New(rand.NewSource(31))
	out := make([]float64, n)
	at := 0.0
	for i := range out {
		at += rng.ExpFloat64() * mean
		out[i] = at
	}
	return out
}

// Epoch-replan benchmark shape: one epoch's worth of arrivals, a media
// window short enough to band the DP, and a warm handle that has already
// absorbed `overlap` percent of the epoch when the replan fires.
const (
	replanN    = 4000
	replanMean = 0.005
	replanL    = 2.0
)

// BenchmarkEpochReplanCold is the status-quo epoch boundary: the full
// banded Knuth DP plus the partition DP, from scratch, every epoch.
func BenchmarkEpochReplanCold(b *testing.B) {
	times := replanArrivals(replanN, replanMean)
	ctx := context.Background()
	for _, overlap := range []int{50, 90, 99} {
		b.Run(fmt.Sprintf("overlap=%d%%", overlap), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := OptimalForest(ctx, times, replanL, ReceiveTwo)
				if err != nil {
					b.Fatal(err)
				}
				_ = f.Cost
			}
		})
	}
}

// BenchmarkEpochReplanWarm measures the same replan when a retained table
// has already absorbed overlap% of the epoch's arrivals: the boundary pays
// only for extending the tables (and with them the partition) over the
// un-absorbed tail.  Each iteration absorbs the prefix into a new table
// with the timer stopped.
// The acceptance bar is >= 5x over cold at 90% overlap.
func BenchmarkEpochReplanWarm(b *testing.B) {
	times := replanArrivals(replanN, replanMean)
	ctx := context.Background()
	for _, overlap := range []int{50, 90, 99} {
		b.Run(fmt.Sprintf("overlap=%d%%", overlap), func(b *testing.B) {
			k := replanN * overlap / 100
			// Absorb the shared prefix in two steps, like a live mid-epoch
			// handle built by more than one Extend.
			absorbed := func() *Tables {
				tab, err := ComputeTables(ctx, times[:k/2], ReceiveTwo, replanL, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := tab.Extend(ctx, times[k/2:k], 1); err != nil {
					b.Fatal(err)
				}
				return tab
			}
			tail := times[k:]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				warm := absorbed()
				b.StartTimer()
				if err := warm.Extend(ctx, tail, 1); err != nil {
					b.Fatal(err)
				}
				f, err := warm.SolveForest(replanL)
				if err != nil {
					b.Fatal(err)
				}
				_ = f.Cost
			}
		})
	}
}

// Flash-density epoch: one replanning epoch (512 slots at a 2% start-up
// delay, about 10 media lengths) of the busiest object of a 64-object
// Zipf(1) catalog under a 4x flash crowd — about 880 arrivals per
// media-length window, a 7.4M-cell (89 MB) window band.
const (
	flashN    = 8800
	flashMean = 1.0 / 880
	flashL    = 1.0
)

// BenchmarkAbsorbEpoch replays warm replanning's call sequence over one
// flash-density epoch: Extend each time 32 + absorbed/8 arrivals are
// pending, once more for the tail, then ForestStreams at the close.  Case
// fresh starts every epoch from a new table; case reused absorbs the epoch
// once untimed, then times absorbing it again after each Reset, the way a
// live object's table runs from its second epoch on.  CI fails the reused
// case if it allocates more than 1% of the fresh case's B/op.
// ns/cell is the DP layer's cost per stored cell, the unit the end-to-end
// benchmark's offline.ns_per_cell reports; forest tables store only the
// rows the partition can use, so ns/cell does not compare across that
// change, and ns/arrival and cells/arrival report the work per arrival.
func BenchmarkAbsorbEpoch(b *testing.B) {
	times := replanArrivals(flashN, flashMean)
	ctx := context.Background()
	absorb := func(b *testing.B, tab *Tables) int64 {
		if err := absorbLive(ctx, tab, times); err != nil {
			b.Fatal(err)
		}
		var busy float64
		cost, err := tab.ForestStreams(flashL, func(_, length float64) { busy += length })
		if err != nil {
			b.Fatal(err)
		}
		_, _ = cost, busy
		return tab.Cells()
	}
	report := func(b *testing.B, cells int64) {
		arrivals := float64(b.N) * flashN
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/arrivals, "ns/arrival")
		b.ReportMetric(float64(cells)/arrivals, "cells/arrival")
	}
	b.Run("fresh", func(b *testing.B) {
		var cells int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab, err := ComputeTables(ctx, nil, ReceiveTwo, flashL, 1)
			if err != nil {
				b.Fatal(err)
			}
			cells += absorb(b, tab)
		}
		report(b, cells)
	})
	b.Run("reused", func(b *testing.B) {
		tab, err := ComputeTables(ctx, nil, ReceiveTwo, flashL, 1)
		if err != nil {
			b.Fatal(err)
		}
		absorb(b, tab)
		var cells int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tab.Reset()
			b.StartTimer()
			cells += absorb(b, tab)
		}
		report(b, cells)
	})
}
