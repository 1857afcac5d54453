package live

// Warm-start replanning tests: an off-line scheduler resuming its forest
// tables must be observationally identical — every sink event, every
// total — to the same scheduler with its tables nil, which runs the batch
// planner at every close, across epoch shapes, ties, pressure closes,
// and drains.  The only permitted difference is the ReplanStats reuse
// accounting itself.

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/offline"
)

// sinkEvent is one recorded Sink call; floats are compared exactly, so
// equality here is bit-identity of the schedule.
type sinkEvent struct {
	kind string
	a, b float64
}

type recordSink struct{ events []sinkEvent }

func (r *recordSink) StreamStarted(estEnd float64) {
	r.events = append(r.events, sinkEvent{"started", estEnd, 0})
}
func (r *recordSink) ProvisionalStarted(estEnd float64) {
	r.events = append(r.events, sinkEvent{"provisional", estEnd, 0})
}
func (r *recordSink) StreamFinalized(start, length float64) {
	r.events = append(r.events, sinkEvent{"finalized", start, length})
}
func (r *recordSink) StreamTrimmed(end, staleEnd float64) {
	r.events = append(r.events, sinkEvent{"trimmed", end, staleEnd})
}

// warmTrace builds a nondecreasing arrival trace with deliberate ties and
// same-slot clusters — the cases the tables' dedupe must mirror exactly.
func warmTrace(rng *rand.Rand, n int, horizon float64) []float64 {
	out := make([]float64, 0, n)
	at := 0.0
	for len(out) < n && at < horizon*0.95 {
		switch rng.Intn(4) {
		case 0: // exact tie
		case 1: // same-slot cluster
			at += rng.Float64() * 0.01
		default:
			at += rng.Float64() * horizon / float64(n) * 4
		}
		out = append(out, at)
	}
	return out
}

// runWarmCase drains the trace through the named strategy's scheduler;
// cold nils its retained tables, so every close runs the batch planner.
func runWarmCase(t *testing.T, name string, cold bool, times []float64, epochSlots int, horizon float64) (*recordSink, float64, Totals) {
	t.Helper()
	sink := &recordSink{}
	s, err := New(name, Config{Object: testObject(0.125), EpochSlots: epochSlots, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if cold {
		s.(*epochSched).warm = nil
	}
	for i, at := range times {
		if i%7 == 3 {
			s.Advance(at)
		}
		s.Admit(at)
	}
	end := s.Drain(horizon)
	return sink, end, s.Totals()
}

// TestWarmReplanBitIdentical is the warm-start contract: for the off-line
// pair, every sink event and every total matches the same scheduler with
// its tables nil exactly, and only the ReplanStats reuse counters may
// differ.  Every other epoch strategy has no tables to resume, so it is
// checked directly for zero warm replans.
func TestWarmReplanBitIdentical(t *testing.T) {
	for _, st := range epochStrategies {
		st := st
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			if !st.resumable {
				_, _, tot := runWarmCase(t, st.name, false, warmTrace(rng, 200, 4), 16, 4)
				if tot.Replan.Replans == 0 || tot.Replan.WarmReplans != 0 {
					t.Fatalf("replans %d, warm replans %d; want replans and no warm replans",
						tot.Replan.Replans, tot.Replan.WarmReplans)
				}
				return
			}
			for trial := 0; trial < 6; trial++ {
				horizon := 2 + rng.Float64()*4
				n := 20 + rng.Intn(180)
				epochSlots := []int{4, 16, 1 << 20}[trial%3]
				times := warmTrace(rng, n, horizon)

				warmSink, warmEnd, warmTot := runWarmCase(t, st.name, false, times, epochSlots, horizon)
				coldSink, coldEnd, coldTot := runWarmCase(t, st.name, true, times, epochSlots, horizon)

				if warmEnd != coldEnd {
					t.Fatalf("trial %d: drain end %v (warm) != %v (cold)", trial, warmEnd, coldEnd)
				}
				if !reflect.DeepEqual(warmSink.events, coldSink.events) {
					t.Fatalf("trial %d: sink event streams diverge (%d warm vs %d cold events)",
						trial, len(warmSink.events), len(coldSink.events))
				}
				if warmTot.Replan.Replans != coldTot.Replan.Replans {
					t.Fatalf("trial %d: replan count %d (warm) != %d (cold)",
						trial, warmTot.Replan.Replans, coldTot.Replan.Replans)
				}
				if warmTot.Replan.WarmReplans != warmTot.Replan.Replans {
					t.Fatalf("trial %d: only %d of %d replans were warm",
						trial, warmTot.Replan.WarmReplans, warmTot.Replan.Replans)
				}
				if coldTot.Replan.WarmReplans != 0 {
					t.Fatalf("trial %d: %d warm replans with the tables nil", trial, coldTot.Replan.WarmReplans)
				}
				warmTot.Replan, coldTot.Replan = ReplanStats{}, ReplanStats{}
				if warmTot != coldTot {
					t.Fatalf("trial %d: totals diverge:\nwarm %+v\ncold %+v", trial, warmTot, coldTot)
				}
			}
		})
	}
}

// TestWarmReplanPressureClose drives the pressure-close path (ties that
// never advance the clock) with the retained tables on and nil.
func TestWarmReplanPressureClose(t *testing.T) {
	old := maxEpochArrivals
	maxEpochArrivals = 16
	defer func() { maxEpochArrivals = old }()
	times := make([]float64, 0, 100)
	for i := 0; i < 100; i++ {
		times = append(times, 0.3+float64(i/25)*0.05) // 4 bursts of 25 ties
	}
	for _, name := range []string{"offline", "offline-batched"} {
		warmSink, _, warmTot := runWarmCase(t, name, false, times, 1<<20, 1)
		coldSink, _, coldTot := runWarmCase(t, name, true, times, 1<<20, 1)
		if !reflect.DeepEqual(warmSink.events, coldSink.events) {
			t.Fatalf("%s: pressure-close event streams diverge", name)
		}
		warmTot.Replan, coldTot.Replan = ReplanStats{}, ReplanStats{}
		if warmTot != coldTot {
			t.Fatalf("%s: pressure-close totals diverge:\nwarm %+v\ncold %+v", name, warmTot, coldTot)
		}
	}
}

// TestWarmAbsorbsMidEpoch checks the tentpole actually engages: a long
// single epoch must absorb arrivals into the retained table before the
// close, so the close reports reused cells alongside the recomputed tail.
func TestWarmAbsorbsMidEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	times := warmTrace(rng, 400, 40)
	for _, name := range []string{"offline", "offline-batched"} {
		_, _, tot := runWarmCase(t, name, false, times, 1<<20, 41)
		if tot.Replan.WarmReplans == 0 {
			t.Fatalf("%s: no warm replans", name)
		}
		if tot.Replan.CellsReused == 0 {
			t.Fatalf("%s: close reused no cells — mid-epoch absorption never ran (stats %+v)", name, tot.Replan)
		}
		if tot.Replan.CellsRecomputed == 0 {
			t.Fatalf("%s: close recomputed no cells (stats %+v)", name, tot.Replan)
		}
	}
}

// TestWarmRefusalsMatchBatch drives the off-line closes that fail, with
// the retained tables and with them nil: epochs whose starts pass
// offline.DefaultMaxArrivals (arrivals two media lengths apart, a band of
// one cell each, so only the arrival cap refuses them), one arrival over
// and a fifth over, and epochs whose context is cancelled mid-epoch, with
// arrivals after the cancel and with every start already absorbed when
// it lands.  Each must fall back the same way: every sink event and every
// total equal, with one replan failure.  Mid-epoch absorption stops at
// the cap: the tables never hold more starts than it allows.
func TestWarmRefusalsMatchBatch(t *testing.T) {
	spaced := func(n int, gap float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = gap * float64(i)
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		times []float64
		// cancelAt is the number of admissions before the context is
		// cancelled (-1: never).
		cancelAt int
	}{
		{"one-over-arrival-cap", spaced(offline.DefaultMaxArrivals+1, 2), -1},
		{"far-over-arrival-cap", spaced(offline.DefaultMaxArrivals*6/5, 2), -1},
		{"cancelled-mid-epoch", spaced(100, 0.13), 40},
		{"cancelled-all-absorbed", spaced(warmAbsorbMin, 0.13), warmAbsorbMin},
	} {
		for _, name := range []string{"offline", "offline-batched"} {
			run := func(cold bool) (*recordSink, Totals) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				sink := &recordSink{}
				s, err := New(name, Config{Object: testObject(0.125), Sink: sink, Ctx: ctx})
				if err != nil {
					t.Fatal(err)
				}
				es := s.(*epochSched)
				if cold {
					es.warm = nil
				}
				for i, at := range tc.times {
					if i == tc.cancelAt {
						cancel()
					}
					s.Admit(at)
				}
				if tc.cancelAt == len(tc.times) {
					if w := es.warm; w != nil && (w.tab == nil || w.tab.N() != w.n) {
						t.Fatalf("%s/%s: the tables hold a prefix of the starts before the cancel", tc.name, name)
					}
					cancel()
				}
				if w := es.warm; w != nil && w.tab != nil && w.tab.N() > offline.DefaultMaxArrivals {
					t.Fatalf("%s/%s: the tables absorbed %d starts, over the %d-arrival cap",
						tc.name, name, w.tab.N(), offline.DefaultMaxArrivals)
				}
				s.Drain(tc.times[len(tc.times)-1] + 1)
				return sink, s.Totals()
			}
			warmSink, warmTot := run(false)
			coldSink, coldTot := run(true)
			if !reflect.DeepEqual(warmSink.events, coldSink.events) {
				t.Fatalf("%s/%s: sink event streams diverge (%d with tables vs %d without)",
					tc.name, name, len(warmSink.events), len(coldSink.events))
			}
			if warmTot != coldTot || warmTot.ReplanFailures != 1 {
				t.Fatalf("%s/%s: totals, want equal with one replan failure:\nwith tables %+v\nwithout     %+v",
					tc.name, name, warmTot, coldTot)
			}
		}
	}
}

// TestReplanLatencyMetering: an injected NowNanos clock meters replan
// wall time into the totals, and every strategy's ReplanNanos reads the
// same counter as its Totals; without a clock the counters stay zero.
func TestReplanLatencyMetering(t *testing.T) {
	var clock int64
	s, err := New("offline", Config{
		Object:     testObject(0.125),
		EpochSlots: 4,
		NowNanos:   func() int64 { clock += 7; return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Admit(0.05)
	s.Admit(0.07)
	s.Drain(1.0)
	tot := s.Totals()
	if tot.Replan.Replans != 1 {
		t.Fatalf("replans = %d, want 1", tot.Replan.Replans)
	}
	if tot.Replan.ReplanNanos != 7 || tot.Replan.MaxReplanNanos != 7 {
		t.Fatalf("metered nanos = %d/%d, want 7/7 (one close, +7 per clock read)",
			tot.Replan.ReplanNanos, tot.Replan.MaxReplanNanos)
	}

	for _, name := range Planners() {
		clock = 0
		s, err := New(name, Config{
			Object:     testObject(0.125),
			EpochSlots: 4,
			NowNanos:   func() int64 { clock += 7; return clock },
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []float64{0.05, 0.07, 0.6, 0.61, 1.3} {
			s.Admit(at)
			if got, want := s.ReplanNanos(), s.Totals().Replan.ReplanNanos; got != want {
				t.Fatalf("%s: ReplanNanos() = %d after an admission at %g, Totals reads %d", name, got, at, want)
			}
		}
		s.Drain(2.0)
		if got, want := s.ReplanNanos(), s.Totals().Replan.ReplanNanos; got != want || (got == 0) != (name == "online") {
			t.Fatalf("%s: ReplanNanos() = %d after the drain, Totals reads %d (0 only for online)", name, got, want)
		}
	}

	unmetered, err := New("offline", Config{Object: testObject(0.125), EpochSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	unmetered.Admit(0.05)
	unmetered.Drain(1.0)
	if rp := unmetered.Totals().Replan; rp.ReplanNanos != 0 || rp.MaxReplanNanos != 0 {
		t.Fatalf("clockless run metered nanos: %+v", rp)
	}
}

// TestReplanStatsAccumulate pins the fold: sums everywhere except
// MaxReplanNanos, which takes the maximum.
func TestReplanStatsAccumulate(t *testing.T) {
	a := Totals{Replan: ReplanStats{Replans: 2, WarmReplans: 1, CellsReused: 10, CellsRecomputed: 5, ReplanNanos: 100, MaxReplanNanos: 80}}
	b := Totals{Replan: ReplanStats{Replans: 3, WarmReplans: 3, CellsReused: 7, CellsRecomputed: 2, ReplanNanos: 50, MaxReplanNanos: 40}}
	a.Accumulate(b)
	want := ReplanStats{Replans: 5, WarmReplans: 4, CellsReused: 17, CellsRecomputed: 7, ReplanNanos: 150, MaxReplanNanos: 80}
	if a.Replan != want {
		t.Fatalf("accumulated replan stats = %+v, want %+v", a.Replan, want)
	}
}

// TestWarmStreamsMatchTreeWalk pins the warm close's plan, walked off the
// split table, against appendForestStreams over the forest SolveForest
// builds: the same streams in the same order, bit for bit, and the same
// cost, on flash-density, calm and tie-collapsed traces, from a fresh
// table and from one table Reset between the traces.  Order matters:
// the shard sums busy time in finalization order.
func TestWarmStreamsMatchTreeWalk(t *testing.T) {
	const L, delay = 1.0, 0.02
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	poisson := func(n int, perWindow float64) []float64 {
		out, at := make([]float64, n), 0.0
		for i := range out {
			at += rng.ExpFloat64() / perWindow
			out[i] = at
		}
		return out
	}
	// Ties collapsed the way tablesWarm.observe collapses them: raw times
	// for offline, slot ends for offline-batched.
	var tied, slotEnds []float64
	for _, at := range warmTrace(rng, 3000, 10) {
		tied = offline.AppendDistinct(tied, at)
		slotEnds = offline.AppendDistinct(slotEnds, float64(int64(math.Floor(at/delay))+1)*delay)
	}
	reused, err := offline.ComputeTables(ctx, nil, offline.ReceiveTwo, L, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		times []float64
	}{
		{"flash", poisson(4400, 880)},
		{"calm", poisson(1100, 220)},
		{"tie-collapsed", tied},
		{"slot-ends", slotEnds},
	} {
		fresh, err := offline.ComputeTables(ctx, tc.times, offline.ReceiveTwo, L, 1)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fresh.SolveForest(L)
		if err != nil {
			t.Fatal(err)
		}
		want := appendForestStreams(nil, f.Forest)
		reused.Reset()
		if err := reused.Extend(ctx, tc.times, 1); err != nil {
			t.Fatal(err)
		}
		for _, tab := range []*offline.Tables{fresh, reused} {
			var got []Stream
			cost, err := tab.ForestStreams(L, func(start, length float64) {
				got = append(got, Stream{Start: start, Length: length})
			})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(cost) != math.Float64bits(f.Cost) {
				t.Fatalf("%s: cost %v, want %v", tc.name, cost, f.Cost)
			}
			if len(got) != len(want) || len(got) != len(tc.times) {
				t.Fatalf("%s: %d streams, want %d over %d arrivals", tc.name, len(got), len(want), len(tc.times))
			}
			for k := range want {
				if math.Float64bits(got[k].Start) != math.Float64bits(want[k].Start) ||
					math.Float64bits(got[k].Length) != math.Float64bits(want[k].Length) {
					t.Fatalf("%s: stream %d = %+v, want %+v", tc.name, k, got[k], want[k])
				}
			}
		}
	}
}

// TestWarmCountsMatchCheckSize pins the running size counts observe keeps
// against the rescan they replace: after every arrival, the start count
// and band-cell count equal len and offline.BandCells of the starts so
// far (ties collapsed as observe collapses them), and the tables plus the
// tail hold exactly those starts, each once.  The traces mix ties,
// same-slot clusters, dense stretches whose window band is wide and
// sparse ones where it holds one cell.
func TestWarmCountsMatchCheckSize(t *testing.T) {
	const L, delay = 1.0, 0.02
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		trace := warmTrace(rng, 200+rng.Intn(2000), []float64{2, 20, 200}[trial%3])
		for _, batched := range []bool{false, true} {
			w := &tablesWarm{p: &PlanParams{MediaLength: L, Delay: delay, Ctx: context.Background()}, batched: batched}
			var starts []float64
			for i, at := range trace {
				w.observe(at)
				if batched {
					at = float64(int64(math.Floor(at/delay))+1) * delay
				}
				starts = offline.AppendDistinct(starts, at)
				if w.n != len(starts) || w.cells != offline.BandCells(starts, L) {
					t.Fatalf("trial %d batched=%v arrival %d: counts %d/%d, want %d/%d",
						trial, batched, i, w.n, w.cells, len(starts), offline.BandCells(starts, L))
				}
			}
			held := append([]float64(nil), w.tail...)
			if w.tab != nil {
				held = held[:0]
				for i := 0; i < w.tab.N(); i++ {
					held = append(held, w.tab.Time(i))
				}
				held = append(held, w.tail...)
			}
			if !reflect.DeepEqual(held, starts) {
				t.Fatalf("trial %d batched=%v: tables and tail hold %d starts, want the %d observed", trial, batched, len(held), len(starts))
			}
			if w.tab == nil || len(w.tail) > warmAbsorbMin+w.n/8 {
				t.Fatalf("trial %d batched=%v: %d of %d starts pending, want at most %d", trial, batched, len(w.tail), w.n, warmAbsorbMin+w.n/8)
			}
		}
	}
}
