package live

// White-box tests of the incremental scheduler core: registry shape,
// epoch splicing (a multi-epoch live run equals the sum of per-epoch
// batch plans), the online adapter's oblivious accounting, and the
// never-fail replan fallback.

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/multiobject"
)

func testObject(delay float64) multiobject.Object {
	return multiobject.Object{Name: "x", Length: 1, Popularity: 1, Delay: delay}
}

func TestPlannersCapabilityList(t *testing.T) {
	want := []string{"batching", "dyadic", "dyadic-batched", "hybrid", "offline", "offline-batched", "online", "unicast"}
	if got := Planners(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Planners() = %v, want %v", got, want)
	}
	if _, err := New("nope", Config{Object: testObject(0.1)}); !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("unknown strategy error = %v", err)
	}
}

// countSink tallies stream events.
type countSink struct {
	started, provisional, finalized, trimmed int
	busy                                     float64
}

func (c *countSink) StreamStarted(float64)      { c.started++ }
func (c *countSink) ProvisionalStarted(float64) { c.provisional++ }
func (c *countSink) StreamFinalized(_, length float64) {
	c.finalized++
	c.busy += length
}
func (c *countSink) StreamTrimmed(_, _ float64) { c.trimmed++ }

// TestEpochSplicing pins the boundary-isolation property: a live run with
// epochs of E slots, drained at a multiple of E, reports exactly the sum
// of the per-epoch batch plans (merging never crosses a boundary), for
// every epoch-based strategy.
func TestEpochSplicing(t *testing.T) {
	const (
		delay      = 0.125
		epochSlots = 8 // epoch length 1.0
		horizon    = 3.0
	)
	obj := testObject(delay)
	times := []float64{0.05, 0.1, 0.3, 0.9, 1.0, 1.45, 1.5, 2.25, 2.3, 2.9}
	for _, st := range epochStrategies {
		st := st
		t.Run(st.name, func(t *testing.T) {
			sink := &countSink{}
			sched, err := New(st.name, Config{Object: obj, EpochSlots: epochSlots, Sink: sink})
			if err != nil {
				t.Fatal(err)
			}
			for _, at := range times {
				sched.Admit(at)
			}
			end := sched.Drain(horizon)
			if end != horizon {
				t.Errorf("Drain end = %g, want %g (exact multiple of the epoch)", end, horizon)
			}
			tot := sched.Totals()

			var wantStreams int64
			var wantCost float64
			for k := 0.0; k < horizon; k++ {
				var epochTimes []float64
				for _, at := range times {
					if at >= k && at < k+1 {
						epochTimes = append(epochTimes, at-k)
					}
				}
				streams, cost, err := BatchReference(st.name, epochTimes, 1.0, obj, false)
				if err != nil {
					t.Fatal(err)
				}
				wantStreams += streams
				wantCost += cost
			}
			if tot.Streams != wantStreams {
				t.Errorf("streams = %d, want %d (sum of per-epoch plans)", tot.Streams, wantStreams)
			}
			if tot.Cost != wantCost {
				t.Errorf("cost = %g, want %g (sum of per-epoch plans)", tot.Cost, wantCost)
			}
			if tot.FinalizedStreams != tot.Streams {
				t.Errorf("finalized %d of %d streams", tot.FinalizedStreams, tot.Streams)
			}
			if int64(sink.started) != tot.Streams || int64(sink.finalized) != tot.Streams {
				t.Errorf("sink saw %d started / %d finalized, want %d", sink.started, sink.finalized, tot.Streams)
			}
			if tot.ReplanFailures != 0 {
				t.Errorf("%d replan fallbacks", tot.ReplanFailures)
			}
		})
	}
}

// TestOnlineSchedObliviousDrain: with no arrivals at all, the online
// scheduler still transmits the full oblivious plan for the horizon.
func TestOnlineSchedObliviousDrain(t *testing.T) {
	sink := &countSink{}
	sched, err := New("online", Config{Object: testObject(0.125), Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	end := sched.Drain(1.0)
	if end != 1.0 {
		t.Fatalf("Drain end = %g, want 1.0", end)
	}
	tot := sched.Totals()
	if tot.Streams != 8 || tot.FinalizedStreams != 8 {
		t.Fatalf("streams = %d/%d, want 8 oblivious slot streams", tot.Streams, tot.FinalizedStreams)
	}
	if tot.Clients != 0 {
		t.Errorf("clients = %d, want 0", tot.Clients)
	}
	if tot.Cost != float64(tot.SlotUnits)/8 {
		t.Errorf("cost %g inconsistent with %d slot units", tot.Cost, tot.SlotUnits)
	}
	if math.Abs(sink.busy-float64(tot.SlotUnits)*0.125) > 1e-12 {
		t.Errorf("sink busy %g != slot units %d * delay", sink.busy, tot.SlotUnits)
	}
}

// TestReplanFallback: a failing batch planner must not break the serving
// path — the epoch falls back to unicast streams and counts the failure.
func TestReplanFallback(t *testing.T) {
	boom := epochStrategy{name: "boom", replan: func([]float64, float64, PlanParams) (PlanOutcome, error) {
		return PlanOutcome{}, errors.New("synthetic failure")
	}}
	cfg, err := Config{Object: testObject(0.1), Sink: &countSink{}}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s := newEpochSched(boom, cfg)
	s.Admit(0.05)
	s.Admit(0.3)
	s.Drain(1)
	tot := s.Totals()
	if tot.ReplanFailures != 1 {
		t.Fatalf("replan failures = %d, want 1", tot.ReplanFailures)
	}
	if tot.Streams != 2 || tot.Cost != 2 {
		t.Fatalf("fallback totals = %+v, want 2 unicast streams costing 2", tot)
	}
}

// TestAdmissionDisciplines pins the service terms per family: batched
// strategies start playback at the slot end, immediate ones at the
// arrival, and client counting follows the discipline.
func TestAdmissionDisciplines(t *testing.T) {
	obj := testObject(0.25)
	mk := func(name string) Incremental {
		s, err := New(name, Config{Object: obj})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	batched := mk("batching")
	if adm := batched.Admit(0.3); adm.Slot != 1 || adm.StartAt != 0.5 {
		t.Errorf("batched admit(0.3) = %+v, want slot 1 starting at 0.5", adm)
	}
	batched.Admit(0.4) // same slot: not a new client
	if tot := batched.Totals(); tot.Clients != 1 {
		t.Errorf("batched clients = %d, want 1 (same slot)", tot.Clients)
	}

	imm := mk("dyadic")
	if adm := imm.Admit(0.3); adm.StartAt != 0.3 {
		t.Errorf("immediate admit(0.3) starts at %g, want 0.3", adm.StartAt)
	}
	imm.Admit(0.3) // tie: shares the stream
	if tot := imm.Totals(); tot.Clients != 1 {
		t.Errorf("immediate clients = %d, want 1 (tied arrivals share)", tot.Clients)
	}

	uni := mk("unicast")
	uni.Admit(0.3)
	uni.Admit(0.3) // ties still get private streams
	if tot := uni.Totals(); tot.Clients != 2 {
		t.Errorf("unicast clients = %d, want 2", tot.Clients)
	}

	onl := mk("online")
	if adm := onl.Admit(0.3); adm.Slot != 1 || adm.StartAt != 0.5 || len(adm.Program) == 0 {
		t.Errorf("online admit(0.3) = %+v, want slot 1 at 0.5 with a program", adm)
	}
}

// TestEpochSlotMonotone pins the ticket contract across replanning
// epochs: a batched strategy's Admission slots keep counting through
// epoch rolls (slot = epoch*EpochSlots + relative slot), so (delay-epoch,
// Slot) never repeats for distinct service slots.
func TestEpochSlotMonotone(t *testing.T) {
	s, err := New("batching", Config{Object: testObject(0.25), EpochSlots: 4}) // epoch length 1.0
	if err != nil {
		t.Fatal(err)
	}
	first := s.Admit(0.3)
	second := s.Admit(1.3) // next replanning epoch, same relative slot
	if first.Slot != 1 || first.StartAt != 0.5 {
		t.Errorf("admit(0.3) = %+v, want slot 1 at 0.5", first)
	}
	if second.Slot != 5 || second.StartAt != 1.5 {
		t.Errorf("admit(1.3) = %+v, want slot 5 (epoch 1 * 4 slots + 1) at 1.5", second)
	}
}

// TestEpochPressureClose: a flood of same-timestamp arrivals (which never
// advances the clock, so the epoch would never roll) is bounded by the
// pressure close — the epoch is planned and re-based early instead of
// collecting arrivals without limit, and slots stay monotone across it.
func TestEpochPressureClose(t *testing.T) {
	old := maxEpochArrivals
	maxEpochArrivals = 8
	defer func() { maxEpochArrivals = old }()
	s, err := New("unicast", Config{Object: testObject(0.25), EpochSlots: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Admit(0.3) // clock never moves
	}
	if got := s.Totals().Streams; got != 16 {
		t.Errorf("streams after pressure closes = %d, want 16 (two closed epochs of 8)", got)
	}
	s.Drain(1)
	tot := s.Totals()
	if tot.Streams != 20 || tot.Cost != 20 || tot.ReplanFailures != 0 {
		t.Errorf("drained totals = %+v, want 20 unicast streams costing 20", tot)
	}

	// The batched variant keeps slots monotone across a pressure re-base.
	b, err := New("batching", Config{Object: testObject(0.25), EpochSlots: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var last int64 = -1
	for i := 0; i < 20; i++ {
		adm := b.Admit(float64(i) * 0.13)
		if adm.Slot < last {
			t.Fatalf("admit %d: slot %d regressed below %d across a pressure close", i, adm.Slot, last)
		}
		last = adm.Slot
	}
}

// TestCloseAfterSlotBoundaryArrival pins where a close after an arrival
// on a float slot boundary ends.  At delay 0.02, floor(0.58/0.02) puts
// 0.58 in slot 28, but that slot's end, 29·0.02, computes to 0.58 itself,
// and every replanner clips arrivals at or after its horizon: a close
// there would leave an admitted client no stream serves.  The drain and
// the pressure close must both end past the arrival and plan it, for
// every epoch strategy.
func TestCloseAfterSlotBoundaryArrival(t *testing.T) {
	delay, at := 0.02, 29*0.02
	if end := (math.Floor(at/delay) + 1) * delay; end != at {
		t.Fatalf("the end of %v's slot is %v: the case no longer rounds onto the arrival", at, end)
	}
	old := maxEpochArrivals
	defer func() { maxEpochArrivals = old }()
	for _, st := range epochStrategies {
		for _, kind := range []string{"drain", "pressure"} {
			t.Run(st.name+"/"+kind, func(t *testing.T) {
				maxEpochArrivals = old
				if kind == "pressure" {
					maxEpochArrivals = 1
				}
				s, err := New(st.name, Config{Object: testObject(delay)})
				if err != nil {
					t.Fatal(err)
				}
				s.Admit(at)
				end := s.Frontier()
				if kind == "drain" {
					end = s.Drain(0.5)
				}
				tot := s.Totals()
				if end <= at || tot.Clients != 1 || tot.Streams == 0 || tot.Cost <= 0 {
					t.Fatalf("close at %v after an arrival at %v: %d clients, %d streams, cost %v; want the client planned",
						end, at, tot.Clients, tot.Streams, tot.Cost)
				}
			})
		}
	}
}

// TestProvisionalGaugePlaceholders: every distinct client of an
// epoch-replanned strategy occupies one provisional gauge channel
// immediately at admission (the unicast upper bound), and the epoch
// close retires whatever is still outstanding — so a channel cap can
// throttle epoch strategies mid-epoch.
func TestProvisionalGaugePlaceholders(t *testing.T) {
	sink := &countSink{}
	s, err := New("dyadic-batched", Config{Object: testObject(0.125), EpochSlots: 1 << 20, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	s.Admit(0.05)
	s.Admit(0.07) // same slot: no new placeholder
	s.Admit(0.30)
	if sink.provisional != 2 {
		t.Fatalf("provisional placeholders = %d, want 2 (one per occupied slot)", sink.provisional)
	}
	if sink.started != 0 {
		t.Fatalf("real streams started before epoch close: %d", sink.started)
	}
	s.Drain(1.0)
	// Both placeholders end after the close (start + media length > 1.0),
	// so both are trimmed and replaced by the real plan's streams.
	if sink.trimmed != 2 {
		t.Errorf("trimmed placeholders = %d, want 2", sink.trimmed)
	}
	if tot := s.Totals(); int64(sink.started) != tot.Streams {
		t.Errorf("real streams started %d != totals %d", sink.started, tot.Streams)
	}
}
