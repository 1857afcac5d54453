package live

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/multiobject"
	"repro/internal/store"
)

// events is the number of Sink calls c has tallied.
func (c *countSink) events() int {
	return c.started + c.provisional + c.finalized + c.trimmed
}

func encoded(sched Incremental) []byte {
	e := store.NewEncoder()
	sched.Encode(e)
	return e.Finish()
}

// TestDueIsConservative drives every strategy over random monotone traces
// (ties that force pressure closes, clock jumps, restores) and, before
// each call, probes Due: Advance at the last time before it, and at a
// random time between the clock and it, must fire no Sink event and
// leave Encode's bytes unchanged.  It must also be exact, so the serving
// shard's due heap never pops an object for nothing: Advance at Due
// itself changes the bytes, and after Admit(t) or Advance(t) Due lies
// after t.
func TestDueIsConservative(t *testing.T) {
	old := maxEpochArrivals
	maxEpochArrivals = 12
	defer func() { maxEpochArrivals = old }()
	for _, name := range Planners() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)) + 99))
			probes, acted := 0, 0
			for trial := 0; trial < 20; trial++ {
				sink := &countSink{}
				cfg := Config{
					Object:     multiobject.Object{Name: "o", Length: 1, Delay: []float64{0.02, 0.0625, 0.1, 0.3}[rng.Intn(4)]},
					Base:       float64(rng.Intn(4)) * 0.37,
					EpochSlots: []int{0, 3, 8, 512}[rng.Intn(4)],
					Sink:       sink,
				}
				sched, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				now := 0.0
				probe := func(at float64) {
					due := sched.Due()
					if at < now || at >= due {
						return
					}
					before, n := encoded(sched), sink.events()
					sched.Advance(at)
					if sink.events() != n || !bytes.Equal(encoded(sched), before) {
						t.Fatalf("trial %d: Advance(%v) before Due %v acted (%d sink events)", trial, at, due, sink.events()-n)
					}
					now = at
					probes++
				}
				check := func(op string, at float64) {
					if due := sched.Due(); due <= at {
						t.Fatalf("trial %d: after %s(%v) Due is %v", trial, op, at, due)
					}
				}
				for i, n := 0, 40+rng.Intn(120); i < n; i++ {
					due := sched.Due()
					if !math.IsInf(due, 1) {
						probe(now + rng.Float64()*(due-now))
						probe(math.Nextafter(due, math.Inf(-1)))
					}
					switch r := rng.Intn(10); {
					case r < 2 && !math.IsInf(due, 1):
						// Advance exactly to Due: it must act.
						before := encoded(sched)
						sched.Advance(due)
						if bytes.Equal(encoded(sched), before) {
							t.Fatalf("trial %d: Advance at Due %v changed nothing", trial, due)
						}
						acted++
						now = due
						check("Advance", due)
					case r < 3:
						now += rng.Float64() * 3
						sched.Advance(now)
						check("Advance", now)
					case r < 4:
						if sched, err = roundTrip(sched, name, cfg); err != nil {
							t.Fatal(err)
						}
						if got := sched.Due(); got != due {
							t.Fatalf("trial %d: restored Due %v, encoded scheduler's was %v", trial, got, due)
						}
					default:
						if rng.Intn(4) > 0 {
							now += rng.ExpFloat64() * 0.05
						}
						sched.Admit(now)
						check("Admit", now)
					}
				}
			}
			if probes == 0 || (name == "online" && acted == 0) {
				t.Fatalf("%d probes, %d Advance calls at Due: the property was never exercised", probes, acted)
			}
		})
	}
}
