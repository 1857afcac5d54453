package live

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/multiobject"
)

// frontierSink checks the Frontier contract on every finalized stream:
// it must not start before the frontier read just before the scheduler
// call that emitted it.
type frontierSink struct {
	t     *testing.T
	op    string
	bound float64
	seen  int
}

func (f *frontierSink) StreamStarted(float64)          {}
func (f *frontierSink) ProvisionalStarted(float64)     {}
func (f *frontierSink) StreamTrimmed(float64, float64) {}
func (f *frontierSink) StreamFinalized(start, _ float64) {
	f.seen++
	if start < f.bound {
		f.t.Fatalf("%s finalized a stream starting at %v, before the frontier %v read before the call", f.op, start, f.bound)
	}
}

// TestFrontierContract drives every registered strategy over random
// monotone traces — clock jumps, bursts of ties that force pressure
// closes, explicit Advance calls, Encode/Decode cuts — and a final
// Drain.  Before each call it reads Frontier(): the value must never move
// backwards, must survive a restore unchanged, must bound every stream
// the call finalizes, and after the Drain must reach the drained end.
func TestFrontierContract(t *testing.T) {
	old := maxEpochArrivals
	maxEpochArrivals = 12
	defer func() { maxEpochArrivals = old }()
	for _, name := range Planners() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			finalized := 0
			for trial := 0; trial < 25; trial++ {
				sink := &frontierSink{t: t}
				cfg := Config{
					Object:     multiobject.Object{Name: "o", Length: 1, Delay: []float64{0.0625, 0.125, 0.25}[rng.Intn(3)]},
					Base:       float64(rng.Intn(4)) * 0.3,
					EpochSlots: []int{0, 3, 8, 32}[rng.Intn(4)],
					Sink:       sink,
				}
				sched, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				last := sched.Frontier()
				call := func(op string, f func()) {
					w := sched.Frontier()
					if w < last {
						t.Fatalf("trial %d: frontier moved backwards from %v to %v before %s", trial, last, w, op)
					}
					last = w
					sink.op, sink.bound = fmt.Sprintf("trial %d: %s", trial, op), w
					f()
				}
				now := cfg.Base
				for i, n := 0, 50+rng.Intn(150); i < n; i++ {
					switch r := rng.Intn(20); {
					case r < 2:
						// A burst of ties at one instant.
						for k := rng.Intn(20); k > 0; k-- {
							call("Admit", func() { sched.Admit(now) })
						}
					case r < 4:
						now += rng.Float64() * 2
						call("Advance", func() { sched.Advance(now) })
					case r < 5:
						before := sched.Frontier()
						var err error
						if sched, err = roundTrip(sched, name, cfg); err != nil {
							t.Fatal(err)
						}
						if w := sched.Frontier(); w != before {
							t.Fatalf("trial %d: restored frontier %v, encoded scheduler's was %v", trial, w, before)
						}
					default:
						now += rng.ExpFloat64() * 0.05
					}
					call("Admit", func() { sched.Admit(now) })
				}
				var end float64
				call("Drain", func() { end = sched.Drain(now + rng.Float64()) })
				if w := sched.Frontier(); w != end {
					t.Fatalf("trial %d: frontier after Drain is %v, want the drained end %v", trial, w, end)
				}
				finalized += sink.seen
			}
			if finalized == 0 {
				t.Fatal("no stream was finalized: the contract was never exercised")
			}
		})
	}
}
