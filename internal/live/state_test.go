package live

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/multiobject"
	"repro/internal/store"
)

// stateTestTrace is a deterministic arrival trace with duplicates,
// bursts, and quiet stretches, long enough to cross several epoch
// boundaries at EpochSlots=4 (epoch length 0.5 for delay 0.125).
var stateTestTrace = []float64{
	0.01, 0.01, 0.05, 0.13, 0.13, 0.13, 0.27, 0.44,
	0.61, 0.62, 0.90, 1.15, 1.15, 1.33, 1.71, 2.02,
	2.02, 2.02, 2.48, 2.90, 3.33, 3.34, 4.10, 4.97,
}

func stateTestConfig() Config {
	return Config{
		Object:     multiobject.Object{Name: "o", Length: 1, Delay: 0.125},
		EpochSlots: 4,
	}
}

// roundTrip encodes sched into a blob and decodes it as the named
// strategy's scheduler under cfg, the pair the serving layer's snapshots
// run, and requires the decode to consume the whole section.
func roundTrip(sched Incremental, name string, cfg Config) (Incremental, error) {
	e := store.NewEncoder()
	sched.Encode(e)
	d, err := store.NewDecoder(e.Finish())
	if err != nil {
		return nil, err
	}
	restored, err := Decode(name, cfg, d)
	if err != nil {
		return nil, err
	}
	return restored, d.Done()
}

// TestExportRestoreEquivalence is the live-layer half of crash-recovery
// equivalence: for every strategy and every cut point, a scheduler
// decoded from its Encode continues bit-identically to the uninterrupted
// original — same tail admissions, same drain end, same Totals.
func TestExportRestoreEquivalence(t *testing.T) {
	const horizon = 6.0
	for _, name := range Planners() {
		t.Run(name, func(t *testing.T) {
			for cut := 0; cut <= len(stateTestTrace); cut += 3 {
				ref, err := New(name, stateTestConfig())
				if err != nil {
					t.Fatalf("New(%q): %v", name, err)
				}
				subject, err := New(name, stateTestConfig())
				if err != nil {
					t.Fatalf("New(%q): %v", name, err)
				}
				for _, at := range stateTestTrace[:cut] {
					ref.Admit(at)
					subject.Admit(at)
				}
				restored, err := roundTrip(subject, name, stateTestConfig())
				if err != nil {
					t.Fatalf("cut=%d: Encode/Decode: %v", cut, err)
				}
				if restored.Strategy() != name {
					t.Fatalf("cut=%d: decoded strategy %q, want %q", cut, restored.Strategy(), name)
				}
				for i, at := range stateTestTrace[cut:] {
					want := ref.Admit(at)
					got := restored.Admit(at)
					// Program is a scheduler-owned buffer; compare the values.
					if want.Slot != got.Slot || want.Delay != got.Delay || want.StartAt != got.StartAt ||
						!reflect.DeepEqual(want.Program, got.Program) {
						t.Fatalf("cut=%d: tail admission %d diverged:\n got %+v\nwant %+v", cut, i, got, want)
					}
				}
				wantEnd := ref.Drain(horizon)
				gotEnd := restored.Drain(horizon)
				if math.Float64bits(wantEnd) != math.Float64bits(gotEnd) {
					t.Fatalf("cut=%d: drain end %v, want %v", cut, gotEnd, wantEnd)
				}
				if got, want := restored.Totals(), ref.Totals(); !reflect.DeepEqual(got, want) {
					t.Fatalf("cut=%d: totals diverged:\n got %+v\nwant %+v", cut, got, want)
				}
			}
		})
	}
}

// countingSink counts every event kind.
type countingSink struct{ started, provisional, finalized, trimmed int }

func (c *countingSink) StreamStarted(float64)            { c.started++ }
func (c *countingSink) ProvisionalStarted(float64)       { c.provisional++ }
func (c *countingSink) StreamFinalized(float64, float64) { c.finalized++ }
func (c *countingSink) StreamTrimmed(float64, float64)   { c.trimmed++ }

// TestRestoreFiresNoSinkEvents: the serving layer restores its gauge and
// bandwidth accounting from its own snapshot sections, so Decode must
// not replay stream history into the Sink.
func TestRestoreFiresNoSinkEvents(t *testing.T) {
	for _, name := range Planners() {
		t.Run(name, func(t *testing.T) {
			src, err := New(name, stateTestConfig())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for _, at := range stateTestTrace {
				src.Admit(at)
			}
			sink := &countingSink{}
			cfg := stateTestConfig()
			cfg.Sink = sink
			if _, err := roundTrip(src, name, cfg); err != nil {
				t.Fatalf("Encode/Decode: %v", err)
			}
			if *sink != (countingSink{}) {
				t.Fatalf("Decode fired sink events: %+v", *sink)
			}
		})
	}
}

func TestRestoreRejectsMismatchedState(t *testing.T) {
	onl, err := New("online", stateTestConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Online state into an epoch strategy.
	if _, err := roundTrip(onl, "dyadic", stateTestConfig()); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Decode online state into dyadic = %v, want ErrBadConfig", err)
	}
	// Unknown strategy name.
	if _, err := roundTrip(onl, "no-such", stateTestConfig()); !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("Decode unknown strategy = %v, want ErrUnknownStrategy", err)
	}
	// Epoch state into the online strategy.
	dy, err := New("dyadic", stateTestConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := roundTrip(dy, "online", stateTestConfig()); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Decode epoch state into online = %v, want ErrBadConfig", err)
	}
}
