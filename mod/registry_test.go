package mod_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/mod"
)

// TestRegistryStable is the registry-stability golden test: the built-in
// planner names are public API and may only ever grow.  If this test
// fails, a planner was renamed or removed — that is a breaking change;
// update the golden list only for additions.
func TestRegistryStable(t *testing.T) {
	golden := []string{
		"batching",
		"dyadic",
		"dyadic-batched",
		"hybrid",
		"offline",
		"offline-batched",
		"online",
		"unicast",
	}
	got := mod.Planners()
	if !reflect.DeepEqual(got, golden) {
		t.Fatalf("registered planners = %v, want the golden list %v", got, golden)
	}
	for _, name := range golden {
		p, err := mod.New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
}

func TestNewUnknownPlanner(t *testing.T) {
	_, err := mod.New("no-such-planner")
	if !errors.Is(err, mod.ErrUnknownPlanner) {
		t.Fatalf("New(no-such-planner) error = %v, want ErrUnknownPlanner", err)
	}
}
