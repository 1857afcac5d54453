package mod_test

import (
	"errors"
	"testing"

	"repro/mod"
)

// TestFacadeDurableWarmRestart drives the whole durability surface through
// the facade: a file store handed to the server with OwnStore, a forced
// Snapshot, a restart with Restore, and ticket-ID continuity across the
// two lives.
func TestFacadeDurableWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cat := mod.ZipfCatalog(4, 1.0, 0.05, 1.0)
	reqs, err := mod.GenerateRequests(cat, mod.LoadConfig{
		Horizon: 3, MeanInterArrival: 0.1, Kind: mod.PoissonArrivals, Seed: 3,
	})
	if err != nil {
		t.Fatalf("GenerateRequests: %v", err)
	}
	cut := len(reqs) / 2
	durable := func(restore bool) mod.ServeConfig {
		t.Helper()
		fs, err := mod.NewFileStore(dir)
		if err != nil {
			t.Fatalf("NewFileStore: %v", err)
		}
		return mod.ServeConfig{Catalog: cat, Shards: 2, Store: fs, OwnStore: true, Restore: restore}
	}

	s1, err := mod.NewServer(durable(false))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	seen := make(map[int64]bool)
	for _, req := range reqs[:cut] {
		tk, err := s1.Submit(req)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if tk.ID == 0 || seen[tk.ID] {
			t.Fatalf("bad or duplicate ticket ID %d", tk.ID)
		}
		seen[tk.ID] = true
	}
	if err := s1.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s1.Close()

	s2, err := mod.NewServer(durable(true))
	if err != nil {
		t.Fatalf("NewServer(restore): %v", err)
	}
	defer s2.Close()
	for _, req := range reqs[cut:] {
		tk, err := s2.Submit(req)
		if err != nil {
			t.Fatalf("Submit after restore: %v", err)
		}
		if tk.ID == 0 || seen[tk.ID] {
			t.Fatalf("ticket ID %d reissued after warm restart", tk.ID)
		}
		seen[tk.ID] = true
	}
	st, err := s2.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if got := st.Admitted + st.Degraded + st.Rejected; got != int64(len(reqs)) {
		t.Fatalf("restored server accounts %d requests, want %d", got, len(reqs))
	}
}

// TestFacadeMemStoreAndCorruption covers a caller-owned in-memory store
// and the re-exported corruption sentinel.
func TestFacadeMemStoreAndCorruption(t *testing.T) {
	cat := mod.ZipfCatalog(3, 1.0, 0.05, 1.0)
	mem := mod.NewMemStore()
	s, err := mod.NewServer(mod.ServeConfig{Catalog: cat, Store: mem})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Submit(mod.Request{Object: cat[0].Name, T: float64(i) * 0.1}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s.Close()

	mem.Corrupt(0, 9)
	if _, err := mod.NewServer(mod.ServeConfig{Catalog: cat, Store: mem, Restore: true}); !errors.Is(err, mod.ErrCorruptSnapshot) {
		t.Fatalf("restore from corrupted store = %v, want ErrCorruptSnapshot", err)
	}
}
