package serve

// Tests of bounded server state: a shard keeps a finalized interval only
// until the peak fold has consumed it and the durable settle point has
// passed its end, so heap and snapshots stop growing with the number of
// requests served.

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/multiobject"
	"repro/internal/store"
)

// TestServerStateBounded serves 10^6 requests with no reads, so only the
// settler folds.  It samples the live heap every 10^5 requests and each
// shard's latest snapshot every 10^4.  The largest values over the last
// 2·10^5 requests must not exceed the largest over requests 10^5–3·10^5
// by more than 10%.  Keeping every finalized interval grows both by
// about 50 bytes per request.
//
// Every 5000 requests, about twice per snapshot cadence, the test waits
// for the settler to finish a run that started after them.  Left alone
// on a loaded machine, a settler starved of CPU for a whole cadence lets
// one snapshot hold two cadences' worth of intervals: bounded, but enough
// to fail the 10% comparison.
func TestServerStateBounded(t *testing.T) {
	const total, heapEvery, snapEvery, step, shards = 1000000, 100000, 10000, 5000, 2
	cat := multiobject.ZipfCatalog(64, 1, 0.02, 1)
	reqs := zipfHistory(t, cat, total)
	mem := store.NewMem()
	s, err := New(Config{Catalog: cat, Shards: shards, DefaultStrategy: "online", Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// early and late hold the largest values over requests 1e5-3e5 and
	// over the last 2e5: the heap, then each shard's snapshot.
	var early, late [1 + shards]int
	for n := step; n <= total; n += step {
		submitChunked(t, s, reqs[n-step:n])
		settlerCatchUp(t, s)
		if n%snapEvery != 0 {
			continue
		}
		var x [1 + shards]int
		for i := 0; i < shards; i++ {
			blob, err := mem.LoadSnapshot(i)
			if err != nil {
				t.Fatal(err)
			}
			x[1+i] = len(blob)
		}
		if n%heapEvery == 0 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			x[0] = int(ms.HeapAlloc)
			t.Logf("after %7d requests: heap %6.1f MiB, snapshots %v bytes", n, float64(x[0])/(1<<20), x[1:])
		}
		for i := range x {
			if n >= heapEvery && n <= 3*heapEvery {
				early[i] = max(early[i], x[i])
			}
			if n > total-2*heapEvery {
				late[i] = max(late[i], x[i])
			}
		}
	}
	t.Logf("largest over requests 1e5-3e5: heap %d, snapshots %v; over the last 2e5: heap %d, snapshots %v",
		early[0], early[1:], late[0], late[1:])
	if float64(late[0]) > 1.1*float64(early[0]) {
		t.Errorf("live heap grew from %d bytes (requests 1e5-3e5) to %d (last 2e5)", early[0], late[0])
	}
	for i := 1; i <= shards; i++ {
		if float64(late[i]) > 1.1*float64(early[i]) {
			t.Errorf("shard %d snapshot grew from %d bytes (requests 1e5-3e5) to %d (last 2e5)", i-1, early[i], late[i])
		}
	}
}

// settlerCatchUp waits until the settler has completed a run that
// started after everything submitted so far.  It hands the settler three
// wake-ups through its one-slot channel: the third send goes through
// only once the run the first one started has ended.
func settlerCatchUp(t testing.TB, s *Server) {
	t.Helper()
	for i := 0; i < 3; i++ {
		select {
		case s.settle <- struct{}{}:
		case <-time.After(10 * time.Second):
			t.Fatal("the settler stopped taking wake-ups")
		}
	}
}

// BenchmarkServerRestore times a restart after a 150k-request history
// on a file store at the default sync level, with stage metering on (the
// wire-durable set-up without HTTP): each op copies a prepared store
// image untimed, then times New with Restore plus one Submit.  One
// server run prepares both images:
//
//   - clean: the store as Close left it.  Close checkpoints every shard,
//     so the restore loads snapshots and replays no WAL record.
//   - crash: the store copied from the still-running server after a
//     forced Snapshot at 147,000 requests and a 3,000-request tail, what
//     a SIGKILL leaves.  The tail is under one snapshot cadence, so no
//     snapshot races the copy, and the restore replays it record by
//     record.
//
// Each case reports the mean snapshot size per shard and the WAL records
// a restore replays.
func BenchmarkServerRestore(b *testing.B) {
	const history, tail, shards = 150000, 3000, 2
	cat := multiobject.ZipfCatalog(64, 1, 0.02, 1)
	reqs := zipfHistory(b, cat, history+1)
	root := b.TempDir()
	clean, crash := filepath.Join(root, "clean"), filepath.Join(root, "crash")
	fs, err := store.NewFile(clean)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Catalog: cat, Shards: shards, DefaultStrategy: "online", MeterStages: true, Store: fs, OwnStore: true}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	submitChunked(b, s, reqs[:history-tail])
	// A settled kept set makes the forced snapshot, and so the crash
	// restore's work, the same in every run.
	settlerCatchUp(b, s)
	if err := s.Snapshot(); err != nil {
		b.Fatal(err)
	}
	forced, _ := storeImage(b, clean, shards)
	submitChunked(b, s, reqs[history-tail:history])
	copyStoreDir(b, clean, crash)
	s.Close()
	if snaps, _ := storeImage(b, crash, shards); !reflect.DeepEqual(snaps, forced) {
		b.Fatal("a snapshot raced the crash image's copy")
	}
	cfg.Restore = true
	for _, image := range []struct{ name, dir string }{{"clean", clean}, {"crash", crash}} {
		b.Run(image.name, func(b *testing.B) {
			snaps, records := storeImage(b, image.dir, shards)
			snapBytes := 0
			for _, blob := range snaps {
				snapBytes += len(blob)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(b.TempDir(), "restore")
				copyStoreDir(b, image.dir, dir)
				runtime.GC()
				b.StartTimer()
				if cfg.Store, err = store.NewFile(dir); err != nil {
					b.Fatal(err)
				}
				s, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Submit(reqs[history]); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(snapBytes)/shards, "snapshot-B/shard")
			b.ReportMetric(float64(records), "wal-records")
		})
	}
}

// storeImage reads a store directory's snapshots, one per shard, and
// counts the WAL records a restore from it would replay.
func storeImage(tb testing.TB, dir string, shards int) (snaps [][]byte, records int) {
	tb.Helper()
	fs, err := store.NewFile(dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer fs.Close()
	for i := 0; i < shards; i++ {
		blob, err := fs.LoadSnapshot(i)
		if err != nil {
			tb.Fatal(err)
		}
		snaps = append(snaps, blob)
		if err := fs.ReplayWAL(i, func([]byte) error { records++; return nil }); err != nil {
			tb.Fatal(err)
		}
	}
	return snaps, records
}

// copyStoreDir copies the regular files of a store directory.
func copyStoreDir(tb testing.TB, src, dst string) {
	tb.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		tb.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}
