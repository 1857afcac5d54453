package serve_test

// Group-commit behavior of the WAL pipeline: flush coalescing (many
// acknowledgements per store Flush), the acked-requests-are-a-durable-
// prefix contract when a crash lands mid-batch, and the same contract
// under a real SIGKILL of a child process writing a file store.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// gateStore wraps a Mem store with a controllable Flush: while held, every
// Flush call blocks until release.  It makes the group-commit window
// deterministic — the test decides exactly which submissions pile up
// behind one in-flight commit — where timing alone would be flaky.
type gateStore struct {
	*store.Mem
	mu      sync.Mutex
	flushes int
	held    chan struct{} // non-nil while holding; closed to release
}

func (g *gateStore) Flush(shard int, mode store.SyncMode) error {
	g.mu.Lock()
	g.flushes++
	held := g.held
	g.mu.Unlock()
	if held != nil {
		<-held
	}
	return g.Mem.Flush(shard, mode)
}

func (g *gateStore) hold() {
	g.mu.Lock()
	g.held = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateStore) release() {
	g.mu.Lock()
	close(g.held)
	g.held = nil
	g.mu.Unlock()
}

func (g *gateStore) flushCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flushes
}

// gatedScenario drives one shard through 3 serial acked submits, then 8
// concurrent submits that all pile up while the store's Flush is held —
// the deterministic stand-in for "a crash lands mid-group-commit".  It
// returns the store's committed clone taken at that instant (the disk
// image of the crash), the flush count the concurrent batch cost after
// release, and the server's final stats.
func gatedScenario(t *testing.T, mode store.SyncMode) (disk *store.Mem, concurrentFlushes int, st serve.Stats) {
	t.Helper()
	gs := &gateStore{Mem: store.NewMem()}
	cfg := crashConfig("online", 1, gs, false)
	cfg.SyncMode = mode
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	// Serial phase: each submit round-trips, so each is its own commit.
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit(serve.Request{Object: "hot", T: 0}); err != nil {
			t.Fatalf("serial Submit %d: %v", i, err)
		}
	}

	// Concurrent phase behind a held Flush: the first commit blocks in
	// the store while the rest of the submissions queue on the WAL
	// channel.  No acknowledgement can release — and no record can be
	// published — until the gate opens.
	gs.hold()
	flushesBefore := gs.flushCount()
	const concurrent = 8
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Submit(serve.Request{Object: "hot", T: 0}); err != nil {
				t.Errorf("concurrent Submit: %v", err)
			}
		}()
	}
	// Wait until the shard loop has dequeued (and therefore admitted and
	// handed to the writer) every submission: 3 serial + 8 concurrent.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := srv.Stats()
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		if s.Shards[0].Dequeued == 3+concurrent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard dequeued %d of %d submissions", s.Shards[0].Dequeued, 3+concurrent)
		}
		time.Sleep(time.Millisecond)
	}
	// The crash: everything committed so far is the disk image; records
	// stuck behind the held Flush are the user-space buffer a SIGKILL
	// would lose.
	disk = gs.Mem.Clone()
	gs.release()
	wg.Wait()
	concurrentFlushes = gs.flushCount() - flushesBefore

	final, err := srv.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	return disk, concurrentFlushes, final
}

// TestGroupCommitCoalesces pins the tentpole property: N concurrent
// submitters share a constant number of flushes, not one each.  The held
// gate guarantees all 8 concurrent submissions are queued behind one
// in-flight commit, so releasing it can cost at most 2 flushes (the held
// one plus one for the drained remainder) — against 8 acknowledgements.
func TestGroupCommitCoalesces(t *testing.T) {
	_, concurrentFlushes, st := gatedScenario(t, store.SyncOS)
	if concurrentFlushes >= 8 {
		t.Fatalf("8 concurrent submits cost %d flushes — no coalescing", concurrentFlushes)
	}
	if concurrentFlushes > 2 {
		t.Fatalf("8 gated concurrent submits cost %d flushes, want at most 2", concurrentFlushes)
	}
	// Stats mirror the store's own count: 3 serial + the concurrent ones.
	if want := int64(3 + concurrentFlushes); st.WALFlushes != want {
		t.Fatalf("Stats.WALFlushes = %d, want %d", st.WALFlushes, want)
	}
	if st.Admitted+st.Degraded+st.Rejected != 11 {
		t.Fatalf("decisions = %d, want 11", st.Admitted+st.Degraded+st.Rejected)
	}
}

// TestGroupCommitCrashPrefix pins the durability contract at a
// mid-group-commit crash, for every sync mode: the committed bytes hold
// exactly the acknowledged requests (the 3 serial ones — none of the 8
// in-flight submissions was acked, and none of their records was
// published), the log replays with gap-free sequence numbers, and a
// restore resumes ticket numbering exactly after the last acked request.
func TestGroupCommitCrashPrefix(t *testing.T) {
	for _, mode := range []store.SyncMode{store.SyncNone, store.SyncOS, store.SyncFull} {
		t.Run(mode.String(), func(t *testing.T) {
			disk, _, _ := gatedScenario(t, mode)
			var seqs []int64
			err := disk.ReplayWAL(0, func(rec []byte) error {
				if len(rec) != 21 {
					return fmt.Errorf("record of %d bytes", len(rec))
				}
				seqs = append(seqs, int64(binary.LittleEndian.Uint64(rec[0:8])))
				return nil
			})
			if err != nil {
				t.Fatalf("ReplayWAL: %v", err)
			}
			if len(seqs) != 3 {
				t.Fatalf("crash image holds %d records, want exactly the 3 acked (mode %v)", len(seqs), mode)
			}
			for i, seq := range seqs {
				if seq != int64(i) {
					t.Fatalf("record %d has sequence %d — log is not a gap-free prefix", i, seq)
				}
			}
			rcfg := crashConfig("online", 1, disk, true)
			rcfg.SyncMode = mode
			restored, err := serve.New(rcfg)
			if err != nil {
				t.Fatalf("New(restored): %v", err)
			}
			defer restored.Close()
			tk, err := restored.Submit(serve.Request{Object: "hot", T: 0})
			if err != nil {
				t.Fatalf("Submit after restore: %v", err)
			}
			// One shard: ID = seq + 1.  The 3 acked requests consumed
			// sequences 0..2, so the first post-restore ticket is 4.
			if tk.ID != 4 {
				t.Fatalf("first post-restore ticket ID = %d, want 4", tk.ID)
			}
		})
	}
}

// TestGroupCommitPrefixSIGKILL is the real-process form of the contract:
// a child process serves durable traffic on a file store and is killed
// with SIGKILL mid-stream.  For every sync mode the surviving log must
// restore cleanly (gap-free prefix); for SyncOS and SyncFull — where an
// acknowledgement implies the record left the user-space buffer — every
// acknowledged ticket must also be covered by the restored state.
// (SyncNone may lose acked records to the buffer; that is its documented
// trade-off.)
func TestGroupCommitPrefixSIGKILL(t *testing.T) {
	if os.Getenv("MOD_SIGKILL_HELPER") != "" {
		t.Skip("helper process")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("Executable: %v", err)
	}
	for _, mode := range []store.SyncMode{store.SyncNone, store.SyncOS, store.SyncFull} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			acked := filepath.Join(dir, "acked.txt")
			cmd := exec.Command(exe, "-test.run", "TestGroupCommitSIGKILLHelper$", "-test.v")
			cmd.Env = append(os.Environ(),
				"MOD_SIGKILL_HELPER=1",
				"MOD_SIGKILL_DIR="+dir,
				"MOD_SIGKILL_ACKED="+acked,
				"MOD_SIGKILL_SYNC="+mode.String(),
			)
			if err := cmd.Start(); err != nil {
				t.Fatalf("start helper: %v", err)
			}
			// Let the child ack a healthy stream of requests, then kill it
			// mid-flight — no shutdown path runs.
			deadline := time.Now().Add(30 * time.Second)
			for {
				if data, err := os.ReadFile(acked); err == nil && len(data) > 2000 {
					break
				}
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatal("helper produced no acknowledgements")
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err := cmd.Process.Kill(); err != nil {
				t.Fatalf("SIGKILL helper: %v", err)
			}
			cmd.Wait()

			// Every fully written acked line survives the process kill (the
			// page cache is not lost); a torn final line is tolerated.
			maxAcked := int64(0)
			lines := 0
			f, err := os.Open(acked)
			if err != nil {
				t.Fatalf("open acked file: %v", err)
			}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				id, err := strconv.ParseInt(sc.Text(), 10, 64)
				if err != nil {
					continue
				}
				lines++
				if id > maxAcked {
					maxAcked = id
				}
			}
			f.Close()
			if lines == 0 {
				t.Fatal("no acknowledged tickets recorded")
			}

			fs, err := store.NewFile(dir)
			if err != nil {
				t.Fatalf("NewFile: %v", err)
			}
			rcfg := crashConfig("online", 1, fs, true)
			rcfg.SyncMode = mode
			rcfg.OwnStore = true
			restored, err := serve.New(rcfg)
			if err != nil {
				t.Fatalf("mode %v: restore after SIGKILL failed: %v", mode, err)
			}
			defer restored.Close()
			tk, err := restored.Submit(serve.Request{Object: "hot", T: 0})
			if err != nil {
				t.Fatalf("Submit after restore: %v", err)
			}
			if mode != store.SyncNone && tk.ID <= maxAcked {
				t.Fatalf("mode %v: restored numbering resumes at %d but ticket %d was acknowledged — an acked record was lost",
					mode, tk.ID, maxAcked)
			}
			t.Logf("mode %v: %d acked, restore resumed at ID %d", mode, lines, tk.ID)
		})
	}
}

// TestGroupCommitSIGKILLHelper is the child body of the SIGKILL test: it
// serves durable traffic on the file store named by the environment and
// records every acknowledged ticket ID, until the parent kills it.
func TestGroupCommitSIGKILLHelper(t *testing.T) {
	if os.Getenv("MOD_SIGKILL_HELPER") == "" {
		t.Skip("not a helper invocation")
	}
	dir := os.Getenv("MOD_SIGKILL_DIR")
	mode, err := store.ParseSyncMode(os.Getenv("MOD_SIGKILL_SYNC"))
	if err != nil {
		t.Fatalf("parse sync mode: %v", err)
	}
	fs, err := store.NewFile(dir)
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	cfg := crashConfig("online", 1, fs, false)
	cfg.SyncMode = mode
	cfg.OwnStore = true
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	out, err := os.Create(os.Getenv("MOD_SIGKILL_ACKED"))
	if err != nil {
		t.Fatalf("create acked file: %v", err)
	}
	var mu sync.Mutex
	names := []string{"hot", "warm", "cold"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				tk, err := srv.Submit(serve.Request{Object: names[(g+i)%len(names)], T: 0})
				if err != nil {
					return
				}
				mu.Lock()
				fmt.Fprintf(out, "%d\n", tk.ID)
				mu.Unlock()
			}
		}()
	}
	// The parent SIGKILLs this process; the submit loops never exit on
	// their own within the test timeout.
	wg.Wait()
}
