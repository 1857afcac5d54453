package serve_test

// Clean-restart tests: Close checkpoints every durable shard, so a restore
// after a graceful stop loads one snapshot per shard and replays no WAL
// tail, yet finishes a trace exactly like a server that never stopped.
// A crash (a Mem.Clone before Close) still replays its tail; the crash
// recovery tests cover that path.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
	"repro/internal/store"
)

// uninterrupted runs reqs through a store-less server and drains it.
func uninterrupted(t *testing.T, strategy string, shards int, reqs []serve.Request, horizon float64) ([]serve.Ticket, *serve.DrainResult) {
	t.Helper()
	return uninterruptedAt(t, crashConfig(strategy, shards, nil, false), reqs, horizon)
}

// uninterruptedAt submits reqs in order to a server built from cfg and
// drains it.
func uninterruptedAt(t *testing.T, cfg serve.Config, reqs []serve.Request, horizon float64) ([]serve.Ticket, *serve.DrainResult) {
	t.Helper()
	ref, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("New(ref): %v", err)
	}
	defer ref.Close()
	tickets := submitAll(t, ref, reqs)
	dr, err := ref.Drain(horizon)
	if err != nil {
		t.Fatalf("Drain(ref): %v", err)
	}
	return tickets, dr
}

// checkFinish submits reqs to s, requires tickets equal to want, drains
// s at the reference's horizon and requires the drained accounting to
// match the reference bit for bit.
func checkFinish(t *testing.T, what string, s *serve.Server, reqs []serve.Request, want []serve.Ticket, ref *serve.DrainResult) {
	t.Helper()
	checkFinishBy(t, what, s, submitAll, reqs, want, ref)
}

// checkFinishBy is checkFinish with the requests sent through submit.
func checkFinishBy(t *testing.T, what string, s *serve.Server, submit func(*testing.T, *serve.Server, []serve.Request) []serve.Ticket,
	reqs []serve.Request, want []serve.Ticket, ref *serve.DrainResult) {
	t.Helper()
	for i, tk := range submit(t, s, reqs) {
		if !sameTicket(tk, want[i]) {
			t.Fatalf("%s: ticket %d diverged:\n got %+v\nwant %+v", what, i, tk, want[i])
		}
	}
	got, err := s.Drain(ref.Horizon)
	if err != nil {
		t.Fatalf("%s: Drain: %v", what, err)
	}
	if !reflect.DeepEqual(got.Objects, ref.Objects) {
		t.Fatalf("%s: drained objects diverged:\n got %+v\nwant %+v", what, got.Objects, ref.Objects)
	}
	g, w := got.Stats, ref.Stats
	if math.Float64bits(g.BusyTime) != math.Float64bits(w.BusyTime) || g.Peak != w.Peak {
		t.Fatalf("%s: busy time %v peak %d, want %v and %d", what, g.BusyTime, g.Peak, w.BusyTime, w.Peak)
	}
	if g.Admitted != w.Admitted || g.Degraded != w.Degraded || g.Rejected != w.Rejected || g.LiveChannels != w.LiveChannels {
		t.Fatalf("%s: counters diverged:\n got %+v\nwant %+v", what, g, w)
	}
}

// walBytes is the size of the WAL tail a restore from mem would replay,
// over the first shards shards.
func walBytes(mem *store.Mem, shards int) int {
	n := 0
	for i := 0; i < shards; i++ {
		n += mem.WALBytes(i)
	}
	return n
}

// TestCleanRestartEquivalence: a server Closed mid-trace and restored
// from its store finishes the trace exactly like one that never stopped
// — tickets (IDs included), drained objects, busy time and peak bits,
// outcome counters — for every strategy and shard count, and the restore
// replays no WAL record: Close left a snapshot covering every admission.
func TestCleanRestartEquivalence(t *testing.T) {
	const horizon = 8.0
	reqs := crashTrace(t)
	cuts := []int{len(reqs) / 3, 2 * len(reqs) / 3}
	for _, strategy := range serve.LivePlanners() {
		t.Run(strategy, func(t *testing.T) {
			for _, shards := range []int{1, 2, 5} {
				refTickets, refDrain := uninterrupted(t, strategy, shards, reqs, horizon)
				for _, cut := range cuts {
					what := fmt.Sprintf("shards=%d cut=%d", shards, cut)
					mem := store.NewMem()
					first, err := serve.New(crashConfig(strategy, shards, mem, false))
					if err != nil {
						t.Fatalf("%s: New: %v", what, err)
					}
					for i, tk := range submitAll(t, first, reqs[:cut]) {
						if !sameTicket(tk, refTickets[i]) {
							t.Fatalf("%s: head ticket %d diverged:\n got %+v\nwant %+v", what, i, tk, refTickets[i])
						}
					}
					first.Close()
					if n := walBytes(mem, shards); n != 0 {
						t.Fatalf("%s: Close left %d WAL bytes for a restore to replay, want 0", what, n)
					}
					restored, err := serve.New(crashConfig(strategy, shards, mem, true))
					if err != nil {
						t.Fatalf("%s: New(restored): %v", what, err)
					}
					checkFinish(t, what, restored, reqs[cut:], refTickets[cut:], refDrain)
					restored.Close()
				}
			}
		})
	}
}

// TestDrainThenCloseKeepsPreDrainState: Drain is terminal and unlogged,
// so Close must not checkpoint a drained shard.  A restore after Drain
// and Close still holds the pre-drain state and finishes the trace like
// an uninterrupted run; a checkpoint of the drained state would clamp
// every later request to the drain horizon.
func TestDrainThenCloseKeepsPreDrainState(t *testing.T) {
	const horizon = 8.0
	reqs := crashTrace(t)
	cut := len(reqs) / 2
	for _, strategy := range serve.LivePlanners() {
		for _, shards := range []int{1, 2} {
			what := fmt.Sprintf("%s shards=%d", strategy, shards)
			refTickets, refDrain := uninterrupted(t, strategy, shards, reqs, horizon)
			mem := store.NewMem()
			first, err := serve.New(crashConfig(strategy, shards, mem, false))
			if err != nil {
				t.Fatalf("%s: New: %v", what, err)
			}
			submitAll(t, first, reqs[:cut])
			if _, err := first.Drain(horizon); err != nil {
				t.Fatalf("%s: Drain: %v", what, err)
			}
			first.Close()
			restored, err := serve.New(crashConfig(strategy, shards, mem, true))
			if err != nil {
				t.Fatalf("%s: New(restored): %v", what, err)
			}
			checkFinish(t, what, restored, reqs[cut:], refTickets[cut:], refDrain)
			restored.Close()
		}
	}
}

// TestCloseKeepsFailedLastAppend: the WAL append of the last acknowledged
// request fails, and no later admission forces the repair snapshot.
// Close's checkpoint still covers that request, so the restart keeps
// every acknowledged admission.
func TestCloseKeepsFailedLastAppend(t *testing.T) {
	const horizon = 8.0
	reqs := crashTrace(t)
	refTickets, refDrain := uninterrupted(t, "online", 1, reqs, horizon)
	mem := store.NewMem()
	s, err := serve.New(crashConfig("online", 1, &flakyStore{Mem: mem, failAt: int64(len(reqs))}, false))
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, s, reqs)
	s.Close()
	restored, err := serve.New(crashConfig("online", 1, mem, true))
	if err != nil {
		t.Fatalf("New(restored): %v", err)
	}
	defer restored.Close()
	st, err := restored.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Admitted + st.Degraded + st.Rejected; got != int64(len(reqs)) {
		t.Fatalf("restart kept %d of %d acknowledged admissions", got, len(reqs))
	}
	checkFinish(t, "restored", restored, nil, refTickets[len(reqs):], refDrain)
}

// gapStore fails the WAL append of one record, like flakyStore, and
// then the next snapshot save: the repair snapshot that was to truncate
// the gapped log.
type gapStore struct {
	*flakyStore
	saveFailed atomic.Bool
}

func (g *gapStore) SaveSnapshot(shard int, data []byte) error {
	if g.saveFailed.CompareAndSwap(false, true) {
		return errors.New("injected snapshot failure")
	}
	return g.Mem.SaveSnapshot(shard, data)
}

// TestCloseRepairsGappedLog: the second-to-last request's append fails
// and so does the repair snapshot the last request forces, leaving a
// sequence gap that fails a crash restart.  Both faults are one-shot, so
// Close runs on a recovered store: its checkpoint covers the gap, and
// the restart succeeds with every acknowledged admission.
func TestCloseRepairsGappedLog(t *testing.T) {
	const horizon = 8.0
	reqs := crashTrace(t)
	refTickets, refDrain := uninterrupted(t, "online", 1, reqs, horizon)
	mem := store.NewMem()
	cfg := crashConfig("online", 1, &gapStore{flakyStore: &flakyStore{Mem: mem, failAt: int64(len(reqs) - 1)}}, false)
	// No cadence snapshot: the only saves are the repair and the checkpoint.
	cfg.SnapshotEpochs = 1 << 20
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, s, reqs)
	if crashed, err := serve.New(crashConfig("online", 1, mem.Clone(), true)); !errors.Is(err, store.ErrCorruptSnapshot) {
		if err == nil {
			crashed.Close()
		}
		t.Fatalf("a crash restart before Close: error %v, want the WAL sequence gap", err)
	}
	s.Close()
	restored, err := serve.New(crashConfig("online", 1, mem, true))
	if err != nil {
		t.Fatalf("New(restored) after Close: %v", err)
	}
	defer restored.Close()
	checkFinish(t, "restored", restored, nil, refTickets[len(reqs):], refDrain)
}

// saveFailStore fails every snapshot save while failing is set.
type saveFailStore struct {
	*store.Mem
	failing atomic.Bool
}

func (f *saveFailStore) SaveSnapshot(shard int, data []byte) error {
	if f.failing.Load() {
		return errors.New("injected snapshot failure")
	}
	return f.Mem.SaveSnapshot(shard, data)
}

// TestFailedCheckpointReplaysTail: when the checkpoint's save fails, the
// WAL stays as it was and the restart replays its tail, finishing the
// trace like an uninterrupted run.
func TestFailedCheckpointReplaysTail(t *testing.T) {
	const horizon, shards = 8.0, 2
	reqs := crashTrace(t)
	cut := len(reqs) / 2
	for _, strategy := range []string{"online", "offline", "batching"} {
		refTickets, refDrain := uninterrupted(t, strategy, shards, reqs, horizon)
		mem := store.NewMem()
		fs := &saveFailStore{Mem: mem}
		s, err := serve.New(crashConfig(strategy, shards, fs, false))
		if err != nil {
			t.Fatal(err)
		}
		submitAll(t, s, reqs[:cut])
		fs.failing.Store(true)
		s.Close()
		if walBytes(mem, shards) == 0 {
			t.Fatalf("%s: no WAL tail survived the failed checkpoint: the test lost its coverage", strategy)
		}
		restored, err := serve.New(crashConfig(strategy, shards, mem, true))
		if err != nil {
			t.Fatalf("%s: New(restored): %v", strategy, err)
		}
		checkFinish(t, strategy, restored, reqs[cut:], refTickets[cut:], refDrain)
		restored.Close()
	}
}

// TestCloseSkipsCoveredShards: Close saves nothing when every shard's
// last successful save covers its admissions — after a forced Snapshot,
// and after a restore that admitted nothing.
func TestCloseSkipsCoveredShards(t *testing.T) {
	reqs := crashTrace(t)
	gs := newSettleStore()
	saves := func() int {
		gs.mu.Lock()
		defer gs.mu.Unlock()
		return gs.saves[0] + gs.saves[1]
	}
	s, err := serve.New(crashConfig("online", 2, gs, false))
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, s, reqs)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	before := saves()
	s.Close()
	if got := saves(); got != before {
		t.Fatalf("Close after Snapshot saved %d more snapshots, want 0", got-before)
	}
	restored, err := serve.New(crashConfig("online", 2, gs, true))
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()
	if got := saves(); got != before {
		t.Fatalf("Close of a restored server that admitted nothing saved %d snapshots, want 0", got-before)
	}
}
