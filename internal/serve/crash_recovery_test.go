package serve_test

// Crash-recovery equivalence: a server killed mid-trace and restored from
// its durable store (latest epoch snapshot + WAL tail) must finish the
// trace bit-identically to a server that never died — same tail tickets
// (IDs included), same drained per-object stats, same bandwidth totals —
// for every live strategy and shard count.  The Mem store's Clone is the
// crash model: it captures exactly the bytes "on disk" at the kill
// instant, and everything the doomed server does afterwards is lost.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/multiobject"
	"repro/internal/serve"
	"repro/internal/store"
)

// crashCatalog mixes delays so shards snapshot at different cadences and
// epoch strategies close epochs mid-trace.
func crashCatalog() multiobject.Catalog {
	return multiobject.Catalog{
		{Name: "hot", Length: 1, Popularity: 4, Delay: 0.05},
		{Name: "warm", Length: 2, Popularity: 2, Delay: 0.125},
		{Name: "cold", Length: 0.5, Popularity: 1, Delay: 0.08},
	}
}

func crashConfig(strategy string, shards int, st store.Store, restore bool) serve.Config {
	return serve.Config{
		Catalog:         crashCatalog(),
		Shards:          shards,
		DefaultStrategy: strategy,
		EpochSlots:      4,
		Store:           st,
		Restore:         restore,
	}
}

// crashVariant is one durability configuration of the equivalence matrix:
// a sync level of the group-commit writer.
type crashVariant struct {
	name string
	mode store.SyncMode
}

func crashVariants() []crashVariant {
	return []crashVariant{
		{name: "sync-none", mode: store.SyncNone},
		{name: "sync-os", mode: store.SyncOS},
		{name: "sync-full", mode: store.SyncFull},
	}
}

func crashTrace(t *testing.T) []serve.Request {
	t.Helper()
	reqs, err := serve.GenerateRequests(crashCatalog(), serve.LoadConfig{
		Horizon:          6,
		MeanInterArrival: 0.09,
		Kind:             serve.PoissonArrivals,
		Seed:             23,
	})
	if err != nil {
		t.Fatalf("GenerateRequests: %v", err)
	}
	return reqs
}

// submitAll pushes requests through Submit in order and returns the tickets.
func submitAll(t *testing.T, s *serve.Server, reqs []serve.Request) []serve.Ticket {
	t.Helper()
	out := make([]serve.Ticket, 0, len(reqs))
	for _, req := range reqs {
		tk, err := s.Submit(req)
		if err != nil {
			t.Fatalf("Submit(%+v): %v", req, err)
		}
		out = append(out, tk)
	}
	return out
}

func sameTicket(a, b serve.Ticket) bool {
	return a.ID == b.ID && a.Object == b.Object && a.Decision == b.Decision &&
		a.Strategy == b.Strategy && a.T == b.T && a.Epoch == b.Epoch &&
		a.Slot == b.Slot && a.Delay == b.Delay && a.StartAt == b.StartAt &&
		reflect.DeepEqual(a.Program, b.Program)
}

func TestCrashRecoveryEquivalence(t *testing.T) {
	const horizon = 8.0
	reqs := crashTrace(t)
	cuts := []int{len(reqs) / 3, 2 * len(reqs) / 3}
	for _, strategy := range serve.LivePlanners() {
		strategy := strategy
		t.Run(strategy, func(t *testing.T) {
			for _, shards := range []int{1, 2, 5} {
				// Uninterrupted reference, durability off: recovery must
				// reproduce a run that never logged anything.
				ref, err := serve.New(crashConfig(strategy, shards, nil, false))
				if err != nil {
					t.Fatalf("shards=%d: New(ref): %v", shards, err)
				}
				refTickets := submitAll(t, ref, reqs)
				refDrain, err := ref.Drain(horizon)
				if err != nil {
					t.Fatalf("shards=%d: Drain(ref): %v", shards, err)
				}
				ref.Close()

				for _, v := range crashVariants() {
					for _, cut := range cuts {
						mem := store.NewMem()
						cfg := crashConfig(strategy, shards, mem, false)
						cfg.SyncMode = v.mode
						doomed, err := serve.New(cfg)
						if err != nil {
							t.Fatalf("shards=%d %s cut=%d: New(doomed): %v", shards, v.name, cut, err)
						}
						head := submitAll(t, doomed, reqs[:cut])
						for i := range head {
							if !sameTicket(head[i], refTickets[i]) {
								t.Fatalf("shards=%d %s cut=%d: durable head ticket %d diverged:\n got %+v\nwant %+v",
									shards, v.name, cut, i, head[i], refTickets[i])
							}
						}
						// SIGKILL: capture the store as it stands, then discard
						// the doomed server without giving it a clean shutdown
						// path to flush anything further.  Serial submits mean
						// every request was acked — and so committed — before
						// the clone, in every sync mode.
						disk := mem.Clone()
						doomed.Close()

						rcfg := crashConfig(strategy, shards, disk, true)
						rcfg.SyncMode = v.mode
						restored, err := serve.New(rcfg)
						if err != nil {
							t.Fatalf("shards=%d %s cut=%d: New(restored): %v", shards, v.name, cut, err)
						}
						tail := submitAll(t, restored, reqs[cut:])
						for i := range tail {
							if !sameTicket(tail[i], refTickets[cut+i]) {
								t.Fatalf("shards=%d %s cut=%d: tail ticket %d diverged:\n got %+v\nwant %+v",
									shards, v.name, cut, i, tail[i], refTickets[cut+i])
							}
						}
						gotDrain, err := restored.Drain(horizon)
						if err != nil {
							t.Fatalf("shards=%d %s cut=%d: Drain(restored): %v", shards, v.name, cut, err)
						}
						if !reflect.DeepEqual(gotDrain.Objects, refDrain.Objects) {
							t.Fatalf("shards=%d %s cut=%d: drained objects diverged:\n got %+v\nwant %+v",
								shards, v.name, cut, gotDrain.Objects, refDrain.Objects)
						}
						if got, want := gotDrain.Stats.BusyTime, refDrain.Stats.BusyTime; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("shards=%d %s cut=%d: busy time %g, want %g", shards, v.name, cut, got, want)
						}
						if got, want := gotDrain.Stats.Peak, refDrain.Stats.Peak; got != want {
							t.Fatalf("shards=%d %s cut=%d: peak %d, want %d", shards, v.name, cut, got, want)
						}
						gotStats, wantStats := gotDrain.Stats, refDrain.Stats
						if gotStats.Admitted != wantStats.Admitted || gotStats.Degraded != wantStats.Degraded ||
							gotStats.Rejected != wantStats.Rejected || gotStats.LiveChannels != wantStats.LiveChannels {
							t.Fatalf("shards=%d %s cut=%d: counters diverged:\n got %+v\nwant %+v",
								shards, v.name, cut, gotStats, wantStats)
						}
						if got := gotStats.Admitted + gotStats.Degraded + gotStats.Rejected; got != int64(len(reqs)) {
							t.Fatalf("shards=%d %s cut=%d: restored run accounts %d requests, want %d",
								shards, v.name, cut, got, len(reqs))
						}
						if gotStats.WALFailures != 0 {
							t.Fatalf("shards=%d %s cut=%d: %d WAL failures on a healthy store",
								shards, v.name, cut, gotStats.WALFailures)
						}
						restored.Close()
					}
				}
			}
		})
	}
}

// crashRestart runs reqs[:cut] through submit on a durable server built
// by mk, takes the store's crash image (a Mem.Clone while the server
// runs), restores a server from it and requires it to finish reqs[cut:]
// through submit exactly like the uninterrupted run: tail tickets,
// drained objects, busy time and peak bits, outcome counters.
func crashRestart(t *testing.T, mk func(st store.Store, restore bool) serve.Config, reqs []serve.Request, cut int,
	submit func(*testing.T, *serve.Server, []serve.Request) []serve.Ticket, want []serve.Ticket, ref *serve.DrainResult) {
	t.Helper()
	mem := store.NewMem()
	doomed, err := serve.New(mk(mem, false))
	if err != nil {
		t.Fatalf("New(doomed): %v", err)
	}
	submit(t, doomed, reqs[:cut])
	disk := mem.Clone()
	doomed.Close()
	restored, err := serve.New(mk(disk, true))
	if err != nil {
		t.Fatalf("New(restored): %v", err)
	}
	defer restored.Close()
	checkFinishBy(t, "restored", restored, submit, reqs[cut:], want[cut:], ref)
}

// TestCappedCrashRecoveryEquivalence: under a channel cap, admission
// decisions read the server-wide gauge, which a restore cannot rebuild
// while it replays one shard after another; replay must apply the
// decisions the WAL logged.  The cap degrades most requests and rejects
// some, no cadence snapshot lands, so the restore replays the whole head,
// and every request is submitted serially: under a cap, concurrently
// running shards would make the decisions timing-dependent.
func TestCappedCrashRecoveryEquivalence(t *testing.T) {
	const horizon = 8.0
	reqs := crashTrace(t)
	for _, strategy := range serve.LivePlanners() {
		for _, shards := range []int{1, 2, 5} {
			capped := func(st store.Store, restore bool) serve.Config {
				cfg := crashConfig(strategy, shards, st, restore)
				cfg.MaxChannels = 6
				cfg.MaxDelayScale = 64
				cfg.SnapshotEpochs = 1000
				return cfg
			}
			want, ref := uninterruptedAt(t, capped(nil, false), reqs, horizon)
			if ref.Stats.Degraded == 0 || ref.Stats.Rejected == 0 {
				t.Fatalf("%s shards=%d: the cap degraded %d and rejected %d requests, want both", strategy, shards, ref.Stats.Degraded, ref.Stats.Rejected)
			}
			for _, cut := range []int{45, len(reqs) / 2} {
				t.Run(fmt.Sprintf("%s/shards=%d/cut=%d", strategy, shards, cut), func(t *testing.T) {
					crashRestart(t, capped, reqs, cut, submitAll, want, ref)
				})
			}
		}
	}
}

// submitBatches pushes requests through SubmitBatch in chunks of 7 and
// returns the tickets in request order.
func submitBatches(t *testing.T, s *serve.Server, reqs []serve.Request) []serve.Ticket {
	t.Helper()
	out := make([]serve.Ticket, 0, len(reqs))
	for k := 0; k < len(reqs); k += 7 {
		for _, res := range s.SubmitBatch(reqs[k:min(k+7, len(reqs))]) {
			if res.Err != nil {
				t.Fatalf("SubmitBatch: %v", res.Err)
			}
			out = append(out, res.Ticket)
		}
	}
	return out
}

// TestBatchCrashRecoveryEquivalence restores from records SubmitBatch
// wrote: a shard's share of a batch reaches the WAL writer as one
// message, and a writer that dropped any of its records would leave a
// sequence gap that fails the restore.  No cadence snapshot lands, so
// the restore replays the whole head.  Without a cap the decisions do
// not depend on how the shards interleave, so the batched run must match
// the serial reference.
func TestBatchCrashRecoveryEquivalence(t *testing.T) {
	const horizon = 8.0
	reqs := crashTrace(t)
	for _, strategy := range serve.LivePlanners() {
		for _, shards := range []int{1, 2, 5} {
			want, ref := uninterrupted(t, strategy, shards, reqs, horizon)
			mk := func(st store.Store, restore bool) serve.Config {
				cfg := crashConfig(strategy, shards, st, restore)
				cfg.SnapshotEpochs = 1000
				return cfg
			}
			for _, cut := range []int{len(reqs) / 3, 2 * len(reqs) / 3} {
				t.Run(fmt.Sprintf("%s/shards=%d/cut=%d", strategy, shards, cut), func(t *testing.T) {
					crashRestart(t, mk, reqs, cut, submitBatches, want, ref)
				})
			}
		}
	}
}

// TestRestoreAppliesLoggedDecisions: replay applies the decision a WAL
// record carries, not the admission controller's (this server has no
// cap, so the controller would admit), and refuses a decision byte out
// of range and a 20-byte record of the layout that logged none.
func TestRestoreAppliesLoggedDecisions(t *testing.T) {
	for _, c := range []struct {
		name      string
		rec       []byte // seq 0, catalog index 0 ("hot"), T 0, then the decision
		counters  [3]int64
		corrupted bool
	}{
		{name: "admitted", rec: make([]byte, 21), counters: [3]int64{1, 0, 0}},
		{name: "degraded", rec: append(make([]byte, 20), 1), counters: [3]int64{0, 1, 0}},
		{name: "rejected", rec: append(make([]byte, 20), 2), counters: [3]int64{0, 0, 1}},
		{name: "decision-out-of-range", rec: append(make([]byte, 20), 3), corrupted: true},
		{name: "no-decision", rec: make([]byte, 20), corrupted: true},
	} {
		mem := store.NewMem()
		if err := mem.AppendWAL(0, c.rec); err != nil {
			t.Fatal(err)
		}
		s, err := serve.New(crashConfig("online", 1, mem, true))
		if c.corrupted {
			if !errors.Is(err, store.ErrCorruptSnapshot) {
				t.Errorf("%s: New = %v, want ErrCorruptSnapshot", c.name, err)
			}
			if err == nil {
				s.Close()
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: New: %v", c.name, err)
		}
		st, err := s.Stats()
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]int64{st.Admitted, st.Degraded, st.Rejected}; got != c.counters {
			t.Errorf("%s: admitted/degraded/rejected %v, want %v", c.name, got, c.counters)
		}
	}
}

// TestCrashRecoveryAfterForcedSnapshot pins the snapshot-restore path
// specifically: Snapshot() truncates the WAL, so recovery here rebuilds
// everything from the codec blob plus only the records logged after it.
func TestCrashRecoveryAfterForcedSnapshot(t *testing.T) {
	const horizon = 8.0
	reqs := crashTrace(t)
	cut := len(reqs) / 2
	for _, strategy := range []string{"online", "dyadic", "batching"} {
		t.Run(strategy, func(t *testing.T) {
			ref, err := serve.New(crashConfig(strategy, 2, nil, false))
			if err != nil {
				t.Fatalf("New(ref): %v", err)
			}
			refTickets := submitAll(t, ref, reqs)
			refDrain, err := ref.Drain(horizon)
			if err != nil {
				t.Fatalf("Drain(ref): %v", err)
			}
			ref.Close()

			mem := store.NewMem()
			doomed, err := serve.New(crashConfig(strategy, 2, mem, false))
			if err != nil {
				t.Fatalf("New(doomed): %v", err)
			}
			submitAll(t, doomed, reqs[:cut])
			if err := doomed.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			if mem.Snapshots() != 2 {
				t.Fatalf("forced snapshot wrote %d shard snapshots, want 2", mem.Snapshots())
			}
			// A handful more acked requests land in the post-snapshot WAL
			// tail; then the crash.
			extra := cut + 5
			if extra > len(reqs) {
				extra = len(reqs)
			}
			submitAll(t, doomed, reqs[cut:extra])
			disk := mem.Clone()
			doomed.Close()

			restored, err := serve.New(crashConfig(strategy, 2, disk, true))
			if err != nil {
				t.Fatalf("New(restored): %v", err)
			}
			tail := submitAll(t, restored, reqs[extra:])
			for i := range tail {
				if !sameTicket(tail[i], refTickets[extra+i]) {
					t.Fatalf("tail ticket %d diverged:\n got %+v\nwant %+v", i, tail[i], refTickets[extra+i])
				}
			}
			gotDrain, err := restored.Drain(horizon)
			if err != nil {
				t.Fatalf("Drain(restored): %v", err)
			}
			if !reflect.DeepEqual(gotDrain.Objects, refDrain.Objects) {
				t.Fatalf("drained objects diverged:\n got %+v\nwant %+v", gotDrain.Objects, refDrain.Objects)
			}
			restored.Close()
		})
	}
}

// TestTicketIDContinuityAcrossRestart: IDs are never reissued.  Every ID
// handed out after a crash-restore is fresh, and the combined sequence
// matches the uninterrupted run's exactly.
func TestTicketIDContinuityAcrossRestart(t *testing.T) {
	reqs := crashTrace(t)
	cut := len(reqs) / 2
	for _, shards := range []int{1, 3} {
		mem := store.NewMem()
		s1, err := serve.New(crashConfig("online", shards, mem, false))
		if err != nil {
			t.Fatalf("shards=%d: New: %v", shards, err)
		}
		head := submitAll(t, s1, reqs[:cut])
		disk := mem.Clone()
		s1.Close()

		s2, err := serve.New(crashConfig("online", shards, disk, true))
		if err != nil {
			t.Fatalf("shards=%d: New(restore): %v", shards, err)
		}
		tail := submitAll(t, s2, reqs[cut:])
		s2.Close()

		seen := make(map[int64]int)
		for i, tk := range append(append([]serve.Ticket(nil), head...), tail...) {
			if tk.ID == 0 {
				t.Fatalf("shards=%d: ticket %d for known object has no ID", shards, i)
			}
			if prev, dup := seen[tk.ID]; dup {
				t.Fatalf("shards=%d: ID %d reissued after restart (tickets %d and %d)", shards, tk.ID, prev, i)
			}
			seen[tk.ID] = i
		}
		// Dense per shard: on shard i of n the IDs are n*seq+i+1 for
		// seq = 0,1,2,...; a restart that failed to resume past the WAL
		// high-water mark would either reissue (caught above) or skip a
		// sequence number here.
		perShard := make(map[int64][]bool)
		for id := range seen {
			shard := (id - 1) % int64(shards)
			seq := (id - 1) / int64(shards)
			for int64(len(perShard[shard])) <= seq {
				perShard[shard] = append(perShard[shard], false)
			}
			perShard[shard][seq] = true
		}
		for shard, seqs := range perShard {
			for seq, ok := range seqs {
				if !ok {
					t.Fatalf("shards=%d: shard %d skipped sequence %d — numbering did not resume at the WAL high-water mark",
						shards, shard, seq)
				}
			}
		}
	}
}

// TestNewRefusesUsedStore: a server built without Restore must refuse a
// store that already holds another run's state, both the checkpoint a
// Close leaves and the snapshot-less WAL a crash leaves.  Serving on top
// of either would restart ticket numbering and reissue acknowledged IDs.
// Restore still resumes the refused store past every ID the first run
// issued.
func TestNewRefusesUsedStore(t *testing.T) {
	trace := crashTrace(t)
	reqs, more := trace[:40], trace[40:45]
	config := func(st store.Store, restore bool) serve.Config {
		cfg := crashConfig("online", 2, st, restore)
		cfg.SnapshotEpochs = 1000 // no cadence snapshot within the trace
		return cfg
	}
	mem := store.NewMem()
	first, err := serve.New(config(mem, false))
	if err != nil {
		t.Fatalf("New on an empty store: %v", err)
	}
	issued := make(map[int64]bool)
	for _, tk := range submitAll(t, first, reqs) {
		issued[tk.ID] = true
	}
	crashed := mem.Clone()
	first.Close()
	if crashed.Snapshots() != 0 {
		t.Fatalf("crash image holds %d snapshots, want only WAL records", crashed.Snapshots())
	}
	for _, used := range []struct {
		name string
		st   *store.Mem
	}{{"closed", mem}, {"crashed", crashed}} {
		s, err := serve.New(config(used.st, false))
		if err == nil {
			s.Close()
			t.Fatalf("%s: New without Restore accepted a used store", used.name)
		}
		if !errors.Is(err, serve.ErrBadConfig) || !strings.Contains(err.Error(), "Restore") {
			t.Fatalf("%s: New without Restore = %v, want ErrBadConfig naming Restore", used.name, err)
		}
		s, err = serve.New(config(used.st, true))
		if err != nil {
			t.Fatalf("%s: New(restore) after the refusal: %v", used.name, err)
		}
		st, err := s.Stats()
		if err != nil {
			t.Fatalf("%s: Stats: %v", used.name, err)
		}
		if got := st.Admitted + st.Degraded + st.Rejected; got != int64(len(reqs)) {
			t.Fatalf("%s: restored server accounts %d requests, want %d", used.name, got, len(reqs))
		}
		for _, tk := range submitAll(t, s, more) {
			if issued[tk.ID] {
				t.Fatalf("%s: restored server reissued ticket ID %d", used.name, tk.ID)
			}
		}
		s.Close()
	}
}

// TestAdminSnapshotRoute: POST /v1/admin/snapshot forces a snapshot of
// every shard; GETs are refused, and a store-less server answers 409.
func TestAdminSnapshotRoute(t *testing.T) {
	mem := store.NewMem()
	s, err := serve.New(crashConfig("online", 2, mem, false))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	srv := httptest.NewServer(serve.Handler(s))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatalf("POST snapshot: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST snapshot = %d, want 200", resp.StatusCode)
	}
	if got := mem.Snapshots(); got != 2 {
		t.Fatalf("store holds %d shard snapshots after POST, want 2", got)
	}
	resp, err = http.Get(srv.URL + "/v1/admin/snapshot")
	if err != nil {
		t.Fatalf("GET snapshot: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET snapshot = %d, want 405", resp.StatusCode)
	}

	plain, err := serve.New(crashConfig("online", 1, nil, false))
	if err != nil {
		t.Fatalf("New(plain): %v", err)
	}
	defer plain.Close()
	psrv := httptest.NewServer(serve.Handler(plain))
	defer psrv.Close()
	resp, err = http.Post(psrv.URL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatalf("POST snapshot (no store): %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST snapshot without a store = %d, want 409", resp.StatusCode)
	}
}

// flakyStore wraps a Mem store and fails the append of exactly one
// record — the model of a transient disk hiccup on an otherwise healthy
// store.  It counts records across the writer's batch appends; a failing
// batch appends its prefix like the file backend.
type flakyStore struct {
	*store.Mem
	failAt int64 // 1-based index of the record append to fail
	n      atomic.Int64
}

func (f *flakyStore) AppendWALBatch(shard int, recs [][]byte) error {
	for _, rec := range recs {
		if f.n.Add(1) == f.failAt {
			return errors.New("injected disk hiccup")
		}
		if err := f.Mem.AppendWAL(shard, rec); err != nil {
			return err
		}
	}
	return nil
}

// TestWALFailureRepairSnapshot: a transient WAL append failure leaves a
// sequence gap in the WAL (the request is still acked).  The writer
// flags the shard and the next admission forces a repair snapshot that
// truncates the gapped log, so a later restore succeeds — instead of
// every restore failing New with a WAL sequence gap until the next
// cadence snapshot happens to truncate it.
func TestWALFailureRepairSnapshot(t *testing.T) {
	mem := store.NewMem()
	checkWALRepair(t, &flakyStore{Mem: mem, failAt: 5}, mem)
}

// lossyFlushStore wraps a Mem store and fails exactly one Flush, losing
// the records that flush was to commit — what the file store does when a
// write error breaks its buffered writer.  Appends wait in the wrapper
// until a Flush hands them to the Mem.
type lossyFlushStore struct {
	*store.Mem
	failAt int64 // 1-based index of the Flush to fail

	mu      sync.Mutex
	flushes int64
	pending map[int][][]byte
}

func (f *lossyFlushStore) AppendWALBatch(shard int, recs [][]byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rec := range recs {
		f.pending[shard] = append(f.pending[shard], append([]byte(nil), rec...))
	}
	return nil
}

func (f *lossyFlushStore) Flush(shard int, mode store.SyncMode) error {
	f.mu.Lock()
	recs := f.pending[shard]
	delete(f.pending, shard)
	f.flushes++
	fail := f.flushes == f.failAt
	f.mu.Unlock()
	if fail {
		return errors.New("injected flush failure")
	}
	if err := f.Mem.AppendWALBatch(shard, recs); err != nil {
		return err
	}
	return f.Mem.Flush(shard, mode)
}

func (f *lossyFlushStore) SaveSnapshot(shard int, data []byte) error {
	f.mu.Lock()
	delete(f.pending, shard) // superseded by the snapshot
	f.mu.Unlock()
	return f.Mem.SaveSnapshot(shard, data)
}

// TestWALFlushFailureRepairSnapshot: a failed Flush that loses the
// records it was to commit leaves the same sequence gap as a failed
// append, so it must force the same repair snapshot.
func TestWALFlushFailureRepairSnapshot(t *testing.T) {
	mem := store.NewMem()
	checkWALRepair(t, &lossyFlushStore{Mem: mem, failAt: 5, pending: map[int][][]byte{}}, mem)
}

// checkWALRepair runs the crash trace through a one-shard "online"
// server on st, a fault-injecting wrapper around mem, and restores a
// fresh server from mem's disk image.  The doomed server's snapshot
// cadence is out of reach, so the only snapshot that can exist is the
// repair the fault forces.  Its tickets must match a store-less run's,
// and the restored server must drain to the same objects.
func checkWALRepair(t *testing.T, st store.Store, mem *store.Mem) {
	t.Helper()
	const horizon = 8.0
	reqs := crashTrace(t)

	ref, err := serve.New(crashConfig("online", 1, nil, false))
	if err != nil {
		t.Fatalf("New(ref): %v", err)
	}
	refTickets := submitAll(t, ref, reqs)
	refDrain, err := ref.Drain(horizon)
	if err != nil {
		t.Fatalf("Drain(ref): %v", err)
	}
	ref.Close()

	cfg := crashConfig("online", 1, st, false)
	cfg.SnapshotEpochs = 1 << 20
	doomed, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("New(doomed): %v", err)
	}
	tickets := submitAll(t, doomed, reqs)
	for i := range tickets {
		// Availability over durability: the hiccup never surfaces to a
		// submitter.
		if !sameTicket(tickets[i], refTickets[i]) {
			t.Fatalf("ticket %d diverged under WAL failure:\n got %+v\nwant %+v", i, tickets[i], refTickets[i])
		}
	}
	if got := mem.Snapshots(); got != 1 {
		t.Fatalf("store holds %d snapshots, want exactly the repair snapshot", got)
	}
	disk := mem.Clone()
	doomed.Close()

	restored, err := serve.New(crashConfig("online", 1, disk, true))
	if err != nil {
		t.Fatalf("New(restored) after repaired WAL gap: %v", err)
	}
	gotDrain, err := restored.Drain(horizon)
	if err != nil {
		t.Fatalf("Drain(restored): %v", err)
	}
	if !reflect.DeepEqual(gotDrain.Objects, refDrain.Objects) {
		t.Fatalf("drained objects diverged:\n got %+v\nwant %+v", gotDrain.Objects, refDrain.Objects)
	}
	if gotDrain.Stats.WALFailures != 0 {
		t.Fatalf("restored server reports %d WAL failures, want 0", gotDrain.Stats.WALFailures)
	}
	restored.Close()
}

// settleStore wraps a Mem store for the durable-settle-point tests: it
// can hold one shard's Flush, so that shard's unacknowledged records stay
// unflushed (a Clone drops them), fail one shard's next SaveSnapshot, and
// counts each shard's saved snapshots and held flushes.
type settleStore struct {
	*store.Mem
	mu       sync.Mutex
	holdID   int
	held     chan struct{} // non-nil while holding; closed to release
	blocked  int
	failNext map[int]bool
	saves    map[int]int
}

func newSettleStore() *settleStore {
	return &settleStore{Mem: store.NewMem(), failNext: map[int]bool{}, saves: map[int]int{}}
}

func (g *settleStore) Flush(shard int, mode store.SyncMode) error {
	g.mu.Lock()
	held := g.held
	if held != nil && shard == g.holdID {
		g.blocked++
	} else {
		held = nil
	}
	g.mu.Unlock()
	if held != nil {
		<-held
	}
	return g.Mem.Flush(shard, mode)
}

func (g *settleStore) SaveSnapshot(shard int, data []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.failNext[shard] {
		g.failNext[shard] = false
		return errors.New("injected snapshot failure")
	}
	if err := g.Mem.SaveSnapshot(shard, data); err != nil {
		return err
	}
	g.saves[shard]++
	return nil
}

func (g *settleStore) hold(shard int) {
	g.mu.Lock()
	g.holdID, g.held = shard, make(chan struct{})
	g.mu.Unlock()
}

// release lets held flushes through; it is a no-op when nothing is held.
func (g *settleStore) release() {
	g.mu.Lock()
	if g.held != nil {
		close(g.held)
		g.held = nil
	}
	g.mu.Unlock()
}

func (g *settleStore) failNextSave(shard int) {
	g.mu.Lock()
	g.failNext[shard] = true
	g.mu.Unlock()
}

// waitSaves waits until shard has saved n snapshots.
func (g *settleStore) waitSaves(t *testing.T, shard, n int) {
	t.Helper()
	g.await(t, fmt.Sprintf("shard %d to save %d snapshots", shard, n), func() bool { return g.saves[shard] >= n })
}

// waitBlocked waits until a flush of the held shard is blocked.
func (g *settleStore) waitBlocked(t *testing.T) {
	t.Helper()
	g.await(t, "a held flush", func() bool { return g.blocked > 0 })
}

func (g *settleStore) await(t *testing.T, what string, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.mu.Lock()
		ok := done()
		g.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// settleCatalog puts four objects on shard 0 and one on shard 1 of a
// two-shard server (settleShards checks the routing).
func settleCatalog() multiobject.Catalog {
	var cat multiobject.Catalog
	for _, name := range []string{"a", "b", "c", "e", "g"} {
		cat = append(cat, multiobject.Object{Name: name, Length: 1, Popularity: 1, Delay: 0.05})
	}
	return cat
}

func settleConfig(st store.Store, restore bool) serve.Config {
	return serve.Config{
		Catalog:         settleCatalog(),
		Shards:          2,
		DefaultStrategy: "offline",
		EpochSlots:      4,
		// No cadence snapshots: the tests force each one.
		SnapshotEpochs: 1000,
		Store:          st,
		Restore:        restore,
	}
}

// settleShards returns the objects routed to shard 0 and to shard 1.
func settleShards(t *testing.T, s *serve.Server) (x, y []string) {
	t.Helper()
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range st.Objects {
		if o.Shard == 0 {
			x = append(x, o.Name)
		} else {
			y = append(y, o.Name)
		}
	}
	if len(x) != 4 || len(y) != 1 {
		t.Fatalf("objects routed %v to shard 0 and %v to shard 1, want four and one", x, y)
	}
	return x, y
}

// waitDequeued waits until shard 0's loop has taken n requests off its
// queue, so they are admitted and their records are on the WAL channel.
func waitDequeued(t *testing.T, s *serve.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Shards[0].Dequeued == int64(n) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 dequeued %d of %d requests", st.Shards[0].Dequeued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// drainReference drains a store-less server that admitted reqs in order.
func drainReference(t *testing.T, reqs []serve.Request, horizon float64) *serve.DrainResult {
	t.Helper()
	ref, err := serve.New(settleConfig(nil, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	submitAll(t, ref, reqs)
	dr, err := ref.Drain(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return dr
}

// checkRestoredDrain restores a server from disk, drains it, and requires
// the drained accounting to be bit-identical to want's.
func checkRestoredDrain(t *testing.T, disk *store.Mem, want *serve.DrainResult) {
	t.Helper()
	restored, err := serve.New(settleConfig(disk, true))
	if err != nil {
		t.Fatalf("New(restored): %v", err)
	}
	defer restored.Close()
	got, err := restored.Drain(want.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Objects, want.Objects) {
		t.Fatalf("drained objects diverged:\n got %+v\nwant %+v", got.Objects, want.Objects)
	}
	if got.Stats.Peak != want.Stats.Peak || math.Float64bits(got.Stats.BusyTime) != math.Float64bits(want.Stats.BusyTime) {
		t.Fatalf("restored run drained peak %d busy %v, uninterrupted run over the acked requests: peak %d busy %v",
			got.Stats.Peak, got.Stats.BusyTime, want.Stats.Peak, want.Stats.BusyTime)
	}
}

// TestDurableSettlePointIgnoresUnackedStreams: a snapshot persists the
// peak only behind the durable settle point, never the live one.  Shard 0
// holds its flush while a burst of unacknowledged arrivals finalizes
// streams that raise the peak, and Stats folds them.  Shard 1 moves on,
// hears the settle point through two reads, and snapshots twice while
// shard 0's snapshots wait behind the held flush.  The crash then loses
// the burst, and the restored server must drain exactly like an
// uninterrupted run over the acked requests.  Persisting the live
// tracker's peak, or publishing shard 0's frontier when its snapshot is
// captured instead of once it is saved, restores the lost burst's peak.
func TestDurableSettlePointIgnoresUnackedStreams(t *testing.T) {
	const horizon = 4.0
	gs := newSettleStore()
	s, err := serve.New(settleConfig(gs, false))
	if err != nil {
		t.Fatal(err)
	}
	x, y := settleShards(t, s)
	var acked []serve.Request
	for _, name := range append(append([]string(nil), x...), y...) {
		acked = append(acked, serve.Request{Object: name, T: 0.1})
	}
	submitAll(t, s, acked)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// The burst: ten arrivals per shard-0 object early in the epoch
	// [1.0, 1.2), and one at 1.3 that closes it, finalizing their streams.
	gs.hold(0)
	defer gs.release() // a failing test must not leave Close blocked
	var burst []serve.Request
	for j := 0; j < 10; j++ {
		for _, name := range x {
			burst = append(burst, serve.Request{Object: name, T: 1.0 + 0.013*float64(j)})
		}
	}
	burst = append(burst, serve.Request{Object: x[0], T: 1.3})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.SubmitBatch(burst)
	}()
	waitDequeued(t, s, len(x)+len(burst))
	// The burst's commit must be stuck in Flush before any snapshot of
	// shard 0 reaches its writer; otherwise the snapshot could save in the
	// same commit and make the burst durable.
	gs.waitBlocked(t)

	late := serve.Request{Object: y[0], T: 1.5}
	submitAll(t, s, []serve.Request{late})
	acked = append(acked, late)
	want := drainReference(t, acked, horizon)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Peak <= want.Stats.Peak {
		t.Fatalf("the folded burst left the peak at %d, the acked requests alone reach %d: the test lost its coverage", st.Peak, want.Stats.Peak)
	}

	// Shard 0's snapshots are captured but wait behind the held flush.
	for n := 2; n <= 3; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Snapshot()
		}()
		gs.waitSaves(t, 1, n)
		for i := 0; i < 2; i++ {
			if _, err := s.Stats(); err != nil {
				t.Fatal(err)
			}
		}
	}
	disk := gs.Mem.Clone()
	gs.release()
	wg.Wait()
	s.Close()
	checkRestoredDrain(t, disk, want)
}

// TestDurableSettlePointFailedSave: a failed SaveSnapshot publishes
// nothing, so shard 0's saved frontier stays at its previous save while
// shard 1's advances, and a clone-and-restore right after still drains
// exactly.  The failed snapshot shares its group commit with an
// acknowledged request, whose record the commit must still flush.  Once
// a save succeeds again, the frontier moves.
func TestDurableSettlePointFailedSave(t *testing.T) {
	const horizon = 4.0
	gs := newSettleStore()
	s, err := serve.New(settleConfig(gs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x, y := settleShards(t, s)
	names := append(append([]string(nil), x...), y...)
	var reqs []serve.Request
	submitAt := func(ts ...float64) {
		for _, at := range ts {
			for _, name := range names {
				req := serve.Request{Object: name, T: at}
				submitAll(t, s, []serve.Request{req})
				reqs = append(reqs, req)
			}
		}
		if _, err := s.Stats(); err != nil {
			t.Fatal(err)
		}
	}
	submitAt(0.1, 0.5)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	prev := []float64{serve.SavedFrontier(s, 0), serve.SavedFrontier(s, 1)}
	submitAt(0.9)

	// With shard 0's flush held, the first request's commit blocks, the
	// second request queues behind it, and the failing snapshot behind
	// that: on release the two land in one group commit.
	gs.hold(0)
	defer gs.release() // a failing test must not leave Close blocked
	var wg sync.WaitGroup
	for k, req := range []serve.Request{{Object: x[0], T: 1.3}, {Object: x[1], T: 1.35}} {
		reqs = append(reqs, req)
		wg.Add(1)
		go func(req serve.Request) {
			defer wg.Done()
			if _, err := s.Submit(req); err != nil {
				t.Error(err)
			}
		}(req)
		if k == 0 {
			gs.waitBlocked(t)
		}
	}
	waitDequeued(t, s, 3*len(x)+2)
	gs.failNextSave(0)
	snapErr := make(chan error, 1)
	go func() { snapErr <- s.Snapshot() }()
	gs.waitSaves(t, 1, 2)
	// Shard 0 handled the snapshot request before this read.
	if _, err := s.Stats(); err != nil {
		t.Fatal(err)
	}
	gs.release()
	wg.Wait()
	if err := <-snapErr; err == nil {
		t.Fatal("Snapshot succeeded through an injected save failure")
	}
	if got := serve.SavedFrontier(s, 0); got != prev[0] {
		t.Fatalf("shard 0's save failed, but its saved frontier moved from %v to %v", prev[0], got)
	}
	if got := serve.SavedFrontier(s, 1); got <= prev[1] {
		t.Fatalf("shard 1 saved a snapshot, but its saved frontier stayed at %v (was %v)", got, prev[1])
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Stats(); err != nil {
			t.Fatal(err)
		}
	}
	checkRestoredDrain(t, gs.Mem.Clone(), drainReference(t, reqs, horizon))

	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := serve.SavedFrontier(s, 0); got <= prev[0] {
		t.Fatalf("shard 0 saved a snapshot again, but its saved frontier stayed at %v", got)
	}
}

// TestRestoreSurfacesCorruption: a flipped byte anywhere in a snapshot
// must fail New with an error wrapping store.ErrCorruptSnapshot — never a
// panic, never a silently wrong restore.
func TestRestoreSurfacesCorruption(t *testing.T) {
	reqs := crashTrace(t)
	mem := store.NewMem()
	s, err := serve.New(crashConfig("online", 2, mem, false))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	submitAll(t, s, reqs[:len(reqs)/2])
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s.Close()

	for _, offset := range []int{0, 4, 17, 64, 1000} {
		disk := mem.Clone()
		disk.Corrupt(0, offset)
		bad, err := serve.New(crashConfig("online", 2, disk, true))
		if err == nil {
			bad.Close()
			t.Fatalf("offset %d: corrupted snapshot restored without error", offset)
		}
		if !errors.Is(err, store.ErrCorruptSnapshot) {
			t.Fatalf("offset %d: error %v does not wrap ErrCorruptSnapshot", offset, err)
		}
	}
}
