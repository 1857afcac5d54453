package serve

// White-box benchmark of the shard admit hot path: clock advance across
// the shard's schedulers, gauge event processing, admission control, and
// the scheduler's Admit — everything a request touches inside the event
// loop except materializing the reply ticket (whose receiving-program
// copy is the one intentional per-request allocation, made outside the
// hot path so callers can hold the program).
//
// The path must not allocate per request in steady state: the receiving
// program is appended into a scheduler-owned buffer, gauge events reuse
// the heap's backing array, and group finalization reuses scratch
// buffers.  CI runs this benchmark with -benchmem and fails on a nonzero
// allocs/op, so an accidental per-request allocation (fresh program
// slices, boxing, map churn) is a build break, not a slow drift.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/multiobject"
	"repro/internal/store"
)

// benchShard builds a loop-less shard (no goroutines) so the benchmark
// can drive admitCore directly.  Stage metering is ON, with a counter
// clock standing in for the wall clock: the 0 allocs/op guard covers the
// instrumented admit path, per-stage histogram observation included.
func benchShard(b *testing.B, strategy string) (*shard, *objectState) {
	b.Helper()
	sh := benchShardOf(b, multiobject.Catalog{
		{Name: "hot", Length: 1, Popularity: 4, Delay: 0.01},
		{Name: "warm", Length: 1, Popularity: 2, Delay: 0.02},
		{Name: "mild", Length: 2, Popularity: 1, Delay: 0.05},
		{Name: "cold", Length: 1, Popularity: 1, Delay: 0.04},
	}, strategy)
	return sh, sh.byName["hot"]
}

// benchShardOf builds benchShard's loop-less, metered shard over cat.
func benchShardOf(b *testing.B, cat multiobject.Catalog, strategy string) *shard {
	b.Helper()
	var tick int64
	cfg := Config{Catalog: cat, MaxChannels: 0, MeterStages: true,
		NowNanos: func() int64 { tick += 137; return tick }}
	cfg = cfg.withDefaults()
	srv := newServerShell(cfg)
	sh := newShard(0, srv)
	for i, o := range cat {
		if err := sh.addObject(o, i, strategy); err != nil {
			b.Fatal(err)
		}
	}
	return sh
}

// BenchmarkShardAdmit is the CI allocation guard: one request through the
// shard admit hot path (online strategy, the latency-critical default).
func BenchmarkShardAdmit(b *testing.B) {
	sh, st := benchShard(b, "online")
	b.ReportAllocs()
	b.ResetTimer()
	t := 0.0
	for i := 0; i < b.N; i++ {
		t += 0.003
		sh.admitCore(st, t, sh.srv.cfg.MeterStages, "")
		trimKept(sh)
	}
}

// trimKept empties a loop-less shard's kept set at the settler's trigger.
// A server's settler folds and trims the set; this shard has none, and a
// kept set grown with the run would time its own growth and the
// collector, not the admit path.
func trimKept(sh *shard) {
	if len(sh.kept) >= settleFloor {
		sh.kept = sh.kept[:0]
	}
}

// BenchmarkShardAdmitCatalog is the catalog-size guard of the admit hot
// path: offline-batched on benchShardOf's loop-less metered shard over
// Zipf(1) catalogs of 64 and 16,384 objects at the same total traffic, a
// Poisson trace of 1,000 requests per media length replayed with its
// times shifted one horizon further each pass.  An admission advances
// only the objects due by its clock, so the large catalog pays for its
// epoch boundaries, not for a scan per request: CI fails the fastest of
// three 16,384 runs past twice the fastest 64 run's ns/op, and either
// case past 0 allocs/op.  One
// untimed pass sizes every object's tables first, and a collection then
// clears the set-up's garbage out of the timed loop.
func BenchmarkShardAdmitCatalog(b *testing.B) {
	for _, k := range []int{64, 16384} {
		b.Run(fmt.Sprintf("objects=%d", k), func(b *testing.B) {
			cat := multiobject.ZipfCatalog(k, 1, 0.02, 1)
			const horizon = 30
			reqs, err := GenerateRequests(cat, LoadConfig{Horizon: horizon, MeanInterArrival: 0.001, Kind: PoissonArrivals, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			sh := benchShardOf(b, cat, "offline-batched")
			sts := make([]*objectState, len(reqs))
			for i, r := range reqs {
				sts[i] = sh.byName[r.Object]
			}
			admit := func(i int) {
				r := i % len(reqs)
				sh.admitCore(sts[r], reqs[r].T+float64(i/len(reqs)*horizon), true, "")
				if len(sh.kept) >= settleFloor {
					// A server's settler folds and trims the kept set; this
					// shard has none, and a kept set grown with the run
					// would time the collector, not the admit path.
					sh.kept = sh.kept[:0]
				}
			}
			for i := range reqs {
				admit(i)
			}
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				admit(len(reqs) + i)
			}
		})
	}
}

// discardStore is a store whose WAL keeps nothing: appends and flushes
// succeed and drop the records, so a durable benchmark times the admit
// path and the commit round trip, not a log that grows with b.N.
type discardStore struct{ *store.Mem }

func (discardStore) AppendWALBatch(int, [][]byte) error { return nil }
func (discardStore) Flush(int, store.SyncMode) error    { return nil }

// durableShard wires a loop-less benchmark shard to a discardStore and a
// live group-commit WAL writer; the returned stop func drains the writer.
func durableShard(b *testing.B, sh *shard) (stop func()) {
	b.Helper()
	srv := sh.srv
	srv.cfg.Store = discardStore{store.NewMem()}
	srv.walRepair = make([]atomic.Bool, 1) // invariant: non-nil whenever walCh is
	sh.walCh = make(chan walMsg, queueDepth)
	srv.walWG.Add(1)
	go srv.walWriter(sh)
	return func() {
		close(sh.walCh)
		srv.walWG.Wait()
	}
}

// batchMsg builds a submission message of n requests cycling over
// benchShard's catalog, with its own results (and, on a durable shard,
// records) sized as SubmitBatch and send size them, stamped so the loop
// meters its queue wait.  restamp sets the requests' times.
func batchMsg(sh *shard, n int) *submitMsg {
	m := sh.srv.newSubmitMsg()
	m.res = make([]SubmitResult, n)
	if sh.srv.cfg.Store != nil {
		m.recs = make([][walRecSize]byte, n)
	}
	names := []string{"hot", "warm", "mild", "cold"}
	for i := 0; i < n; i++ {
		name := names[i%len(names)]
		m.reqs = append(m.reqs, routed{req: Request{Object: name}, st: sh.byName[name], at: i})
	}
	m.enqueueNS = 1
	return m
}

// restamp times m's requests 0.0001 apart after t and returns the last
// time, so successive submissions move the clock on and every object's
// epoch closes, once per 200 to 1,000 256-entry batches, as in a served
// run.
func restamp(m *submitMsg, t float64) float64 {
	for i := range m.reqs {
		t += 0.0001
		m.reqs[i].req.T = t
	}
	return t
}

// BenchmarkShardAdmitDurable extends the allocation guard to the durable
// single-submit path the shard loop runs: shard.submit admits, fills the
// WAL record in the message and hands the message to the group-commit
// WAL writer as one walSubmit; the benchmark then waits for the ack.
// The record is a fixed-size array inside the submitter's message, so
// durability must add zero allocations per admitted request.  The
// strategy is batching, whose tickets carry no receiving program: the
// online ticket's program copy is the one intentional per-request
// allocation, and it would hide any other.
func BenchmarkShardAdmitDurable(b *testing.B) {
	sh, st := benchShard(b, "batching")
	stop := durableShard(b, sh)
	defer stop()
	m := batchMsg(sh, 1)
	b.ReportAllocs()
	b.ResetTimer()
	t := 0.0
	for i := 0; i < b.N; i++ {
		t += 0.003
		m.reqs[0] = routed{req: Request{Object: "hot", T: t}, st: st}
		sh.submit(m)
		trimKept(sh)
		<-m.done
	}
}

// BenchmarkShardAdmitDurableBatch is the batch half of the durable
// allocation guard: a 256-entry message through shard.submit, which
// hands all 256 records to the writer as one walSubmit, and the commit
// round-trip.  The whole batch must amortize to 0 allocs/op.
func BenchmarkShardAdmitDurableBatch(b *testing.B) {
	sh, _ := benchShard(b, "batching")
	stop := durableShard(b, sh)
	defer stop()
	m := batchMsg(sh, 256)
	b.ReportAllocs()
	b.ResetTimer()
	t := 0.0
	for i := 0; i < b.N; i++ {
		t = restamp(m, t)
		sh.submit(m)
		trimKept(sh)
		<-m.done
	}
}

// BenchmarkSnapshotCapture is the allocation guard of the loop's share
// of a snapshot: captureSnapshot on a loop-less 64-object shard after
// 20,000 admissions, its buffer recycled through snapFree as in
// production.  The loop copies the bulk arrays and encodes the object
// sections into the recycled buffer's retained storage, so once one
// capture has sized it, a capture must not allocate.  The admissions
// span 6 time units, past the first 5.12-unit epoch of the offline
// objects, whose sections then carry closed-epoch totals and an open
// epoch's trace.
func BenchmarkSnapshotCapture(b *testing.B) {
	for _, strategy := range []string{"online", "offline"} {
		b.Run(strategy, func(b *testing.B) {
			sh := benchShardOf(b, multiobject.ZipfCatalog(64, 1, 0.01, 1), strategy)
			sh.snapFree = make(chan *shardSnapshotState, 2)
			t := 0.0
			for i := 0; i < 20000; i++ {
				t += 0.0003
				sh.admitCore(sh.objects[i%len(sh.objects)], t, sh.srv.cfg.MeterStages, "")
			}
			sh.releaseSnapState(sh.captureSnapshot())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.releaseSnapState(sh.captureSnapshot())
			}
		})
	}
}

// BenchmarkShardSubmit measures the full public Submit round-trip through
// a running shard event loop (channel send, admit, ticket with program
// copy) — the end-to-end per-request cost the HTTP layer pays.
func BenchmarkShardSubmit(b *testing.B) {
	cat := multiobject.ZipfCatalog(16, 1.0, 0.01, 1.0)
	s, err := New(Config{Catalog: cat, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	t := 0.0
	for i := 0; i < b.N; i++ {
		t += 0.002
		if _, err := s.Submit(Request{Object: "object-01", T: t}); err != nil {
			b.Fatal(err)
		}
	}
}
