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
	cat := multiobject.Catalog{
		{Name: "hot", Length: 1, Popularity: 4, Delay: 0.01},
		{Name: "warm", Length: 1, Popularity: 2, Delay: 0.02},
		{Name: "mild", Length: 2, Popularity: 1, Delay: 0.05},
		{Name: "cold", Length: 1, Popularity: 1, Delay: 0.04},
	}
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
	return sh, sh.byName["hot"]
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
	}
}

// durableShard wires a loop-less benchmark shard to a Mem store and a
// live group-commit WAL writer; the returned stop func drains the writer.
func durableShard(b *testing.B, sh *shard) (stop func()) {
	b.Helper()
	srv := sh.srv
	srv.cfg.Store = store.NewMem()
	srv.walRepair = make([]atomic.Bool, 1) // invariant: non-nil whenever walCh is
	sh.walCh = make(chan walMsg, srv.cfg.QueueDepth)
	srv.walWG.Add(1)
	go srv.walWriter(sh)
	return func() {
		close(sh.walCh)
		srv.walWG.Wait()
	}
}

// batchMsg builds a submission message of n requests at T 0.5 cycling
// over benchShard's catalog, stamped so the loop meters its queue wait.
func batchMsg(sh *shard, n int) *submitMsg {
	m := sh.srv.newSubmitMsg(n)
	names := []string{"hot", "warm", "mild", "cold"}
	for i := 0; i < n; i++ {
		name := names[i%len(names)]
		m.reqs = append(m.reqs, routed{req: Request{Object: name, T: 0.5}, st: sh.byName[name]})
	}
	m.enqueueNS = 1
	return m
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
	for i := 0; i < b.N; i++ {
		sh.submit(m)
		<-m.done
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
