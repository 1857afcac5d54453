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
		sh.admitCore(st, t, sh.srv.cfg.MeterStages)
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

// BenchmarkShardAdmitDurable extends the allocation guard to the durable
// single-submit path the shard loop runs: submitDurable fills the WAL
// record, admits, and hands record, ticket and reply channel to the
// group-commit WAL writer as one walSubmit message; the benchmark then
// waits for the ack.  The record travels as a fixed-size array inside
// the channel message, so durability must add zero allocations per
// admitted request.  The strategy is batching, whose tickets carry no
// receiving program: the online ticket's program copy is the one
// intentional per-request allocation, and it would hide any other.
func BenchmarkShardAdmitDurable(b *testing.B) {
	sh, st := benchShard(b, "batching")
	stop := durableShard(b, sh)
	defer stop()
	q := &sh.srv.queues[sh.id]
	reply := make(chan Ticket, 1)
	b.ReportAllocs()
	b.ResetTimer()
	t := 0.0
	for i := 0; i < b.N; i++ {
		t += 0.003
		sh.submitDurable(st, Request{Object: "hot", T: t}, 137, reply, q)
		<-reply
	}
}

// BenchmarkShardAdmitDurableBatch is the batch half of the durable
// allocation guard: 256 requests through admitBatch (which sends one
// record-only walSubmit per entry) followed by one walBatchAck commit
// round-trip.  The whole batch must amortize to 0 allocs/op.
func BenchmarkShardAdmitDurableBatch(b *testing.B) {
	sh, _ := benchShard(b, "batching")
	stop := durableShard(b, sh)
	defer stop()
	const batch = 256
	names := []string{"hot", "warm", "mild", "cold"}
	reqs := make([]Request, batch)
	out := make([]Ticket, batch)
	for i := range reqs {
		reqs[i] = Request{Object: names[i%len(names)], T: 0.5}
	}
	done := make(chan struct{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.admitBatch(reqs, out, 4096)
		sh.walCh <- walMsg{kind: walBatchAck, done: done}
		<-done
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
