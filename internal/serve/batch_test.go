package serve

// White-box tests of batched shard submission: SubmitBatch must cross
// each shard's message channel exactly once per batch and produce
// tickets byte-identical to sequential Submit calls.

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/multiobject"
)

func batchCatalog() multiobject.Catalog {
	return multiobject.Catalog{
		{Name: "hot", Length: 1, Popularity: 4, Delay: 0.125},
		{Name: "warm", Length: 2, Popularity: 2, Delay: 0.25},
		{Name: "mild", Length: 1, Popularity: 1, Delay: 0.0625},
		{Name: "cold", Length: 0.5, Popularity: 1, Delay: 0.25},
	}
}

func batchRequests(cat multiobject.Catalog, n int) []Request {
	reqs := make([]Request, n)
	t := 0.0
	for i := range reqs {
		t += 0.003
		reqs[i] = Request{Object: cat[i%len(cat)].Name, T: t}
	}
	return reqs
}

// TestSubmitBatchMatchesSequential: the same request sequence through
// SubmitBatch and through per-request Submit yields identical tickets,
// identical errors, and identical drained accounting.
func TestSubmitBatchMatchesSequential(t *testing.T) {
	cat := batchCatalog()
	reqs := batchRequests(cat, 400)
	// Sprinkle unknown objects through the batch.
	reqs[7].Object = "nope"
	reqs[133].Object = "nadir"

	mk := func() *Server {
		s, err := New(Config{Catalog: cat, Shards: 2, DefaultStrategy: "batching", EpochSlots: 64})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	seq := mk()
	defer seq.Close()
	seqTickets := make([]Ticket, len(reqs))
	seqErrs := make([]string, len(reqs))
	for i, req := range reqs {
		tk, err := seq.Submit(req)
		if err != nil {
			seqErrs[i] = err.Error()
			continue
		}
		seqTickets[i] = tk
	}

	bat := mk()
	defer bat.Close()
	for k := 0; k < len(reqs); k += 150 { // multiple batches, ragged tail
		end := k + 150
		if end > len(reqs) {
			end = len(reqs)
		}
		for off, res := range bat.SubmitBatch(reqs[k:end]) {
			i := k + off
			if res.Err != nil {
				if res.Err.Error() != seqErrs[i] {
					t.Fatalf("request %d: batch err %q, sequential err %q", i, res.Err, seqErrs[i])
				}
				if !errors.Is(res.Err, ErrUnknownObject) {
					t.Fatalf("request %d: err %v does not wrap ErrUnknownObject", i, res.Err)
				}
				continue
			}
			if seqErrs[i] != "" {
				t.Fatalf("request %d: batch succeeded, sequential failed with %q", i, seqErrs[i])
			}
			if !reflect.DeepEqual(res.Ticket, seqTickets[i]) {
				t.Fatalf("request %d: batch ticket %+v != sequential %+v", i, res.Ticket, seqTickets[i])
			}
		}
	}

	seqDrain, err := seq.Drain(4)
	if err != nil {
		t.Fatal(err)
	}
	batDrain, err := bat.Drain(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqDrain.Objects, batDrain.Objects) {
		t.Fatalf("drained object stats diverge:\nseq   %+v\nbatch %+v", seqDrain.Objects, batDrain.Objects)
	}
}

// TestSubmitBatchOneSendPerShard pins the channel economics: a batch
// spanning every object crosses each shard's message channel exactly
// once, however many entries it has.
func TestSubmitBatchOneSendPerShard(t *testing.T) {
	cat := batchCatalog()
	cfg := (&Config{Catalog: cat, Shards: 2, DefaultStrategy: "batching"}).withDefaults()
	srv := newServerShell(cfg)
	defer close(srv.quit)
	srv.shards = []*shard{newShard(0, srv), newShard(1, srv)}
	for i, o := range cat {
		sh := srv.shards[shardIndex(o.Name, 2)]
		if err := sh.addObject(o, i, "batching"); err != nil {
			t.Fatal(err)
		}
		srv.byName[o.Name] = route{sh: sh, st: sh.byName[o.Name]}
	}
	// Counting loops instead of shard.loop: every channel receive is one
	// send from SubmitBatch.
	var sends [2]atomic.Int64
	for i, sh := range srv.shards {
		i, sh := i, sh
		go func() {
			for {
				select {
				case m := <-sh.msgs:
					sends[i].Add(1)
					if msg, ok := m.(*submitMsg); ok {
						sh.submit(msg)
					}
				case <-srv.quit:
					return
				}
			}
		}()
	}

	reqs := batchRequests(cat, 1000)
	for _, res := range srv.SubmitBatch(reqs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	for i := range sends {
		if got := sends[i].Load(); got != 1 {
			t.Fatalf("shard %d received %d messages for one 1000-entry batch, want 1", i, got)
		}
	}
}

// TestSubmitBatchClosed: a closed server answers every routed entry with
// ErrClosed, like Submit.
func TestSubmitBatchClosed(t *testing.T) {
	cat := batchCatalog()
	s, err := New(Config{Catalog: cat, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	res := s.SubmitBatch(batchRequests(cat, 4))
	for i, r := range res {
		if !errors.Is(r.Err, ErrClosed) {
			t.Fatalf("entry %d after Close: err = %v, want ErrClosed", i, r.Err)
		}
	}
}

// BenchmarkShardAdmitBatch is the CI allocation guard for the batch
// admit path: a 256-entry message through shard.submit on the shard
// loop's side, into the message's own ticket buffer, must not allocate
// for a program-less strategy.  Stage metering is on (benchShard), and
// the message's enqueue stamp takes the histogram-observation branch,
// so the guard covers the fully instrumented path.
func BenchmarkShardAdmitBatch(b *testing.B) {
	sh, _ := benchShard(b, "batching")
	m := batchMsg(sh, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.submit(m)
		<-m.done
	}
}

// BenchmarkBatchSubmit measures the end-to-end batched submission path —
// one SubmitBatch round trip per op, 1000 entries, one channel send per
// shard — against which BenchmarkShardSubmit (one send per request) is
// the per-entry baseline.
func BenchmarkBatchSubmit(b *testing.B) {
	cat := multiobject.ZipfCatalog(16, 1.0, 0.01, 1.0)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := New(Config{Catalog: cat, Shards: shards, DefaultStrategy: "batching"})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			const batch = 1000
			reqs := make([]Request, batch)
			t := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range reqs {
					t += 0.00002
					reqs[j] = Request{Object: cat[j%len(cat)].Name, T: t}
				}
				for _, res := range s.SubmitBatch(reqs) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		})
	}
}
