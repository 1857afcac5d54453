package serve

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/multiobject"
	"repro/internal/store"
)

// dueCatalog mixes delays and lengths, so objects fall due at different
// times and the heap's order differs from shard order.
func dueCatalog() multiobject.Catalog {
	cat := make(multiobject.Catalog, 10)
	for i := range cat {
		cat[i] = multiobject.Object{
			Name:       fmt.Sprintf("obj-%d", i),
			Length:     []float64{1, 0.5}[i%2],
			Popularity: 1 / float64(i+1),
			Delay:      []float64{0.03125, 0.0625, 0.05, 0.1}[i%4],
		}
	}
	return cat
}

// dueShards builds loop-less shards over dueCatalog behind one server
// shell, with 8-slot epochs and the given channel cap.
func dueShards(t *testing.T, strategy string, n, maxChannels int) []*shard {
	t.Helper()
	cfg := (&Config{Catalog: dueCatalog(), Shards: n, EpochSlots: 8, MaxChannels: maxChannels}).withDefaults()
	srv := newServerShell(cfg)
	srv.shards = make([]*shard, cfg.Shards)
	for i := range srv.shards {
		srv.shards[i] = newShard(i, srv)
	}
	for i, o := range cfg.Catalog {
		sh := srv.shards[shardIndex(o.Name, cfg.Shards)]
		if err := sh.addObject(o, i, strategy); err != nil {
			t.Fatal(err)
		}
		srv.byName[o.Name] = route{sh: sh, st: sh.byName[o.Name]}
	}
	return srv.shards
}

// checkNothingDue fails unless advancing every object of sh to the shard
// clock is a no-op, as the due heap promises after an admission: no
// scheduler's snapshot section changes, and neither do the gauge, its
// event heap, the kept set or the busy-time sum, which every Sink call
// would touch.  Each object's heap key must also be its scheduler's Due.
func checkNothingDue(t *testing.T, sh *shard, where string) {
	t.Helper()
	gauge, ends, kept, busy := sh.srv.gauge.Load(), len(sh.ends), len(sh.kept), sh.busy
	for _, st := range sh.objects {
		if key, due := sh.due.items[sh.due.pos[st.pos]].at, st.sched.Due(); key != due {
			t.Fatalf("%s: object %s keyed at %v, due at %v", where, st.obj.Name, key, due)
		}
		e := store.NewEncoder()
		st.sched.Encode(e)
		before := e.Finish()
		st.sched.Advance(sh.now)
		e = store.NewEncoder()
		st.sched.Encode(e)
		if !bytes.Equal(e.Finish(), before) {
			t.Fatalf("%s: object %s was due at the clock %v but not advanced", where, st.obj.Name, sh.now)
		}
	}
	if sh.srv.gauge.Load() != gauge || len(sh.ends) != ends || len(sh.kept) != kept || sh.busy != busy {
		t.Fatalf("%s: advancing to the clock %v fired Sink events", where, sh.now)
	}
}

// TestDueHeapLeavesNothingDue replays a trace through every strategy on 1,
// 2 and 5 loop-less shards under a channel cap, so degradations replace
// schedulers: after every admission no object of the admitting shard may
// be left due by its clock.  Halfway, every shard is snapshotted and
// restored onto fresh shards, whose heaps are rebuilt from the restored
// schedulers, and the replay continues there.
func TestDueHeapLeavesNothingDue(t *testing.T) {
	reqs, err := GenerateRequests(dueCatalog(), LoadConfig{Horizon: 6, MeanInterArrival: 0.005, Kind: PoissonArrivals, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range LivePlanners() {
		for _, n := range []int{1, 2, 5} {
			t.Run(fmt.Sprintf("%s/shards=%d", strategy, n), func(t *testing.T) {
				shards := dueShards(t, strategy, n, 20)
				byName := func(shards []*shard, name string) (*shard, *objectState) {
					sh := shards[shardIndex(name, len(shards))]
					return sh, sh.byName[name]
				}
				for i, req := range reqs {
					if i == len(reqs)/2 {
						fresh := dueShards(t, strategy, n, 20)
						for k, sh := range shards {
							e := store.NewEncoder()
							encodeSnapshotState(e, sh.captureSnapshot())
							if err := fresh[k].decodeSnapshot(e.Finish()); err != nil {
								t.Fatal(err)
							}
							checkNothingDue(t, fresh[k], fmt.Sprintf("restored shard %d", k))
						}
						shards = fresh
					}
					sh, st := byName(shards, req.Object)
					sh.apply(st, req.T, false, "")
					checkNothingDue(t, sh, fmt.Sprintf("request %d", i))
				}
				// Restored shards carry the degradations before the cut.
				var degraded int64
				for _, sh := range shards {
					degraded += sh.degradedL
				}
				if degraded == 0 {
					t.Fatal("the cap never degraded an object: no scheduler was replaced")
				}
			})
		}
	}
}
