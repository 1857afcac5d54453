package serve

// Tests of the live channel gauge's fast paths: a stream that has ended by
// the shard clock when its scheduler reports it, and a truncation whose
// true end has passed, change the gauge at once instead of queueing an
// event that the next popEnds would apply.  The heap must never hold an
// event at or before the clock after an admission, the gauge must equal a
// recount of every event the schedulers reported, and what a drain
// reports must not move.

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/live"
	"repro/internal/multiobject"
)

// gaugeCatalog has short slots, so the epoch strategies close an epoch
// every 8 slots and splice in streams that mostly ended before the close.
func gaugeCatalog() multiobject.Catalog {
	return multiobject.Catalog{
		{Name: "hot", Length: 1, Popularity: 4, Delay: 0.03125},
		{Name: "warm", Length: 1, Popularity: 2, Delay: 0.0625},
		{Name: "mild", Length: 0.5, Popularity: 1, Delay: 0.0625},
	}
}

// gaugeShard builds a loop-less single shard over gaugeCatalog, with
// 8-slot epochs and the given channel cap.
func gaugeShard(t *testing.T, strategy string, maxChannels int) *shard {
	t.Helper()
	cfg := Config{Catalog: gaugeCatalog(), EpochSlots: 8, MaxChannels: maxChannels}
	cfg = cfg.withDefaults()
	sh := newShard(0, newServerShell(cfg))
	for i, o := range cfg.Catalog {
		if err := sh.addObject(o, i, strategy); err != nil {
			t.Fatal(err)
		}
	}
	return sh
}

// gaugeTrace is the request trace both tests replay.
func gaugeTrace(t *testing.T) []Request {
	t.Helper()
	reqs, err := GenerateRequests(gaugeCatalog(), LoadConfig{Horizon: 6, MeanInterArrival: 0.01, Kind: PoissonArrivals, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// gaugeEvent is one gauge change a Sink call implies: delta at time t.
type gaugeEvent struct {
	t     float64
	delta int64
}

// teeSink records every gauge-relevant Sink call and forwards it to the
// shard, so the test can recount the gauge without the shard's heap.
type teeSink struct {
	sh      *shard
	started int64
	events  []gaugeEvent
	// elapsed counts the streams reported after their end, the ones the
	// fast path skips.
	elapsed int
}

func (r *teeSink) StreamStarted(estEnd float64) {
	if estEnd <= r.sh.now {
		r.elapsed++
	}
	r.started++
	r.events = append(r.events, gaugeEvent{estEnd, -1})
	r.sh.StreamStarted(estEnd)
}

func (r *teeSink) ProvisionalStarted(estEnd float64) {
	r.started++
	r.events = append(r.events, gaugeEvent{estEnd, -1})
	r.sh.ProvisionalStarted(estEnd)
}

func (r *teeSink) StreamFinalized(start, length float64) { r.sh.StreamFinalized(start, length) }

func (r *teeSink) StreamTrimmed(end, staleEnd float64) {
	r.events = append(r.events, gaugeEvent{end, -1}, gaugeEvent{staleEnd, +1})
	r.sh.StreamTrimmed(end, staleEnd)
}

// recount is the live channel count at time now: one per stream or
// placeholder started, plus every retirement and correction at or before
// now.
func (r *teeSink) recount(now float64) int64 {
	c := r.started
	for _, e := range r.events {
		if e.t <= now {
			c += e.delta
		}
	}
	return c
}

// checkHeap fails unless every pending gauge event lies after the clock and
// the gauge equals minus the pending deltas (each channel the gauge counts
// has exactly one pending retirement, the invariant restore relies on).
func checkHeap(t *testing.T, sh *shard, where string) {
	t.Helper()
	var pending int64
	for _, e := range sh.ends {
		if e.t <= sh.now {
			t.Fatalf("%s: heap holds an event at %v, clock %v", where, e.t, sh.now)
		}
		pending += int64(e.delta)
	}
	if g := sh.srv.gauge.Load(); g != -pending {
		t.Fatalf("%s: gauge %d, pending retirements %d", where, g, -pending)
	}
}

// TestGaugeMatchesRecount replays a trace through every live strategy with
// each scheduler reporting through a recording sink: after every
// admission, and after the drain, the heap holds nothing at or before the
// clock and the gauge equals the recount.  The strategies whose plans end
// streams inside an epoch must report some after their end, or the fast
// path is untested.
func TestGaugeMatchesRecount(t *testing.T) {
	reqs := gaugeTrace(t)
	for _, strategy := range LivePlanners() {
		t.Run(strategy, func(t *testing.T) {
			sh := gaugeShard(t, strategy, 0)
			tee := &teeSink{sh: sh}
			for _, st := range sh.objects {
				cfg := sh.liveConfig(st.obj, st.delay)
				cfg.Sink = tee
				sched, err := live.New(strategy, cfg)
				if err != nil {
					t.Fatal(err)
				}
				st.sched = sched
			}
			for i, req := range reqs {
				sh.apply(sh.byName[req.Object], req.T, false)
				where := fmt.Sprintf("request %d", i)
				checkHeap(t, sh, where)
				if g, want := sh.srv.gauge.Load(), tee.recount(sh.now); g != want {
					t.Fatalf("%s: gauge %d, recount %d", where, g, want)
				}
			}
			sh.drain(6)
			checkHeap(t, sh, "drain")
			if g, want := sh.srv.gauge.Load(), tee.recount(sh.now); g != want {
				t.Fatalf("drain: gauge %d, recount %d", g, want)
			}
			// online reports each stream as it starts, and batching's full
			// streams outlive their 8-slot epoch's close.
			if strategy != "online" && strategy != "batching" && tee.elapsed == 0 {
				t.Fatal("no stream was reported after its end: the fast path never ran")
			}
			t.Logf("%d of %d streams and placeholders reported after their end", tee.elapsed, tee.started)
		})
	}
}

// gaugeDigests are the drained totals of TestGaugeCapUnchanged's capped
// run, recorded when the shard still queued every gauge event: admitted,
// degraded and rejected counts and an FNV-64a digest of every object's
// delay epoch, streams, cost bits and busy-time bits.
var gaugeDigests = map[string]string{
	"batching":        "455/27/120 a231fb5fc9d1f61e",
	"dyadic":          "83/27/492 d30351c30086724a",
	"dyadic-batched":  "456/27/119 31915abbb14694ad",
	"hybrid":          "467/27/108 73873842f467133",
	"offline":         "85/27/490 1a9109318d10655c",
	"offline-batched": "456/27/119 ab3a85428d949a11",
	"online":          "467/27/108 942fe40bd366204f",
	"unicast":         "70/27/505 79579d8ec8077b76",
}

// TestGaugeCapUnchanged replays the trace under a channel cap, so every
// admission decision reads the gauge and degradations rebuild schedulers:
// after every admission the heap holds nothing at or before the clock
// (a degradation drains a scheduler after popEnds, so with every event
// queued it did), and the drained totals equal gaugeDigests.
func TestGaugeCapUnchanged(t *testing.T) {
	reqs := gaugeTrace(t)
	for _, strategy := range LivePlanners() {
		t.Run(strategy, func(t *testing.T) {
			sh := gaugeShard(t, strategy, 12)
			for i, req := range reqs {
				sh.apply(sh.byName[req.Object], req.T, false)
				checkHeap(t, sh, fmt.Sprintf("request %d", i))
			}
			sh.drain(6)
			checkHeap(t, sh, "drain")
			h := fnv.New64a()
			for _, st := range sh.objects {
				tot := st.totals()
				fmt.Fprintf(h, "%s %d %d %x %x;", st.obj.Name, st.epoch, tot.Streams,
					math.Float64bits(tot.Cost), math.Float64bits(tot.BusyTime))
			}
			got := fmt.Sprintf("%d/%d/%d %x", sh.admittedL, sh.degradedL, sh.rejectedL, h.Sum64())
			if sh.degradedL == 0 {
				t.Fatalf("%s: the cap never degraded an object", got)
			}
			if want := gaugeDigests[strategy]; got != want {
				t.Fatalf("drained totals %s, want %s", got, want)
			}
		})
	}
}
