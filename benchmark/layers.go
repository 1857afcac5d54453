package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/live"
	"repro/internal/offline"
	"repro/internal/serve"
)

// layerSet collects the traced pass's per-layer metrics.  A metric that
// does not apply to the workload reads 0 and carries its reason.
type layerSet struct {
	m       map[string]metric
	reasons map[string]string
}

func (l *layerSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		l.na(name, unit, "no samples")
		return
	}
	l.m[name] = metric{v, unit}
}

func (l *layerSet) na(name, unit, reason string) {
	l.m[name] = metric{0, unit}
	l.reasons[name] = reason
}

// layerMetrics computes every per-layer metric from the traced pass: the
// recorder's spans and totals, the server's own stage histograms and
// counters, and direct drives of the live and offline layers over the
// arrivals the pass sent.
func (r *runner) layerMetrics(p *pass, rec *recorder) (map[string]metric, error) {
	l := &layerSet{m: map[string]metric{}, reasons: map[string]string{}}
	w := r.o.w
	noHTTP := "in-process workload: no HTTP layer"

	// serve: HTTP handler, stage means, queue, reads, WAL flushes.
	if w.wire {
		sat := rec.durations(spanHTTPAdmit, p.satWindow[0], p.satWindow[1])
		l.set("serve.http.handler_us_mean", "us", mean(sat)/1e3)
		open := rec.byRequest(spanHTTPAdmit, p.openWindow[0], p.openWindow[1])
		hs := make([]float64, 0, len(open))
		for _, ns := range open {
			hs = append(hs, float64(ns))
		}
		l.set("serve.http.handler_us_p50", "us", median(hs)/1e3)
		var transport []float64
		for _, c := range p.clientNS {
			if h, ok := open[c[0]]; ok {
				transport = append(transport, float64(c[1]-h))
			}
		}
		l.set("serve.http.transport_us_p50", "us", median(transport)/1e3)
	} else {
		for _, n := range []string{"serve.http.handler_us_mean", "serve.http.handler_us_p50", "serve.http.transport_us_p50"} {
			l.na(n, "us", noHTTP)
		}
	}
	var queue, plan, replan, respond struct{ n, ns int64 }
	for _, st := range p.stages {
		queue.n, queue.ns = queue.n+st.Queue.Count, queue.ns+st.Queue.SumNanos
		plan.n, plan.ns = plan.n+st.Plan.Count, plan.ns+st.Plan.SumNanos
		replan.n, replan.ns = replan.n+st.Replan.Count, replan.ns+st.Replan.SumNanos
		respond.n, respond.ns = respond.n+st.Respond.Count, respond.ns+st.Respond.SumNanos
	}
	stage := func(name string, h struct{ n, ns int64 }, why string) {
		if h.n == 0 {
			l.na(name, "us", why)
			return
		}
		l.set(name, "us", float64(h.ns)/float64(h.n)/1e3)
	}
	stage("serve.stage.queue_us_mean", queue, "no queue samples")
	stage("serve.stage.plan_us_mean", plan, "no plan samples")
	stage("serve.stage.replan_us_mean", replan, "the online strategy never replans")
	stage("serve.stage.respond_us_mean", respond, noHTTP)
	var high int64
	for _, sh := range p.stats.Shards {
		high = max(high, sh.HighWater)
	}
	l.set("serve.queue_high_water", "count", float64(high))
	if w.readEvery > 0 {
		reads := rec.durations(spanHTTPRead, p.openWindow[0], p.satWindow[1])
		l.set("serve.read_ms_p50", "ms", median(reads)/1e6)
	} else {
		l.na("serve.read_ms_p50", "ms", "workload sends no operator reads")
	}
	noStore := "workload runs without a store"
	if w.durable {
		l.set("serve.wal_flushes_per_req", "ratio", float64(p.stats.WALFlushes)/float64(p.runAdmissions))
	} else {
		l.na("serve.wal_flushes_per_req", "ratio", noStore)
	}

	// live: direct drive of the workload's strategy, and the drained
	// replanning summary.
	reqs := r.trace[p.runFrom:p.runTo]
	admitNS, err := driveLive(rec, w.strategy, reqs)
	if err != nil {
		return nil, err
	}
	l.set("live.admit_ns_mean", "ns", admitNS)
	var rs serve.ReplanStats
	for _, o := range p.drained.Objects {
		rs.Replans += o.Replan.Replans
		rs.WarmReplans += o.Replan.WarmReplans
		rs.CellsReused += o.Replan.CellsReused
		rs.CellsRecomputed += o.Replan.CellsRecomputed
		rs.ReplanNanos += o.Replan.ReplanNanos
	}
	if rs.Replans > 0 {
		l.set("live.replans", "count", float64(rs.Replans))
		l.set("live.warm_ratio", "ratio", float64(rs.WarmReplans)/float64(rs.Replans))
		l.set("live.replan_ms_total", "ms", float64(rs.ReplanNanos)/1e6)
	} else {
		l.na("live.replans", "count", "the online strategy never replans")
		l.na("live.warm_ratio", "ratio", "the online strategy never replans")
		l.na("live.replan_ms_total", "ms", "the online strategy never replans")
	}

	// offline: DP cells per request, and ns per cell of a direct drive.
	if w.strategy == "offline" {
		l.set("offline.cells_per_req", "cells", float64(rs.CellsReused+rs.CellsRecomputed)/float64(p.runAdmissions))
		nsPerCell, err := driveOffline(rec, reqs)
		if err != nil {
			return nil, err
		}
		l.set("offline.ns_per_cell", "ns", nsPerCell)
	} else {
		l.na("offline.cells_per_req", "cells", "the online strategy runs no DP")
		l.na("offline.ns_per_cell", "ns", "the online strategy runs no DP")
	}

	// store: decorator totals over the measured server's lifetime, and
	// per restore over the timed set-ups.
	storeNames := map[string]string{
		"store.append_calls": "count", "store.records_per_append": "ratio", "store.append_us_mean": "us",
		"store.flush_us_mean": "us", "store.flushes_per_req": "ratio", "store.snapshot_saves": "count",
		"store.snapshot_kb_mean": "KiB", "store.snapshot_save_ms_mean": "ms", "store.load_snapshot_ms": "ms",
		"store.replay_records": "count", "store.replay_ms": "ms", "store.errors": "count",
	}
	if w.durable {
		d := diffTotals(p.serverTotals[0], p.serverTotals[1])
		appends := d[spanAppendWAL].n + d[spanAppendWALBatch].n
		l.set("store.append_calls", "count", float64(appends))
		l.set("store.records_per_append", "ratio", float64(d[spanAppendWAL].arg+d[spanAppendWALBatch].arg)/float64(appends))
		l.set("store.append_us_mean", "us", float64(d[spanAppendWAL].ns+d[spanAppendWALBatch].ns)/float64(appends)/1e3)
		l.set("store.flush_us_mean", "us", float64(d[spanFlush].ns)/float64(d[spanFlush].n)/1e3)
		l.set("store.flushes_per_req", "ratio", float64(d[spanFlush].n)/float64(p.runAdmissions))
		l.set("store.snapshot_saves", "count", float64(d[spanSaveSnapshot].n))
		l.set("store.snapshot_kb_mean", "KiB", float64(d[spanSaveSnapshot].arg)/float64(d[spanSaveSnapshot].n)/1024)
		l.set("store.snapshot_save_ms_mean", "ms", float64(d[spanSaveSnapshot].ns)/float64(d[spanSaveSnapshot].n)/1e6)
		s := diffTotals(p.setupTotals[0], p.setupTotals[1])
		restores := float64(len(p.setups))
		l.set("store.load_snapshot_ms", "ms", float64(s[spanLoadSnapshot].ns)/restores/1e6)
		l.set("store.replay_records", "count", float64(s[spanReplayWAL].arg)/restores)
		l.set("store.replay_ms", "ms", float64(s[spanReplayWAL].ns)/restores/1e6)
		tot := rec.snapshotTotals()
		var errs int64
		for _, n := range []spanName{spanAppendWAL, spanAppendWALBatch, spanFlush, spanSaveSnapshot, spanLoadSnapshot, spanReplayWAL, spanStoreClose} {
			errs += tot[n].errs
		}
		l.set("store.errors", "count", float64(errs))
	} else {
		for n, unit := range storeNames {
			l.na(n, unit, noStore)
		}
	}

	// runtime: allocation and GC over the saturation phase (wire) or the
	// measured iterations (batch), and goroutines left after Close.
	l.set("runtime.alloc_bytes_per_req", "B", p.sat.allocBytes/float64(p.satReqs))
	l.set("runtime.gc_cycles", "count", p.sat.gcCycles)
	l.set("runtime.gc_cpu_pct", "%", 100*p.sat.gcCPU.Seconds()/p.sat.cpu.Seconds())
	l.set("runtime.goroutines_end", "count", float64(p.goroutinesEnd))

	names := make([]string, 0, len(l.m))
	for n := range l.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if why, ok := l.reasons[n]; ok {
			r.printf("%s layer %s = n/a (%s)", w.name, n, why)
			continue
		}
		r.printf("%s layer %s = %.6g %s", w.name, n, l.m[n].Value, l.m[n].Unit)
	}
	return l.m, nil
}

func diffTotals(a, b [numSpanNames]spanTotals) [numSpanNames]spanTotals {
	var d [numSpanNames]spanTotals
	for i := range d {
		d[i] = spanTotals{n: b[i].n - a[i].n, ns: b[i].ns - a[i].ns, arg: b[i].arg - a[i].arg, errs: b[i].errs - a[i].errs}
	}
	return d
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// perObjectTimes splits requests into each catalog object's arrival
// times, in catalog order.
func perObjectTimes(reqs []serve.Request) [][]float64 {
	cat := catalog()
	idx := make(map[string]int, len(cat))
	for i, o := range cat {
		idx[o.Name] = i
	}
	out := make([][]float64, len(cat))
	for _, q := range reqs {
		i := idx[q.Object]
		out[i] = append(out[i], q.T)
	}
	return out
}

// driveLive drives live.New(strategy, cfg) directly over each object's
// arrivals, one scheduler per object as the shard keeps them, and
// returns the mean Admit time in ns.
func driveLive(rec *recorder, strategy string, reqs []serve.Request) (float64, error) {
	cat := catalog()
	var total time.Duration
	var n int64
	for i, times := range perObjectTimes(reqs) {
		if len(times) == 0 {
			continue
		}
		obj := cat[i]
		// Slot 0 at the first arrival's slot: a scheduler based at 0 would
		// first open a stream for every empty slot before it.
		base := math.Floor(times[0]/obj.Delay) * obj.Delay
		inc, err := live.New(strategy, live.Config{Object: obj, Base: base, EpochSlots: serverEpochSlots, PlanWorkers: 1})
		if err != nil {
			return 0, err
		}
		sp := rec.begin(spanLiveDrive, int64(i))
		start := time.Now()
		for _, t := range times {
			inc.Admit(t)
		}
		d := time.Since(start)
		rec.end(sp, spanLiveDrive, int64(len(times)), nil)
		total += d
		n += int64(len(times))
	}
	if n == 0 {
		return math.NaN(), nil
	}
	return float64(total) / float64(n), nil
}

// warmAbsorbMin mirrors warm replanning's absorption rule
// (internal/live): an Extend once warmAbsorbMin+absorbed/8 arrivals are
// pending.
const warmAbsorbMin = 32

// driveOffline times offline.ComputeTables, Tables.Extend,
// Tables.AdvancePartition and SolveForest over each object's per-epoch
// arrival sets, in the call sequence of warm replanning, and returns ns
// per DP cell.
func driveOffline(rec *recorder, reqs []serve.Request) (float64, error) {
	ctx := context.Background()
	cat := catalog()
	var total time.Duration
	var cells int64
	for i, times := range perObjectTimes(reqs) {
		epochLen := serverEpochSlots * cat[i].Delay
		for _, set := range epochSets(times, epochLen) {
			sp := rec.begin(spanOfflineEpoch, int64(i))
			start := time.Now()
			tab, err := absorbEpoch(ctx, set)
			if err == nil {
				_, err = tab.SolveForest(mediaLength)
			}
			d := time.Since(start)
			if err != nil {
				rec.end(sp, spanOfflineEpoch, 0, err)
				return 0, fmt.Errorf("offline drive, object %d: %w", i, err)
			}
			rec.end(sp, spanOfflineEpoch, tab.Cells(), nil)
			total += d
			cells += tab.Cells()
		}
	}
	if cells == 0 {
		return math.NaN(), nil
	}
	return float64(total) / float64(cells), nil
}

// epochSets splits sorted arrival times into epoch-relative, strictly
// increasing sets, one per replanning epoch.
func epochSets(times []float64, epochLen float64) [][]float64 {
	var sets [][]float64
	cur := int64(-1)
	for _, t := range times {
		k := int64(math.Floor(t / epochLen))
		rel := math.Max(t-float64(k)*epochLen, 0)
		if k != cur {
			sets = append(sets, nil)
			cur = k
		}
		s := &sets[len(sets)-1]
		if n := len(*s); n > 0 && rel <= (*s)[n-1] {
			continue
		}
		*s = append(*s, rel)
	}
	return sets
}

// absorbEpoch builds an epoch's tables the way warm replanning does:
// empty tables, then an Extend and an AdvancePartition each time
// warmAbsorbMin+absorbed/8 arrivals are pending, and once more for the
// tail at the epoch's close.
func absorbEpoch(ctx context.Context, times []float64) (*offline.Tables, error) {
	tab, err := offline.ComputeTables(ctx, nil, offline.ReceiveTwo, mediaLength, 1)
	if err != nil {
		return nil, err
	}
	absorbed := 0
	absorb := func(upto int) error {
		if err := tab.Extend(ctx, times[absorbed:upto], 1); err != nil {
			return err
		}
		absorbed = upto
		return tab.AdvancePartition(mediaLength)
	}
	for n := 1; n <= len(times); n++ {
		if n-absorbed >= warmAbsorbMin+absorbed/8 {
			if err := absorb(n); err != nil {
				return nil, err
			}
		}
	}
	if absorbed < len(times) {
		if err := absorb(len(times)); err != nil {
			return nil, err
		}
	}
	return tab, nil
}
