package serve

import (
	"math"
	"sync"

	"repro/internal/bandwidth"
)

// peakFold keeps the historical peak behind Stats and Metrics up to date
// across reads.  Each read folds in only the intervals the shards
// finalized since the previous fold.  It then settles the profile before
// the smallest shard frontier, since no stream still to be finalized
// starts before it.  So a read costs O(objects + streams finalized since
// the last fold + streams ending after the frontier), not O(history).
// The settler goroutine runs the same fold when nobody reads.
//
// The fold also decides what the shards may forget.  Every point the
// tracker settles at is logged with its settled peak; the newest logged
// point at or before every shard's last saved snapshot frontier is the
// durable settle point.  A fold also settles at that minimum saved
// frontier when the tracker has not passed it yet, so the durable point
// usually equals it rather than an older fold's frontier.  Each fold hands
// the durable point to the shards, which drop the folded intervals that
// end by it, and snapshots persist it: every interval that starts before
// it was finalized before each shard's last saved snapshot, so its peak
// depends on durable state only.  Without a store the bound is +Inf and
// the durable point is the newest settle.
type peakFold struct {
	mu      sync.Mutex
	tracker bandwidth.Tracker
	// cursor[i] counts shard i's finalized intervals folded so far.
	cursor []int
	// log holds the points the tracker settled at, oldest first; log[0]
	// is the durable settle point as of the last request.
	log []settlePoint
}

// settlePoint is a point the peak tracker settled at, with the peak of
// the count profile before it.
type settlePoint struct {
	at   float64
	peak int
}

func newPeakFold(shards int) peakFold {
	return peakFold{cursor: make([]int, shards), log: []settlePoint{{}}}
}

// resume restarts the fold from a restored durable settle point: the
// tracker is settled there, and the shards' kept intervals, all unfolded,
// are folded again by the first fold.
func (f *peakFold) resume(d settlePoint) {
	f.tracker = bandwidth.NewTracker(d.at, d.peak)
	f.log = append(f.log[:0], d)
}

// request returns the fold cursors, where each shard's next answer should
// start its interval list, and the durable settle point: the newest
// logged point at or before bound, the minimum saved frontier.  Older
// log entries are pruned.
func (f *peakFold) request(bound float64) ([]int, settlePoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := 0
	for k+1 < len(f.log) && f.log[k+1].at <= bound {
		k++
	}
	f.log = f.log[:copy(f.log, f.log[k:])]
	return append([]int(nil), f.cursor...), f.log[0]
}

// fold adds the intervals of snaps (one per shard, in shard order) not
// folded yet and settles the profile before the smallest shard frontier
// w.  When floor, the minimum saved frontier, lies between the tracker's
// frontier and w, it settles at floor first: with floor itself logged,
// the next request's durable settle point is the saved frontier, so a
// snapshot keeps just the intervals that end after the previous saved
// snapshot's frontier, not after whichever fold happened to precede it.
// A fold that ran between a capture and its save has already passed the
// captured frontier; the durable point then stays at the older logged
// point, which is still safe.  It logs each new settle point and returns
// the historical peak.  A concurrent read may have folded a newer
// snapshot of a shard first; its intervals are skipped, and its
// frontier, older than the tracker's, settles nothing.  Both settles and
// the peak come from one sort of the pending intervals (Tracker.Fold).
func (f *peakFold) fold(snaps []shardSnapshot, floor float64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := math.Inf(1)
	for i := range snaps {
		snap := &snaps[i]
		w = min(w, snap.frontier)
		for _, iv := range snap.intervals[min(f.cursor[i]-snap.from, len(snap.intervals)):] {
			f.tracker.Add(iv.Start, iv.End)
		}
		f.cursor[i] = max(f.cursor[i], snap.from+len(snap.intervals))
	}
	cuts := [2]float64{min(floor, w), w}
	return f.tracker.Fold(cuts[:], func(at float64, peak int) {
		if at > f.log[len(f.log)-1].at {
			f.log = append(f.log, settlePoint{at: at, peak: peak})
		}
	})
}
