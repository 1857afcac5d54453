package serve

import (
	"math"
	"sync"

	"repro/internal/bandwidth"
)

// peakFold keeps the historical peak and busy time behind Stats and
// Metrics up to date across reads.  Each read folds in only the intervals
// the shards finalized since the previous read.  It then settles the
// profile before the smallest shard frontier, since no stream still to
// be finalized starts before it.  So a read costs O(objects + streams
// finalized since the last read + streams ending after the frontier), not
// O(history).
type peakFold struct {
	mu      sync.Mutex
	tracker bandwidth.Tracker
	// cursor[i] counts shard i's finalized intervals folded so far; busy[i]
	// sums their durations in finalization order, the order Usage.Total
	// uses.
	cursor []int
	busy   []float64
}

func newPeakFold(shards int) peakFold {
	return peakFold{cursor: make([]int, shards), busy: make([]float64, shards)}
}

// cursors copies the fold cursors: where each shard's next snapshot
// should start its interval list.
func (f *peakFold) cursors() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.cursor...)
}

// fold adds the intervals of snaps (one per shard, in shard order) not
// folded yet, settles the profile before the smallest shard frontier, and
// returns the historical peak and busy time.  A concurrent read may have
// folded a newer snapshot of a shard first; its intervals are skipped,
// and its frontier, older than the tracker's, settles nothing.
func (f *peakFold) fold(snaps []shardSnapshot) (peak int, busy float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := math.Inf(1)
	for i := range snaps {
		snap := &snaps[i]
		w = min(w, snap.frontier)
		for _, iv := range snap.intervals[min(f.cursor[i]-snap.from, len(snap.intervals)):] {
			f.busy[i] += iv.Duration()
			f.tracker.Add(iv.Start, iv.End)
		}
		f.cursor[i] = max(f.cursor[i], snap.from+len(snap.intervals))
	}
	f.tracker.Settle(w)
	for _, b := range f.busy {
		busy += b
	}
	return f.tracker.Peak(), busy
}
