package bandwidth

import "math"

// Tracker keeps the peak of a growing set of intervals up to date in work
// proportional to what changed, for producers that can bound where their
// future intervals start.  A live server finalizes streams roughly in
// time order: once no stream still to come can start before a frontier
// W, the count profile before W is final.  Settle(W) folds that part of
// the profile into a settled peak and keeps only the intervals that still
// end after W; Peak sorts only those.  The result is exactly Usage.Peak
// over every interval ever added.
//
// The zero value is an empty tracker; NewTracker resumes one from a
// settled pair.  It is not safe for concurrent use.
type Tracker struct {
	// settled is the peak of the count profile before frontier.
	settled  int
	frontier float64
	// pending holds every added interval that ends after frontier.
	pending []Interval
}

// NewTracker returns a tracker settled at frontier, with peak as the
// peak of the count profile before it.  Re-adding every interval that
// ends after frontier then restores a tracker that settled there: a
// re-added interval that starts before frontier only undercounts a part
// of the profile the settled peak already covers.
func NewTracker(frontier float64, peak int) Tracker {
	return Tracker{settled: peak, frontier: frontier}
}

// Add records one interval [start, end).  Empty or inverted intervals are
// ignored, as in Usage.Add.  The peak stays exact only if start is at or
// after every frontier settled so far, or the interval's part before the
// frontier is already in the settled peak (see NewTracker).
func (t *Tracker) Add(start, end float64) {
	if end <= start {
		return
	}
	t.pending = append(t.pending, Interval{Start: start, End: end})
}

// Settle declares that no interval added from now on starts before w.  It
// folds the count profile before w into the settled peak and drops the
// intervals that end by w.  A w at or behind the current frontier is a
// no-op.
func (t *Tracker) Settle(w float64) {
	if w <= t.frontier {
		return
	}
	before, _ := t.sweep(w)
	t.settled = max(t.settled, before)
	t.frontier = w
	kept := t.pending[:0]
	for _, iv := range t.pending {
		if iv.End > w {
			kept = append(kept, iv)
		}
	}
	if cap(kept) > 1024 && cap(kept) > 4*len(kept) {
		// Do not keep alive the backing array of a large fold, such as the
		// first one after a restart.
		kept = append([]Interval(nil), kept...)
	}
	t.pending = kept
}

// Settled returns the current frontier and the peak of the count profile
// before it: the pair NewTracker resumes from.
func (t *Tracker) Settled() (frontier float64, peak int) {
	return t.frontier, t.settled
}

// Peak returns the maximum number of intervals overlapping at any time,
// over every interval added.
func (t *Tracker) Peak() int {
	_, all := t.sweep(math.Inf(-1))
	return max(t.settled, all)
}

// sweep runs the shared merge walk over the pending intervals.  Before
// the frontier the pending count undercounts (it lacks the dropped
// intervals), so it can never exceed the settled peak there.
func (t *Tracker) sweep(cut float64) (before, all int) {
	starts := make([]float64, len(t.pending))
	ends := make([]float64, len(t.pending))
	for i, iv := range t.pending {
		starts[i], ends[i] = iv.Start, iv.End
	}
	return sweep(starts, ends, cut)
}
