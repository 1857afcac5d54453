package bandwidth

import "slices"

// Tracker keeps the peak of a growing set of intervals up to date in work
// proportional to what changed, for producers that can bound where their
// future intervals start.  A live server finalizes streams roughly in
// time order: once no stream still to come can start before a frontier
// W, the count profile before W is final.  Settle(W) folds that part of
// the profile into a settled peak and keeps only the intervals that still
// end after W; Peak sorts only those, and Fold settles and reads the peak
// with one sort.  The result is exactly Usage.Peak over every interval
// ever added.
//
// The zero value is an empty tracker; NewTracker resumes one from a
// settled pair.  It is not safe for concurrent use.
type Tracker struct {
	// settled is the peak of the count profile before frontier.
	settled  int
	frontier float64
	// pending holds every added interval that ends after frontier.
	pending []Interval
	// starts and ends are Fold's sort scratch, kept for the next fold.
	starts, ends []float64
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
	if w > t.frontier {
		t.Fold([]float64{w}, nil)
	}
}

// Settled returns the current frontier and the peak of the count profile
// before it: the pair NewTracker resumes from.
func (t *Tracker) Settled() (frontier float64, peak int) {
	return t.frontier, t.settled
}

// Peak returns the maximum number of intervals overlapping at any time,
// over every interval added.
func (t *Tracker) Peak() int {
	return t.Fold(nil, nil)
}

// Fold settles at each of cuts in turn, exactly as successive Settle
// calls would, and returns what Peak returns after them; after each cut,
// settled (when non-nil) sees the pair Settled reports then.  It sorts
// the pending intervals once, where Settle, Settle and Peak sort them
// three times.  One sweep is exact: an interval a settle at cut c drops
// ends by c, so at every start from c on it is already retired in the
// count of the full pending set, and before c that count only adds to
// what the settled peak already covers.
func (t *Tracker) Fold(cuts []float64, settled func(frontier float64, peak int)) int {
	t.starts, t.ends = t.starts[:0], t.ends[:0]
	for _, iv := range t.pending {
		t.starts, t.ends = append(t.starts, iv.Start), append(t.ends, iv.End)
	}
	slices.Sort(t.starts)
	slices.Sort(t.ends)
	// Before the frontier the pending count undercounts (it lacks the
	// dropped intervals), so it never exceeds the settled peak there.
	peak, j, k := 0, 0, 0
	for i, s := range t.starts {
		for ; k < len(cuts) && cuts[k] <= s; k++ {
			t.settle(cuts[k], peak, settled)
		}
		for j < len(t.ends) && t.ends[j] <= s {
			j++
		}
		peak = max(peak, i+1-j)
	}
	for ; k < len(cuts); k++ {
		t.settle(cuts[k], peak, settled)
	}
	w := t.frontier
	kept := t.pending[:0]
	for _, iv := range t.pending {
		if iv.End > w {
			kept = append(kept, iv)
		}
	}
	if cap(kept) > 1024 && cap(kept) > 4*len(kept) {
		// Do not keep alive the backing array of a large fold, such as the
		// first one after a restart, nor scratch of its size.
		kept = append([]Interval(nil), kept...)
		t.starts, t.ends = nil, nil
	}
	t.pending = kept
	return max(t.settled, peak)
}

// settle moves the frontier to w, a cut of Fold, when w is ahead of it:
// before is the peak of the pending count at the starts before w.
func (t *Tracker) settle(w float64, before int, settled func(float64, int)) {
	if w > t.frontier {
		t.settled = max(t.settled, before)
		t.frontier = w
	}
	if settled != nil {
		settled(t.frontier, t.settled)
	}
}
