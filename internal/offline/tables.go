package offline

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/mergetree"
	"repro/internal/moderr"
)

// Tables is the interval merge-cost dynamic program in banded, column-major,
// append-only storage.  Column j holds the cells (i, j) for i from j down to
// lo(j) — the first arrival whose window still covers times[j] — at index
// j - i, as one []float64 of costs and one []int32 of splits.  Compared
// with the [][]float64 + [][]int tables of MergeCostTableFast this
// representation
//
//   - stores only the upper triangle (the DP never reads i > j), and
//   - uses int32 splits (4 bytes instead of 8),
//
// which together cut memory to 6 n^2 bytes from 16 n^2 — 37.5% — for the
// unbanded case, and far less when a window bound applies.
//
// When a window w > 0 is given, only the intervals [i, j] with
// times[j] - times[i] < w are stored.  Every sub-interval of a stored
// interval is stored too, so the DP is closed over the band; this is exactly
// the set of intervals OptimalForest can ever use, because a merge tree
// rooted at arrival i can only span clients that arrive while the root's
// full stream is still transmitting.
//
// Tables are append-only and resumable: Extend appends arrivals to an
// already-solved table as new columns — the only cells whose interval
// touches the appended suffix — carved from one exact-size chunk per
// call.  A cell, once written, is never copied, moved or zeroed again, so
// an epoch replanner absorbing arrivals incrementally pays only for the
// cells it adds (see Extend and SolveForest).  A Tables value is not safe
// for concurrent use.
type Tables struct {
	n      int
	model  Model
	window float64
	// times is the table's own copy of the covered arrival times (Extend
	// appends to it; callers keep ownership of the slices they pass in).
	times []float64
	// limit[i] is the largest j such that (i, j) is stored.
	limit []int32
	// mc[j] and split[j] are column j: cell (i, j) at index j - i.  Each
	// column is a view into the chunk of the grow call that added it.
	mc    [][]float64
	split [][]int32
	cells int64

	// Resumable forest-partition state (SolveForest): best[j] is the optimal
	// cost of serving arrivals 0..j-1 with full streams of length solvedL,
	// choice[j] the start of its last group, valid for j <= solved.  The
	// prefix DP only ever reads earlier prefixes, so Extend keeps it valid.
	best    []float64
	choice  []int32
	solved  int
	solvedL float64
}

// N returns the number of arrivals the tables cover.
func (t *Tables) N() int { return t.n }

// Limit returns the largest j for which (i, j) is stored.
func (t *Tables) Limit(i int) int { return int(t.limit[i]) }

// InBand reports whether the interval [i, j] is stored.
func (t *Tables) InBand(i, j int) bool {
	return 0 <= i && i <= j && j < t.n && j <= int(t.limit[i])
}

// MC returns the optimal merge cost of a single tree over the arrivals
// i..j (rooted at i).  The interval must be in band.
func (t *Tables) MC(i, j int) float64 { return t.mc[j][j-i] }

// Split returns the last merge h chosen for the interval [i, j] (0 when
// i == j).  The interval must be in band.
func (t *Tables) Split(i, j int) int { return int(t.split[j][j-i]) }

// Cells returns the number of stored DP cells.
func (t *Tables) Cells() int64 { return t.cells }

// MemoryBytes returns the size of the cell storage in bytes (cellBytes per
// cell: a float64 cost and an int32 split).  Column chunks are allocated
// at exactly their cells' size, so no capacity headroom hides beyond this.
func (t *Tables) MemoryBytes() int64 { return t.cells * cellBytes }

// cellBytes is the storage cost of one DP cell: a float64 cost plus an
// int32 split.
const cellBytes = 12

// lo returns the first row stored in column j.
func (t *Tables) lo(j int) int { return j + 1 - len(t.mc[j]) }

// bandLo returns the first arrival i >= p with times[j] - times[i] < window
// (0 when window <= 0 or +Inf, i.e. unbanded).  It is nondecreasing in j,
// so a sweep over the columns passes the previous column's result as p.
// It is the single definition of the band used by both ComputeTables and
// the pre-allocation estimates, so the memory guard in
// policy.OfflineOptimal can never drift from what ComputeTables actually
// allocates.
func bandLo(times []float64, window float64, p, j int) int {
	if window <= 0 || math.IsInf(window, 1) {
		return 0
	}
	for times[j]-times[p] >= window {
		p++
	}
	return p
}

// BandCells returns, in O(n) time and O(1) space, the number of DP cells
// ComputeTables will allocate for the given window (<= 0 means unbanded).
func BandCells(times []float64, window float64) int64 {
	var cells int64
	p := 0
	for j := range times {
		p = bandLo(times, window, p, j)
		cells += int64(j-p) + 1
	}
	return cells
}

// BandBytes returns the size in bytes of the DP tables ComputeTables
// would allocate for the given window, in O(n) time.  Callers can use it to
// bound memory before committing to the computation.
func BandBytes(times []float64, window float64) int64 {
	return BandCells(times, window) * cellBytes
}

// ComputeTables runs the split-monotonicity (Knuth-accelerated) interval DP
// of MergeCostTableFast into banded column storage, sharding each diagonal
// of the DP across a persistent pool of `workers` goroutines (0 means
// GOMAXPROCS).  All cells of one diagonal depend only on strictly shorter
// intervals, so a diagonal is embarrassingly parallel; each cell is computed
// by exactly the same float operations in the same order as the serial
// algorithm, so the resulting mc and split tables are bit-identical to
// MergeCostTableFast for every in-band cell regardless of worker count.
//
// The DP can run for seconds at large n, so it honors ctx: cancellation is
// observed within one work unit (one column of the serial driver, one
// diagonal chunk of the parallel one), every pool goroutine is joined
// before the call returns, and the error wraps ctx.Err() so callers can
// test it with errors.Is(err, context.Canceled).
func ComputeTables(ctx context.Context, times []float64, model Model, window float64, workers int) (*Tables, error) {
	if err := validateTimes(times); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, canceled(err)
	}
	t := &Tables{model: model, window: window}
	if len(times) == 0 {
		return t, nil
	}
	if err := t.grow(ctx, times, workers); err != nil {
		return nil, err
	}
	return t, nil
}

// Extend appends newTimes to the table's arrivals and fills only the cells
// whose interval touches the appended suffix, reusing every previously
// computed cell in place.  The result is bit-identical, cell for cell, to a
// cold ComputeTables run over the concatenated arrivals: old cells are never
// recomputed (a cell (i, j) depends only on times[i..j]), and new cells run
// the same fillColumn float operations in a dependency-respecting order.
// newTimes must be strictly increasing and start after the table's last
// arrival.
//
// On error — cancellation included — the table may be partially updated and
// must be discarded; on success it is ready for further Extend calls.
func (t *Tables) Extend(ctx context.Context, newTimes []float64, workers int) error {
	if len(newTimes) == 0 {
		return nil
	}
	if err := validateTimes(newTimes); err != nil {
		return err
	}
	if t.n > 0 && newTimes[0] <= t.times[t.n-1] {
		return fmt.Errorf("%w: offline: Extend arrivals must continue the table (%g after %g)",
			moderr.ErrBadInstance, newTimes[0], t.times[t.n-1])
	}
	if err := ctx.Err(); err != nil {
		return canceled(err)
	}
	return t.grow(ctx, newTimes, workers)
}

// Clone returns a deep copy of the table sharing no storage with t, so a
// benchmark or test can Extend the copy while keeping the original intact.
// The copy's columns are packed into one exact-size chunk.
func (t *Tables) Clone() *Tables {
	c := *t
	c.times = slices.Clone(t.times)
	c.limit = slices.Clone(t.limit)
	c.best = slices.Clone(t.best)
	c.choice = slices.Clone(t.choice)
	c.mc = make([][]float64, len(t.mc))
	c.split = make([][]int32, len(t.split))
	mc := make([]float64, 0, t.cells)
	split := make([]int32, 0, t.cells)
	for j := range t.mc {
		a := len(mc)
		mc = append(mc, t.mc[j]...)
		split = append(split, t.split[j]...)
		c.mc[j] = mc[a:len(mc):len(mc)]
		c.split[j] = split[a:len(split):len(split)]
	}
	return &c
}

// grow appends newTimes (already validated as continuing t.times) as new
// columns and fills them.  It is the single driver behind both
// ComputeTables (growing an empty table) and Extend (growing a solved one),
// which is what makes warm and cold results bit-identical by construction.
func (t *Tables) grow(ctx context.Context, newTimes []float64, workers int) error {
	m := t.n
	n := m + len(newTimes)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t.times = append(t.times, newTimes...)
	times := t.times

	// Carve the new columns from one chunk per array, sized exactly: the
	// first sweep counts their cells, the second slices the views and seeds
	// each column's length-2 cell (split(j-1, j) = j, like the serial code;
	// the length-1 cell (j, j) stays zero).
	p0 := 0
	if m > 0 {
		p0 = t.lo(m - 1)
	}
	var add int64
	for j, p := m, p0; j < n; j++ {
		p = bandLo(times, t.window, p, j)
		add += int64(j-p) + 1
	}
	mcChunk := make([]float64, add)
	splitChunk := make([]int32, add)
	t.mc = slices.Grow(t.mc, n-m)
	t.split = slices.Grow(t.split, n-m)
	widest := 0
	for j, p, at := m, p0, 0; j < n; j++ {
		p = bandLo(times, t.window, p, j)
		w := j - p + 1
		t.mc = append(t.mc, mcChunk[at:at+w:at+w])
		t.split = append(t.split, splitChunk[at:at+w:at+w])
		if w >= 2 {
			t.mc[j][1] = edgeCost(times, j-1, j, j, t.model)
			t.split[j][1] = int32(j)
		}
		at += w
		widest = max(widest, w)
	}
	t.cells += add
	t.n = n

	// Row limits: only rows from lo(m) on reach the new columns.  lo is
	// nondecreasing, so one pointer over the columns finds each row's last.
	t.limit = append(t.limit, make([]int32, n-m)...)
	for i, j := t.lo(m), m; i < n; i++ {
		for j+1 < n && t.lo(j+1) <= i {
			j++
		}
		t.limit[i] = int32(j)
	}

	// The two drivers below fill the same cells with the same per-cell code
	// (fillColumn), so their outputs are identical; they differ only in
	// iteration order.  Serially, the new columns are filled left to right,
	// each from its length-3 cell (row j-2) to its longest (row lo(j)),
	// reading the columns to its left and the cells just written.  With
	// workers, cells of one diagonal are independent, so each diagonal is
	// sharded across a persistent pool.
	if workers <= 1 || n-2 < minParallelRows {
		for j := m; j < n; j++ {
			// One column is the serial work unit: cancellation is observed
			// between columns, never mid-column.
			if err := ctx.Err(); err != nil {
				return canceled(err)
			}
			if lo := t.lo(j); j-2 >= lo {
				t.fillColumn(times, j, j-2, lo)
			}
		}
		return nil
	}

	type job struct{ length, lo, hi int }
	jobs := make(chan job, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		go func() {
			for jb := range jobs {
				// A dispatched chunk is the parallel work unit; after a
				// cancel the pool drains the queue without computing.
				if ctx.Err() == nil {
					t.computeDiagonal(times, jb.length, jb.lo, jb.hi)
				}
				wg.Done()
			}
		}()
	}
	defer close(jobs)

	// No new column is longer than widest, so no longer diagonal has cells.
	lom := t.lo(m)
	for length := 3; length <= widest; length++ {
		// Only rows whose cell (i, i+length-1) can be new: its column must
		// be new (i > m-length), and banded rows start at lo(m) or later.
		lo0 := max(m-length+1, lom)
		hi0 := n - length + 1
		rows := hi0 - lo0
		if rows <= 0 {
			continue
		}
		if rows < minParallelRows {
			if err := ctx.Err(); err != nil {
				wg.Wait()
				return canceled(err)
			}
			t.computeDiagonal(times, length, lo0, hi0)
			continue
		}
		chunk := (rows + workers - 1) / workers
		for lo := lo0; lo < hi0; lo += chunk {
			hi := lo + chunk
			if hi > hi0 {
				hi = hi0
			}
			wg.Add(1)
			select {
			case jobs <- job{length, lo, hi}:
			case <-ctx.Done():
				wg.Done() // the job was never dispatched
				wg.Wait()
				return canceled(ctx.Err())
			}
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return canceled(err)
		}
	}
	return nil
}

// canceled wraps a context error so every cancellation path out of the DP
// reports the same shape while staying errors.Is-compatible with
// context.Canceled / context.DeadlineExceeded.
func canceled(err error) error {
	return fmt.Errorf("offline: interval DP canceled: %w", err)
}

// minParallelRows is the diagonal size below which the sync overhead of
// fanning out exceeds the work; such diagonals run on the caller.
const minParallelRows = 512

// computeDiagonal fills the cells (i, i+length-1) for i in [lo, hi),
// skipping those outside the band (longer than their column).
func (t *Tables) computeDiagonal(times []float64, length, lo, hi int) {
	for i := lo; i < hi; i++ {
		j := i + length - 1
		if length <= len(t.mc[j]) {
			t.fillColumn(times, j, i, i)
		}
	}
}

// fillColumn fills the cells (i, j) of column j for i from iHi down to iLo
// (iHi <= j-2).  The cells (iHi+1 .. j, j) and the columns left of j must
// already be final.  The float operations per cell match MergeCostTableFast
// exactly (same expressions, same order), so the output is bit-identical to
// the [][] reference no matter which driver calls this; only the indexing
// is column-major.
func (t *Tables) fillColumn(times []float64, j, iHi, iLo int) {
	cols := t.mc
	colJ := cols[j]
	splitJ := t.split[j]
	// split(i, j-1) and split(i+1, j) both sit at offset j-1-i: the former
	// in the previous column, the latter in this one, just written.
	splitPrev := t.split[j-1]
	receiveAll := t.model == ReceiveAll
	tj := times[j]
	tj2 := 2 * tj
	for i := iHi; i >= iLo; i-- {
		// Knuth bounds: only splits between the optima of [i, j-1] and
		// [i+1, j] need examining.
		sLo := int(splitPrev[j-1-i])
		sHi := int(splitJ[j-1-i])
		if sLo < i+1 {
			sLo = i + 1
		}
		if sHi > j {
			sHi = j
		}
		if sHi < sLo {
			sHi = sLo
		}
		best := math.Inf(1)
		bestH := sLo
		ti := times[i]
		if receiveAll {
			// edgeCost is times[j] - times[i], independent of h.
			e := tj - ti
			for h := sLo; h <= sHi; h++ {
				c := cols[h-1][h-1-i] + colJ[j-h] + e
				if c < best {
					best, bestH = c, h
				}
			}
		} else {
			for h := sLo; h <= sHi; h++ {
				c := cols[h-1][h-1-i] + colJ[j-h] + (tj2 - times[h] - ti)
				if c < best {
					best, bestH = c, h
				}
			}
		}
		colJ[j-i] = best
		splitJ[j-i] = int32(bestH)
	}
}

// BuildTree reconstructs an optimal merge tree over the arrivals i..j from
// the split table.
func (t *Tables) BuildTree(times []float64, i, j int) *mergetree.RTree {
	if i == j {
		return mergetree.NewR(times[i])
	}
	h := t.Split(i, j)
	left := t.BuildTree(times, i, h-1)
	right := t.BuildTree(times, h, j)
	left.AddChild(right)
	return left
}
