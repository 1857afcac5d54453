package offline

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/mergetree"
	"repro/internal/moderr"
)

// Tables is the interval merge-cost dynamic program in column-major,
// append-only storage.  Column j holds the cells (i, j) for i from j down
// to its first stored row first(j), at index j - i, as one []float64 of
// costs and one []int32 of splits.  Compared with the [][]float64 +
// [][]int tables of MergeCostTableFast this representation
//
//   - stores only the upper triangle (the DP never reads i > j), and
//   - uses int32 splits (4 bytes instead of 8),
//
// which together cut memory to 6 n^2 bytes from 16 n^2 — 37.5% — for the
// unbanded case (window <= 0 or +Inf), where first(j) = 0.
//
// Tables with a finite window w > 0 are forest tables: they solve the
// group partition of OptimalForest (each group's first arrival starts a
// full stream of length w) in the same left-to-right pass that fills the
// columns.  best[j] is the optimal cost of serving arrivals 0..j-1 and
// choice[j] the first arrival of its last group.  Column j is stored from
// row max(lo(j), choice[j]) up, lo(j) being the first arrival whose window
// still covers times[j]: a merge tree rooted at arrival i spans only
// clients that arrive while the root's full stream is still transmitting,
// and because the merge cost satisfies the quadrangle inequality (the
// condition the Knuth split bounds of fillColumn rest on) the last group's
// start never moves left, so no row below choice[j] can start a group
// ending at j or later.  The first stored row never decreases, so every
// cell a stored cell reads, and every group SolveForest rebuilds, is
// stored; each stored cell is bit-identical to the unbanded table's.
//
// Tables are append-only and resumable: Extend appends arrivals to an
// already-solved table as new columns — the only cells whose interval
// touches the appended suffix — carved from chunks the table owns.  A
// cell, once written, is never copied, moved or zeroed again, so an epoch
// replanner absorbing arrivals incrementally pays only for the cells it
// adds (see Extend and SolveForest).  A Tables value is not safe for
// concurrent use.
type Tables struct {
	model  Model
	window float64
	// times is the table's own copy of the covered arrival times (Extend
	// appends to it; callers keep ownership of the slices they pass in).
	times []float64
	// mc[j] and split[j] are column j: cell (i, j) at index j - i.  Each
	// column is a view into a chunk; mcFree and splitFree are the unused
	// tail of the latest one.
	mc        [][]float64
	split     [][]int32
	mcFree    []float64
	splitFree []int32
	cells     int64

	// Forest partition (forest tables only): best[j] and choice[j] for
	// j <= N().
	best   []float64
	choice []int32
}

// N returns the number of arrivals the tables cover.
func (t *Tables) N() int { return len(t.mc) }

// Limit returns the largest j for which (i, j) is stored.  Row i is stored
// in columns i..Limit(i), because first(j) never decreases.
func (t *Tables) Limit(i int) int {
	return sort.Search(len(t.mc), func(j int) bool { return t.first(j) > i }) - 1
}

// InBand reports whether the interval [i, j] is stored.
func (t *Tables) InBand(i, j int) bool {
	return 0 <= i && i <= j && j < len(t.mc) && t.first(j) <= i
}

// MC returns the optimal merge cost of a single tree over the arrivals
// i..j (rooted at i).  The interval must be in band.
func (t *Tables) MC(i, j int) float64 { return t.mc[j][j-i] }

// Split returns the last merge h chosen for the interval [i, j] (0 when
// i == j).  The interval must be in band.
func (t *Tables) Split(i, j int) int { return int(t.split[j][j-i]) }

// Cells returns the number of stored DP cells.
func (t *Tables) Cells() int64 { return t.cells }

// MemoryBytes returns the size of the stored cells in bytes (cellBytes per
// cell: a float64 cost and an int32 split).  The unused tail of the
// latest chunk is not counted; carve keeps it no larger than the stored
// cells (or one minChunk).
func (t *Tables) MemoryBytes() int64 { return t.cells * cellBytes }

// cellBytes is the storage cost of one DP cell: a float64 cost plus an
// int32 split.
const cellBytes = 12

// first returns the first row stored in column j.
func (t *Tables) first(j int) int { return j + 1 - len(t.mc[j]) }

// forest reports whether t is a forest table (finite window w > 0).
func (t *Tables) forest() bool { return t.window > 0 && !math.IsInf(t.window, 1) }

// bandLo returns the first arrival i >= p with times[j] - times[i] < window
// (0 when window <= 0 or +Inf, i.e. unbanded).  It is nondecreasing in j,
// so a sweep over the columns passes the previous column's result as p.
// It is the single definition of the window band used by both the column
// fill and BandCells, so the memory guard in CheckSize can never fall
// below what the tables actually store.
func bandLo(times []float64, window float64, p, j int) int {
	if window <= 0 || math.IsInf(window, 1) {
		return 0
	}
	for times[j]-times[p] >= window {
		p++
	}
	return p
}

// BandCells returns, in O(n) time and O(1) space, the number of cells in
// the window band: every interval [i, j] with times[j] - times[i] < window
// (all of them when window <= 0 or +Inf).  Unbanded tables store exactly
// these cells; forest tables store a subset, so for them it is an upper
// bound.
func BandCells(times []float64, window float64) int64 {
	var cells int64
	p := 0
	for j := range times {
		p = bandLo(times, window, p, j)
		cells += int64(j-p) + 1
	}
	return cells
}

// BandBytes returns BandCells in bytes, in O(n) time: the size of unbanded
// tables and an upper bound on the stored size of forest tables.  Callers
// use it to bound memory before committing to the computation.
func BandBytes(times []float64, window float64) int64 {
	return BandCells(times, window) * cellBytes
}

// ComputeTables runs the split-monotonicity (Knuth-accelerated) interval DP
// of MergeCostTableFast into column storage, column by column on the
// caller's goroutine; a finite window w > 0 makes forest tables (see
// Tables), window <= 0 or +Inf the full triangle, and a NaN window is
// ErrBadInstance.  Each cell is computed by exactly the same float
// operations in the same order as MergeCostTableFast, so the resulting mc
// and split tables are bit-identical to it for every stored cell.
//
// The DP can run for seconds at large n, so it honors ctx: cancellation is
// observed between columns, and the error wraps ctx.Err() so callers can
// test it with errors.Is(err, context.Canceled).
//
// The trailing int is ignored.  It remains only because the benchmark
// module calls ComputeTables with it (benchmark/layers.go:334); callers
// pass 1.
func ComputeTables(ctx context.Context, times []float64, model Model, window float64, _ int) (*Tables, error) {
	if math.IsNaN(window) {
		return nil, fmt.Errorf("%w: offline: table window is NaN", moderr.ErrBadInstance)
	}
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
	if err := t.grow(ctx, times); err != nil {
		return nil, err
	}
	return t, nil
}

// Extend appends newTimes to the table's arrivals and fills only the cells
// whose interval touches the appended suffix (and, for forest tables, the
// partition over the new prefixes), reusing every previously computed cell
// in place.  The result is bit-identical, cell for cell, to a cold
// ComputeTables run over the concatenated arrivals: old cells are never
// recomputed (a cell (i, j) depends only on times[i..j], and the rows a
// column stores only on earlier columns), and new cells run the same
// fillColumn float operations in a dependency-respecting order.
// newTimes must be strictly increasing and start after the table's last
// arrival.
//
// On error — cancellation included — the table may be partially updated and
// must be discarded; on success it is ready for further Extend calls.
//
// The trailing int is ignored, like ComputeTables's; the benchmark module
// pins it (benchmark/layers.go:340).
func (t *Tables) Extend(ctx context.Context, newTimes []float64, _ int) error {
	if len(newTimes) == 0 {
		return nil
	}
	if err := validateTimes(newTimes); err != nil {
		return err
	}
	if n := len(t.times); n > 0 && newTimes[0] <= t.times[n-1] {
		return fmt.Errorf("%w: offline: Extend arrivals must continue the table (%g after %g)",
			moderr.ErrBadInstance, newTimes[0], t.times[n-1])
	}
	if err := ctx.Err(); err != nil {
		return canceled(err)
	}
	return t.grow(ctx, newTimes)
}

// Clone returns a deep copy of the table sharing no storage with t, so a
// benchmark or test can Extend the copy while keeping the original intact.
// The copy's columns are packed into one exact-size chunk, and the copy
// does not inherit t's unused chunk tail.
func (t *Tables) Clone() *Tables {
	c := *t
	c.times = slices.Clone(t.times)
	c.best = slices.Clone(t.best)
	c.choice = slices.Clone(t.choice)
	c.mc = make([][]float64, len(t.mc))
	c.split = make([][]int32, len(t.split))
	c.mcFree, c.splitFree = nil, nil
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
// columns and fills them left to right.  It is the single driver behind
// both ComputeTables (growing an empty table) and Extend (growing a solved
// one), which is what makes warm and cold results bit-identical by
// construction.
func (t *Tables) grow(ctx context.Context, newTimes []float64) error {
	m := len(t.mc)
	n := m + len(newTimes)
	t.times = append(t.times, newTimes...)
	times := t.times
	t.mc = slices.Grow(t.mc, n-m)
	t.split = slices.Grow(t.split, n-m)
	forest := t.forest()
	if forest && m == 0 {
		// Serving no arrivals costs nothing.
		t.best = append(t.best[:0], 0)
		t.choice = append(t.choice[:0], 0)
	}
	r := 0
	if m > 0 {
		r = t.first(m - 1)
	}
	// Column j is stored from row r = max(lo(j), choice[j]), known once
	// column j-1 and its partition step are done; it is filled from its
	// length-3 cell (row j-2) down to row r, reading the columns to its left
	// and the cells just written.  One column is the work unit:
	// cancellation is observed between columns, never mid-column.
	for j := m; j < n; j++ {
		if err := ctx.Err(); err != nil {
			return canceled(err)
		}
		r = bandLo(times, t.window, r, j)
		if forest {
			r = max(r, int(t.choice[j]))
		}
		t.carve(times, j, j-r+1, n-j)
		if j-2 >= r {
			t.fillColumn(times, j, j-2, r)
		}
		if forest {
			t.partition(j, r)
		}
	}
	return nil
}

// minChunk is the smallest chunk, in cells, that carve allocates.
const minChunk = 64

// carve appends column j, w cells wide, to the table and seeds its
// length-2 cell (split(j-1, j) = j, like MergeCostTableFast; the length-1
// cell (j, j) stays zero).  A column's width is known only once the
// column before it is done, so columns are carved from chunks: when the
// current one runs out, the next is sized for the rest columns the grow
// call still adds at width w, but never above the cells already stored,
// so however the widths change the unused tail stays below the table.
func (t *Tables) carve(times []float64, j, w, rest int) {
	if len(t.mcFree) < w {
		size := max(minChunk, min(int64(rest)*int64(w), t.cells), int64(w))
		t.mcFree = make([]float64, size)
		t.splitFree = make([]int32, size)
	}
	mc, split := t.mcFree[:w:w], t.splitFree[:w:w]
	t.mcFree, t.splitFree = t.mcFree[w:], t.splitFree[w:]
	if w >= 2 {
		mc[1] = edgeCost(times, j-1, j, j, t.model)
		split[1] = int32(j)
	}
	t.mc = append(t.mc, mc)
	t.split = append(t.split, split)
	t.cells += int64(w)
}

// partition appends best[j+1] and choice[j+1] once column j, stored from
// row r, is filled: the last group of an optimal forest over arrivals
// 0..j starts at some i in [r, j], scanned from j down with ties kept at
// the latest start.
func (t *Tables) partition(j, r int) {
	col := t.mc[j]
	L := t.window
	best, pick := t.best[j]+L+col[0], j
	for i := j - 1; i >= r; i-- {
		if c := t.best[i] + L + col[j-i]; c < best {
			best, pick = c, i
		}
	}
	t.best = append(t.best, best)
	t.choice = append(t.choice, int32(pick))
}

// canceled wraps a context error so every cancellation path out of the DP
// reports the same shape while staying errors.Is-compatible with
// context.Canceled / context.DeadlineExceeded.
func canceled(err error) error {
	return fmt.Errorf("offline: interval DP canceled: %w", err)
}

// fillColumn fills the cells (i, j) of column j for i from iHi down to iLo
// (iHi <= j-2).  The cells (iHi+1 .. j, j) and the columns left of j must
// already be final.  The float operations per cell match MergeCostTableFast
// exactly (same expressions, same order), so the output is bit-identical to
// the [][] reference; only the indexing is column-major.
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
