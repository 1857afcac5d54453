package offline

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/mergetree"
	"repro/internal/moderr"
)

// Tables is the interval merge-cost dynamic program in column-major
// storage, solved as forest tables: the group partition of OptimalForest
// (each group's first arrival starts a full stream of length window) runs
// in the same left-to-right pass that fills the columns.  best[j] is the
// optimal cost of serving arrivals 0..j-1 and choice[j] the first arrival
// of its last group.
//
// Column j covers the cells (i, j) for i from j down to its first stored
// row first(j), cell (i, j) at index j - i of the column, and is stored
// from row max(lo(j), choice[j]) up, lo(j) being the first arrival whose
// window still covers times[j]: a merge tree rooted at arrival i spans
// only clients that arrive while the root's full stream is still
// transmitting, and because the merge cost satisfies the quadrangle
// inequality (the condition the Knuth split bounds of fillColumn rest on)
// the last group's start never moves left, so no row below choice[j] can
// start a group ending at j or later.  The first stored row never
// decreases, so every cell a stored cell reads, and every group
// SolveForest rebuilds, is stored; each stored cell is bit-identical to
// MergeCostTableFast's.  A window wider than every merge cost (1e9 for the
// test instances) keeps every arrival in the first group, so every column
// is stored from row 0 and the tables hold the whole triangle.
//
// Compared with the [][]float64 + [][]int tables of MergeCostTableFast the
// tables store only the upper triangle (the DP never reads i > j) and
// 2-byte splits, and they keep a cell's split and merge cost apart,
// because they are read over different spans:
//
//   - Splits (2 bytes a cell) are append-only.  A cell (i, j) stores its
//     split h as the offset h - i from its row: every split lies in
//     (i, j], so the offset fits a uint16 while a column is at most
//     maxColumn cells wide, and grow refuses a wider one.  Each column's
//     splits are carved from chunks the table owns and stay until Reset:
//     SolveForest and ForestStreams rebuild trees from them.
//   - Merge costs (8 bytes a cell) are read only by the column fill, which
//     reads rows from the new column's first stored row r up, and by the
//     partition step, which reads the new column.  Because r never
//     decreases, they live in a band buffer that holds just the live band,
//     the triangle r <= i <= c <= j for the last column j; when the buffer
//     is full the live band moves to its front (or into a buffer half as
//     large again as the band).
//   - Columns are located by integer offsets, so the table holds no
//     per-column slice headers for the garbage collector to scan.
//
// Tables are resumable: Extend appends arrivals to an already-solved table
// as new columns, the only cells whose interval touches the appended
// suffix, so an epoch replanner absorbing arrivals incrementally pays only
// for the cells it adds (see Extend and SolveForest).  They are also
// reusable: Reset empties a table for an unrelated arrival sequence but
// keeps the storage its last fill reached, so a replanner that resets one
// table at every epoch close allocates only when an epoch outgrows the one
// before.  A Tables value is not safe for concurrent use.
type Tables struct {
	model  Model
	window float64
	// times is the table's own copy of the covered arrival times (Extend
	// appends to it; callers keep ownership of the slices they pass in).
	times []float64

	// cols[j] locates column j's splits and records its first stored row.
	cols []column
	// chunks hold the splits in carve order: chunks[:next] have been
	// carved from since the last Reset, free is the unused tail of
	// chunks[next-1], and the chunks after it are storage a Reset kept.
	chunks [][]uint16
	next   int
	free   []uint16

	// band holds the live band's merge costs: cost column c starts at
	// band[ring[c&(len(ring)-1)]], cell (i, c) at offset c - i.  bandEnd
	// is the first cell no column uses, and widest the widest column since
	// the last Reset, whose live band is the largest.
	band    []float64
	ring    []int
	bandEnd int
	widest  int

	cells int64

	// Forest partition: best[j] and choice[j] for j <= N().
	best   []float64
	choice []int32

	// walk is ForestStreams' stack, kept for the next call.
	walk []merge

	// onColumn, when a test installs it, sees every cost column as soon as
	// it is final: costs[k] is cell (j-k, j).
	onColumn func(j int, costs []float64)
}

// column locates column j's splits: cell (i, j), for i from first up to
// j, is chunks[chunk][off+j-i].
type column struct {
	off   int
	chunk int32
	first int32
}

// N returns the number of arrivals the tables cover.
func (t *Tables) N() int { return len(t.cols) }

// Time returns arrival i of the N() the tables cover.
func (t *Tables) Time(i int) float64 { return t.times[i] }

// MC returns the optimal merge cost of a single tree over the arrivals
// i..j (rooted at i).  The tables keep a cost only while the column fill
// can still read it: inside the live band, i at or above the first stored
// row of the last column.  MC panics outside it.
func (t *Tables) MC(i, j int) float64 {
	n := len(t.cols)
	if j >= n || i > j || i < t.first(n-1) {
		panic(fmt.Sprintf("offline: MC(%d, %d) outside the live band of %d columns", i, j, n))
	}
	return t.band[t.ring[j&(len(t.ring)-1)]+j-i]
}

// Split returns the last merge h chosen for the interval [i, j] (0 when
// i == j).  The interval must be stored: first(j) <= i <= j.
func (t *Tables) Split(i, j int) int {
	if i == j {
		return 0
	}
	c := t.cols[j]
	return i + int(t.chunks[c.chunk][c.off+j-i])
}

// Cells returns the number of stored DP cells.
func (t *Tables) Cells() int64 { return t.cells }

// MemoryBytes returns the stored cells in bytes under the model the memory
// guards use, cellBytes per cell.  The table itself holds less: 2 bytes a
// cell for the splits, and merge costs only for the live band.
func (t *Tables) MemoryBytes() int64 { return t.cells * cellBytes }

// cellBytes is the guards' storage model of one DP cell: a float64 cost
// plus a 4-byte split.  It overstates what the tables store, 2 bytes a
// split plus the live band's costs, and is kept so that no cap built on
// it (CheckCounts, DefaultMaxArrivals, DefaultMaxTableBytes) moves.
const cellBytes = 12

// maxColumn is the widest column the tables store: a split's offset from
// its row is below the column's width and must fit a uint16.  The guards
// refuse long before a column gets near it (a column that wide needs
// 65,537 arrivals inside one window, a window band of over 2 billion
// cells), so only a DP run past CheckSize can reach it.
const maxColumn = math.MaxUint16 + 1

// first returns the first row stored in column j.
func (t *Tables) first(j int) int { return int(t.cols[j].first) }

// splits returns column j's splits, w cells from row j down.
func (t *Tables) splits(j int) []uint16 {
	c := t.cols[j]
	w := j - int(c.first) + 1
	return t.chunks[c.chunk][c.off : c.off+w : c.off+w]
}

// bandLo returns the first arrival i >= p with times[j] - times[i] < window
// (0 when window <= 0 or +Inf: every interval is in the band).  It is
// nondecreasing in j, so a sweep over the columns passes the previous
// column's result as p.  It is the single definition of the window band
// used by both the column fill and BandCells, so the memory guard in
// CheckSize can never fall below what the tables actually store.
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
// (all of them when window <= 0 or +Inf).  Tables store a subset of these
// cells, so it bounds them.
func BandCells(times []float64, window float64) int64 {
	var cells int64
	p := 0
	for j := range times {
		p = bandLo(times, window, p, j)
		cells += int64(j-p) + 1
	}
	return cells
}

// ComputeTables runs the split-monotonicity (Knuth-accelerated) interval DP
// of MergeCostTableFast into forest tables (see Tables), column by column
// on the caller's goroutine.  The window is the media length the partition
// plans with; one that is not positive and finite is ErrBadInstance.  Each
// cell is computed by exactly the same float operations in the same order
// as MergeCostTableFast, so every stored split, and every cost as its
// column's fill writes it, is bit-identical to it.
//
// The DP can run for seconds at large n, so it honors ctx: cancellation is
// observed between columns, and the error wraps ctx.Err() so callers can
// test it with errors.Is(err, context.Canceled).
//
// The trailing int is ignored.  It remains only because the benchmark
// module calls ComputeTables with it (benchmark/layers.go:334); callers
// pass 1.
func ComputeTables(ctx context.Context, times []float64, model Model, window float64, _ int) (*Tables, error) {
	if !(window > 0) || math.IsInf(window, 1) {
		return nil, fmt.Errorf("%w: offline: table window must be positive and finite, got %g", moderr.ErrBadInstance, window)
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
// whose interval touches the appended suffix, and the partition over the
// new prefixes, reusing every previously computed cell.  The result is
// bit-identical, cell for cell, to a cold ComputeTables run over the
// concatenated arrivals: old cells are never recomputed (a cell (i, j)
// depends only on times[i..j], and the rows a column stores only on
// earlier columns), and new cells run the same fillColumn float
// operations in a dependency-respecting order.  newTimes must be strictly
// increasing and start after the table's last arrival.
//
// On error — cancellation included — the table may be partially updated
// and must be discarded or Reset; on success it is ready for further
// Extend calls.
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

// Reset empties the table, keeping its model and window, so the next
// Extend starts an unrelated arrival sequence as if on a fresh table: every
// cell, partition entry and forest comes out bit-identical.  It keeps the
// storage the fill since the last Reset reached and drops the rest:
//
//   - split chunks it carved from stay, later ones go;
//   - the band is reallocated at the size the fill's largest live band
//     grows it to (bandSize) when it is smaller than that or more than
//     twice as large, so the same fill again never grows it, and the ring
//     at the fill's widest column when it is longer than that and than
//     minChunk;
//   - per-arrival arrays whose capacity exceeds twice the arrivals the
//     fill reached, or twice minChunk if that is more, are reallocated at
//     that count.
//
// So an epoch of the size of the last one allocates next to nothing, a
// flash epoch's storage is released by the first smaller epoch's Reset,
// and a table whose epochs hold a few arrivals each stops reallocating.
func (t *Tables) Reset() {
	n := len(t.cols)
	t.times = fit(t.times, n)
	t.cols = fit(t.cols, n)
	t.best = fit(t.best, n+1)
	t.choice = fit(t.choice, n+1)
	// Chunks past next were not reached; clearing the whole tail, up to
	// the capacity, lets the collector free them.
	clear(t.chunks[t.next:cap(t.chunks)])
	t.chunks = t.chunks[:t.next]
	t.next, t.free = 0, nil
	want := bandSize(t.widest * (t.widest + 1) / 2)
	if len(t.band) < want || len(t.band) > 2*want {
		t.band = make([]float64, want)
	}
	if len(t.ring) > max(ringLen(t.widest), minChunk) {
		t.ring = make([]int, ringLen(t.widest))
	}
	t.bandEnd, t.widest, t.cells = 0, 0, 0
}

// fit empties s for a fill that last reached n entries, replacing it with
// an array of capacity max(n, minChunk) when it holds more than twice
// that.
func fit[S ~[]E, E any](s S, n int) S {
	if n = max(n, minChunk); cap(s) > 2*n {
		return make(S, 0, n)
	}
	return s[:0]
}

// grow appends newTimes (already validated as continuing t.times) as new
// columns and fills them left to right.  It is the single driver behind
// both ComputeTables (growing an empty table) and Extend (growing a solved
// one), which is what makes warm and cold results bit-identical by
// construction.
func (t *Tables) grow(ctx context.Context, newTimes []float64) error {
	m := len(t.cols)
	n := m + len(newTimes)
	t.times = append(t.times, newTimes...)
	times := t.times
	t.cols = slices.Grow(t.cols, n-m)
	if m == 0 {
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
	// cancellation is observed between columns, never mid-column, on the
	// Done channel: a receive that finds it open takes no lock, where
	// ctx.Err takes the context's mutex.
	done := ctx.Done()
	for j := m; j < n; j++ {
		select {
		case <-done:
			return canceled(ctx.Err())
		default:
		}
		r = max(bandLo(times, t.window, r, j), int(t.choice[j]))
		if w := j - r + 1; w > maxColumn {
			return fmt.Errorf("%w: offline: column %d would store %d cells, above the %d a split offset can address",
				moderr.ErrInstanceTooLarge, j, w, maxColumn)
		}
		cost, split := t.carve(times, j, r, n-j)
		if j-2 >= r {
			t.fillColumn(times, j, cost, split)
		}
		if t.onColumn != nil {
			t.onColumn(j, cost)
		}
		t.partition(j, r, cost)
	}
	return nil
}

// minChunk is the smallest split chunk, and the smallest forest band, in
// cells, that the table allocates.
const minChunk = 64

// carve appends column j, stored from row r, to the table and returns its
// costs and splits: the splits from the current chunk, the costs at the
// end of the band.  It seeds the two cells fillColumn does not write: the
// length-1 cell (j, j), whose cost and split offset are 0, and the
// length-2 cell (j-1, j), whose split is j (like MergeCostTableFast), at
// offset 1.  Storage a Reset kept holds stale values, so every cell is
// written before it is read.
func (t *Tables) carve(times []float64, j, r, rest int) ([]float64, []uint16) {
	w := j - r + 1
	if len(t.free) < w {
		t.nextChunk(w, rest)
	}
	t.cols = append(t.cols, column{off: len(t.chunks[t.next-1]) - len(t.free), chunk: int32(t.next - 1), first: int32(r)})
	split := t.free[:w:w]
	t.free = t.free[w:]

	// The live band after this column: rows r..c of every column c in
	// [r, j].
	t.widest = max(t.widest, w)
	if t.bandEnd+w > len(t.band) || w > len(t.ring) {
		t.relocate(j, r, bandSize(w*(w+1)/2), w)
	}
	off := t.bandEnd
	t.bandEnd += w
	t.ring[j&(len(t.ring)-1)] = off
	cost := t.band[off : off+w : off+w]

	cost[0], split[0] = 0, 0
	if w >= 2 {
		cost[1] = edgeCost(times, j-1, j, j, t.model)
		split[1] = 1
	}
	t.cells += int64(w)
	return cost, split
}

// nextChunk makes free a chunk of at least w cells: the next one a Reset
// kept (skipping any too narrow for the column), else a new one.  A
// column's width is known only once the column before it is done, so a new
// chunk is sized for the rest columns the grow call still adds at width w,
// but never above an eighth of the cells stored since the last Reset: the
// chunk a smaller fill stops in wastes at most that share.
func (t *Tables) nextChunk(w, rest int) {
	for t.next < len(t.chunks) {
		c := t.chunks[t.next]
		t.next++
		if len(c) >= w {
			t.free = c
			return
		}
	}
	size := max(minChunk, min(int64(rest)*int64(w), t.cells/8), int64(w))
	t.free = make([]uint16, size)
	t.chunks = append(t.chunks, t.free)
	t.next++
}

// bandSize is the band a live band of need cells gets when the band must
// grow: half as large again, so each move of the live band is followed by
// at least half as many new cells as it copied.  The live band is usually
// far below its peak, so on flash- and calm-density epochs a cell is
// copied about half a time on average (a move is a memmove of 8 bytes a
// cell, next to the tens of nanoseconds the fill spends on it).
func bandSize(need int) int { return max(minChunk, need+need/2) }

// ringLen is the ring length for columns up to w cells wide: the live
// band spans at most w columns, and a power of two makes the slot of
// column c the mask c&(len-1).
func ringLen(w int) int {
	if w == 0 {
		return 0
	}
	return 1 << bits.Len(uint(w-1))
}

// relocate moves the live band of columns [r, j) to the front of the band,
// making the band at least size cells and the ring at least cols columns
// long.  Each column c keeps rows r..c, the head of its storage, packed
// from offset 0 in column order; the rest can no longer be read.  The band
// and ring may stay t's own: a column never moves up, and memmove handles
// the overlap.
func (t *Tables) relocate(j, r, size, cols int) {
	band, ring := t.band, t.ring
	if size > len(band) {
		band = make([]float64, size)
	}
	if cols > len(ring) {
		ring = make([]int, ringLen(cols))
	}
	at := 0
	for c := r; c < j; c++ {
		src := t.ring[c&(len(t.ring)-1)]
		h := c - r + 1
		copy(band[at:at+h], t.band[src:src+h])
		ring[c&(len(ring)-1)] = at
		at += h
	}
	t.band, t.ring, t.bandEnd = band, ring, at
}

// partition appends best[j+1] and choice[j+1] once column j, stored from
// row r with costs col, is filled: the last group of an optimal forest
// over arrivals 0..j starts at some i in [r, j], scanned from j down with
// ties kept at the latest start.  The scan runs over the column's offset
// k = j - i, over rows resliced to the column: best[j-k] is
// rows[last-k].
func (t *Tables) partition(j, r int, col []float64) {
	L := t.window
	rows := t.best[r : j+1 : j+1]
	col = col[:len(rows)]
	last := len(rows) - 1
	best, pick := rows[last]+L+col[0], 0
	for k := 1; k < len(col); k++ {
		if c := rows[last-k] + L + col[k]; c < best {
			best, pick = c, k
		}
	}
	t.best = append(t.best, best)
	t.choice = append(t.choice, int32(j-pick))
}

// canceled wraps a context error so every cancellation path out of the DP
// reports the same shape while staying errors.Is-compatible with
// context.Canceled / context.DeadlineExceeded.
func canceled(err error) error {
	return fmt.Errorf("offline: interval DP canceled: %w", err)
}

// fillColumn fills the cells (i, j) of column j, whose costs are colJ and
// split offsets splitJ, for i from j-2 down to the column's first stored
// row: the cell at offset k = j - i of each.  The cells (j-1, j) and
// (j, j) and the columns left of j must already be final.  The float
// operations per cell match MergeCostTableFast exactly (same expressions,
// same order), so the output is bit-identical to the [][] reference; only
// the indexing is column-major.
//
// The Knuth bounds of a cell, the splits of [i, j-1] and [i+1, j], mostly
// hold one split, and mostly the split of the row below.  Such a cell
// takes the single-split path, which reads the terms that depend only on
// the split h (where column h-1 is stored, mc(h, j), and the h part of the
// edge cost) once per run of rows that share h.  The split of [i+1, j],
// the row just filled, is carried from one row to the next.
func (t *Tables) fillColumn(times []float64, j int, colJ []float64, splitJ []uint16) {
	band, ring := t.band, t.ring
	mask := len(ring) - 1
	w := len(colJ)
	splitJ = splitJ[:w]
	// split(i, j-1) sits at offset k-1 of the previous column, from row i.
	splitPrev := t.splits(j - 1)[: w-1 : w-1]
	two := t.model == ReceiveTwo
	inf := math.Inf(1)
	tj := times[j]
	tj2 := 2 * tj
	// The single-split path's h, the band index of cell (0, h-1) (so that
	// cell (i, h-1) is band[at-i]), mc(h, j) and the edge cost less the
	// root's time: 2*times[j] - times[h] for receive-two, times[j] for
	// receive-all.
	h, at, mcH, eH := -1, 0, 0.0, 0.0
	hi := j // split(j-1, j), then split(i+1, j) of the row just filled
	for k := 2; k < w; k++ {
		i := j - k
		lo := i + int(splitPrev[k-1])
		ti := times[i]
		best, bestH := inf, lo
		if hi <= lo {
			// One split to examine, lo (MergeCostTableFast raises an
			// inverted upper bound to the lower one).
			if lo != h {
				h, at, mcH, eH = lo, ring[(lo-1)&mask]+lo-1, colJ[j-lo], tj
				if two {
					eH = tj2 - times[lo]
				}
			}
			if c := band[at-i] + mcH + (eH - ti); c < best {
				best = c
			}
		} else if two {
			for g := lo; g <= hi; g++ {
				c := band[ring[(g-1)&mask]+g-1-i] + colJ[j-g] + (tj2 - times[g] - ti)
				if c < best {
					best, bestH = c, g
				}
			}
		} else {
			// edgeCost is times[j] - times[i], independent of g.
			e := tj - ti
			for g := lo; g <= hi; g++ {
				c := band[ring[(g-1)&mask]+g-1-i] + colJ[j-g] + e
				if c < best {
					best, bestH = c, g
				}
			}
		}
		colJ[k] = best
		splitJ[k] = uint16(bestH - i)
		hi = bestH
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

// merge is one pending step of ForestStreams' walk: node h, the last merge
// of the interval [h, last] into parent (-1 for a root), and then the
// merges into h within [h, last].
type merge struct {
	parent, node, last int32
}

// ForestStreams emits the transmissions of the forest SolveForest rebuilds
// without building it: emit(start, length) runs once per arrival, in the
// order mergetree.RTree.Walk visits SolveForest's trees taken in root
// order.  A root i transmits its full stream, (times[i], L).  The split h
// of an interval [i, j] is the last merge into i over it, and it transmits
// for 2*times[j] - times[h] - times[i], the receive-two length of a node
// whose subtree ends at arrival j: the walk emits i, the merges into i
// within [i, h-1], then h and the merges into h within [h, j].  It returns
// SolveForest's Forest.Cost.  L must be the tables' window (see
// AdvancePartition).  The walk's stack is kept in the table, so once it
// has grown a call allocates nothing.
func (t *Tables) ForestStreams(L float64, emit func(start, length float64)) (float64, error) {
	if err := t.AdvancePartition(L); err != nil {
		return 0, err
	}
	n := t.N()
	if n == 0 {
		return 0, nil
	}
	times := t.times
	// The groups, last first, so that they pop in arrival order.
	stack := t.walk[:0]
	for j := n; j > 0; j = int(t.choice[j]) {
		stack = append(stack, merge{parent: -1, node: t.choice[j], last: int32(j - 1)})
	}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		a, b := int(m.node), int(m.last)
		if m.parent < 0 {
			emit(times[a], L)
		} else {
			emit(times[a], 2*times[b]-times[a]-times[m.parent])
		}
		// The merges into a within [a, b], latest first, so that they pop
		// earliest first.
		for a < b {
			h := t.Split(a, b)
			stack = append(stack, merge{parent: int32(a), node: int32(h), last: int32(b)})
			b = h - 1
		}
	}
	t.walk = stack
	return t.best[n], nil
}
