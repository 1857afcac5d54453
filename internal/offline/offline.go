// Package offline implements optimal off-line stream merging for general
// (real-valued) arrival times — the substrate result of Bar-Noy and Ladner
// ("Efficient algorithms for optimal stream merging for media-on-demand",
// reference [6] of the paper) that the delay-guaranteed paper builds on and
// improves for the slotted case.
//
// Given arrival times t_0 < t_1 < ... < t_{n-1} and a media length L, the
// package computes
//
//   - the optimal merge cost of a single merge tree over any interval of
//     arrivals (receive-two and receive-all models), via the dynamic program
//     implied by Lemma 2 of the paper:
//     MC(i,j) = min_h { MC(i,h-1) + MC(h,j) + (2 t_j − t_h − t_i) },
//   - the optimal merge forest (which arrivals start full streams and how
//     the remaining arrivals merge), and
//   - the corresponding merge trees.
//
// Three implementations of the interval DP are provided.  Two are the
// [][] test oracles: a plain O(n^3) reference (MergeCostTable) and a
// split-monotonicity accelerated variant (Knuth-style bounds,
// MergeCostTableFast) that runs in O(n^2) in practice.  The production
// path, ComputeTables, runs the same accelerated recurrence column by
// column in column-major storage on the caller's goroutine: 4-byte
// splits, append-only, and merge costs kept only while the fill can still
// read them.  Its one mode is forest tables: given a media length as its
// window, they solve the group partition in the same pass and store a
// column only from the row the partition can still start a group at; the
// merge cost satisfies the quadrangle inequality, so that row never moves
// left, and at high arrival density about half the window band is
// stored.  The package starts no goroutines; callers that want
// parallelism run independent instances side by side.  The tables are
// resumable: Tables.Extend appends an arrival suffix to an existing solve
// as new columns, never recomputing an old split, bit-identical to a cold
// ComputeTables over the concatenation.  They are reusable: Tables.Reset
// empties one for an unrelated sequence and keeps its storage.  Together
// they are the warm-start substrate of the live layer's epoch replanning,
// whose closes walk the split table with Tables.ForestStreams.
// The test suite cross-validates all variants cell for cell on random
// instances, the forest against a full-window partition scan, and both
// against the closed forms of the slotted case.  The package is used as
// the exact-optimum baseline for evaluating the on-line algorithms on
// general arrival sequences.
package offline

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/mergetree"
	"repro/internal/moderr"
)

// Model selects the client receive capability.
type Model int

const (
	// ReceiveTwo allows a client to receive two streams at once (the
	// paper's main model).
	ReceiveTwo Model = iota
	// ReceiveAll allows a client to receive any number of streams at once.
	ReceiveAll
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case ReceiveTwo:
		return "receive-two"
	case ReceiveAll:
		return "receive-all"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// validateTimes checks that the arrival times are finite and strictly
// increasing.
func validateTimes(times []float64) error {
	for i, t := range times {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("%w: offline: invalid arrival time %g at index %d", moderr.ErrBadInstance, t, i)
		}
		if i > 0 && t <= times[i-1] {
			return fmt.Errorf("%w: offline: arrival times must be strictly increasing (index %d: %g after %g)",
				moderr.ErrBadInstance, i, t, times[i-1])
		}
	}
	return nil
}

// edgeCost returns the cost contribution of making arrival h the last merge
// into the root i of a tree whose last arrival is j (Lemma 2 and its
// receive-all analogue, Lemma 18).
func edgeCost(times []float64, i, h, j int, model Model) float64 {
	if model == ReceiveAll {
		return times[j] - times[i]
	}
	return 2*times[j] - times[h] - times[i]
}

// MergeCostTable computes mc[i][j], the optimal merge cost of a single merge
// tree over the arrivals i..j (rooted at i), for all 0 <= i <= j < n, using
// the plain O(n^3) dynamic program.  It also returns the chosen last-merge
// split split[i][j] (0 when i == j).
func MergeCostTable(times []float64, model Model) (mc [][]float64, split [][]int, err error) {
	if err := validateTimes(times); err != nil {
		return nil, nil, err
	}
	n := len(times)
	mc = make([][]float64, n)
	split = make([][]int, n)
	for i := range mc {
		mc[i] = make([]float64, n)
		split[i] = make([]int, n)
	}
	for length := 2; length <= n; length++ {
		for i := 0; i+length-1 < n; i++ {
			j := i + length - 1
			best := math.Inf(1)
			bestH := i + 1
			for h := i + 1; h <= j; h++ {
				c := mc[i][h-1] + mc[h][j] + edgeCost(times, i, h, j, model)
				if c < best {
					best, bestH = c, h
				}
			}
			mc[i][j] = best
			split[i][j] = bestH
		}
	}
	return mc, split, nil
}

// MergeCostTableFast is MergeCostTable with the split-monotonicity
// acceleration: when searching for the best last merge of the interval
// [i, j], only splits between the optima of [i, j-1] and [i+1, j] are
// examined.  For the cost structure of stream merging the optimal split is
// monotone (the same structural fact behind Observation 4 of the paper), so
// the total work is O(n^2); the test suite cross-validates the result
// against the plain DP on random instances.
func MergeCostTableFast(times []float64, model Model) (mc [][]float64, split [][]int, err error) {
	if err := validateTimes(times); err != nil {
		return nil, nil, err
	}
	n := len(times)
	mc = make([][]float64, n)
	split = make([][]int, n)
	for i := range mc {
		mc[i] = make([]float64, n)
		split[i] = make([]int, n)
		if i+1 < n {
			split[i][i+1] = i + 1
			mc[i][i+1] = edgeCost(times, i, i+1, i+1, model)
		}
	}
	for length := 3; length <= n; length++ {
		for i := 0; i+length-1 < n; i++ {
			j := i + length - 1
			lo := split[i][j-1]
			hi := split[i+1][j]
			if lo < i+1 {
				lo = i + 1
			}
			if hi > j {
				hi = j
			}
			if hi < lo {
				hi = lo
			}
			best := math.Inf(1)
			bestH := lo
			for h := lo; h <= hi; h++ {
				c := mc[i][h-1] + mc[h][j] + edgeCost(times, i, h, j, model)
				if c < best {
					best, bestH = c, h
				}
			}
			mc[i][j] = best
			split[i][j] = bestH
		}
	}
	return mc, split, nil
}

// BuildTree reconstructs an optimal merge tree over the arrivals i..j from a
// split table produced by MergeCostTable or MergeCostTableFast.
func BuildTree(times []float64, split [][]int, i, j int) *mergetree.RTree {
	if i == j {
		return mergetree.NewR(times[i])
	}
	h := split[i][j]
	left := BuildTree(times, split, i, h-1)
	right := BuildTree(times, split, h, j)
	left.AddChild(right)
	return left
}

// Forest is the result of the full off-line optimization: which arrivals
// start full streams and how everything merges.
type Forest struct {
	// Forest is the resulting merge forest (roots own full streams of
	// length L).
	Forest *mergetree.RForest
	// Cost is the total server bandwidth: roots*L plus all merge costs.
	Cost float64
	// Roots are the indices of the arrivals that start full streams.
	Roots []int
}

// OptimalForest solves the general off-line problem: partition the arrivals
// into consecutive groups, give each group's first arrival a full stream of
// length L, and merge the rest optimally, minimizing total bandwidth.  The
// optimal partition is found by a prefix dynamic program on top of the
// interval merge costs; a group starting at arrival i may extend to arrival
// j only while times[j] - times[i] < L (later clients could not receive the
// root's data otherwise).
//
// The interval DP is computed into forest tables: only intervals inside an
// L-window are candidates, O(n * W) cells for W arrivals in the densest
// window — the reason DefaultMaxArrivals could be raised 10x — and of
// those only the rows the partition can still use are stored.  A
// non-finite or non-positive L is ErrBadInstance, reported before
// anything is allocated.  Cancelling ctx aborts the DP within one column
// and returns an error wrapping ctx.Err().
func OptimalForest(ctx context.Context, times []float64, L float64, model Model) (*Forest, error) {
	if err := validateTimes(times); err != nil {
		return nil, err
	}
	if !(L > 0) || math.IsInf(L, 1) {
		return nil, fmt.Errorf("%w: offline: media length must be positive and finite, got %g", moderr.ErrBadInstance, L)
	}
	if len(times) == 0 {
		return &Forest{Forest: mergetree.NewRForest(L)}, nil
	}
	t, err := ComputeTables(ctx, times, model, L, 1)
	if err != nil {
		return nil, err
	}
	return t.SolveForest(L)
}

// DefaultMaxArrivals is the arrival cap of CheckSize.  Forest tables
// store at most 12 bytes per interval inside one media-length window, so
// a DP over n arrivals with W in its densest window needs at most 12 n W
// bytes: 287 MB at n = 50000 in the Figs. 11-12 setting (horizon 100
// media lengths).  Adversarial traces that pack everything into one
// window are caught by DefaultMaxTableBytes instead.
const DefaultMaxArrivals = 50000

// DefaultMaxTableBytes is the table cap of CheckSize: ~1.5 GiB of window
// band, whatever the arrival count.
const DefaultMaxTableBytes = int64(1) << 30 * 3 / 2

// CheckSize refuses, with an error wrapping ErrInstanceTooLarge, a DP
// over times (ties counted) with more than maxArrivals arrivals or a
// window band (BandBytes) over maxTableBytes.  It runs in O(n) and
// allocates nothing.  Non-positive caps select DefaultMaxArrivals and
// DefaultMaxTableBytes.
func CheckSize(times []float64, L float64, maxArrivals int, maxTableBytes int64) error {
	if maxArrivals <= 0 {
		maxArrivals = DefaultMaxArrivals
	}
	if maxTableBytes <= 0 {
		maxTableBytes = DefaultMaxTableBytes
	}
	if len(times) > maxArrivals {
		return fmt.Errorf("%w: offline: %d arrivals exceed the %d-arrival DP cap",
			moderr.ErrInstanceTooLarge, len(times), maxArrivals)
	}
	if bytes := BandBytes(times, L); bytes > maxTableBytes {
		return fmt.Errorf("%w: offline: DP would need %d MB of tables for %d arrivals (budget %d MB)",
			moderr.ErrInstanceTooLarge, bytes>>20, len(times), maxTableBytes>>20)
	}
	return nil
}

// SolveGuarded is the receive-two off-line optimum behind the guard that
// the off-line planners and the live off-line epochs share: CheckSize on
// times as given, then tied arrivals collapsed by distinct before
// OptimalForest.  times must be nondecreasing.  An untied trace reaches
// the DP as is, so its forest is OptimalForest's bit for bit.
func SolveGuarded(ctx context.Context, times []float64, L float64, maxArrivals int, maxTableBytes int64) (*Forest, error) {
	if err := CheckSize(times, L, maxArrivals, maxTableBytes); err != nil {
		return nil, err
	}
	return OptimalForest(ctx, distinct(times), L, ReceiveTwo)
}

// distinct returns the nondecreasing times with every arrival that ties
// its predecessor dropped: clients arriving at the same instant share a
// stream, and the DP needs strictly increasing times.  An untied trace is
// returned as is, without a copy.
func distinct(times []float64) []float64 {
	for i := 1; i < len(times); i++ {
		if times[i] == times[i-1] {
			out := append(make([]float64, 0, len(times)), times[:i]...)
			for _, t := range times[i:] {
				out = AppendDistinct(out, t)
			}
			return out
		}
	}
	return times
}

// AppendDistinct appends t to starts unless it ties the last of them: the
// tie collapse of distinct, one arrival at a time.
func AppendDistinct(starts []float64, t float64) []float64 {
	if n := len(starts); n > 0 && starts[n-1] == t {
		return starts
	}
	return append(starts, t)
}

// AdvancePartition only validates: the tables advance the partition in
// the same pass that fills each column, so after any ComputeTables or
// Extend it is already solved for every arrival.  It returns
// ErrBadInstance unless L is the tables' window.  It remains because the
// benchmark module calls it after each Extend (benchmark/layers.go:344).
func (t *Tables) AdvancePartition(L float64) error {
	if L != t.window {
		return fmt.Errorf("%w: offline: partition of media length %g needs forest tables of that window, have window %g",
			moderr.ErrBadInstance, L, t.window)
	}
	return nil
}

// SolveForest rebuilds the optimal forest over the table's arrivals from
// the partition the forest tables carry: partition the arrivals into
// consecutive groups, give each group's first arrival a full stream of
// length L, and merge the rest optimally (the same optimization as
// OptimalForest, on tables the caller may have built incrementally with
// Extend).  L must be the tables' window (see AdvancePartition).  Each
// call costs only the reconstruction, and the result is bit-identical to
// a cold OptimalForest run over the same arrivals, whichever sequence of
// Extend calls produced the table.
func (t *Tables) SolveForest(L float64) (*Forest, error) {
	if err := t.AdvancePartition(L); err != nil {
		return nil, err
	}
	n := t.N()
	if n == 0 {
		return &Forest{Forest: mergetree.NewRForest(L)}, nil
	}
	times := t.times
	// Reconstruct the groups.
	var roots []int
	for j := n; j > 0; j = int(t.choice[j]) {
		roots = append(roots, int(t.choice[j]))
	}
	sort.Ints(roots)
	forest := mergetree.NewRForest(L)
	for gi, start := range roots {
		end := n - 1
		if gi+1 < len(roots) {
			end = roots[gi+1] - 1
		}
		forest.Add(t.BuildTree(times, start, end))
	}
	return &Forest{Forest: forest, Cost: t.best[n], Roots: roots}, nil
}

// NormalizedCost returns the forest cost in units of complete media streams.
func (f *Forest) NormalizedCost() float64 {
	if f.Forest == nil || f.Forest.L <= 0 {
		return 0
	}
	return f.Cost / f.Forest.L
}
