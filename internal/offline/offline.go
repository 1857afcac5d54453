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
// Three implementations of the interval DP are provided: a plain O(n^3)
// reference (MergeCostTable), a split-monotonicity accelerated variant
// (Knuth-style bounds, MergeCostTableFast) that runs in O(n^2) in practice,
// and the production path ComputeTables, which runs the same accelerated
// recurrence in banded, column-major, append-only storage — 12 bytes per
// cell instead of 32 — either column by column serially or with each DP
// diagonal sharded across a worker pool.  The tables are resumable:
// Tables.Extend appends an arrival suffix to an existing solve as new
// columns, the only band cells whose interval touches the new arrivals,
// writing each cell once and never moving an old one, bit-identical to a
// cold ComputeTables over the concatenation — the warm-start substrate of
// the live layer's epoch replanning (AdvancePartition and SolveForest
// resume the forest partition the same way).  The test suite
// cross-validates all variants cell for cell on random instances and
// against the closed forms of the slotted case.  The package is used as the
// exact-optimum baseline for evaluating the on-line algorithms on general
// arrival sequences.
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

// MergeCost returns the optimal merge cost of a single tree over all the
// given arrivals in the chosen model.
func MergeCost(times []float64, model Model) (float64, error) {
	if len(times) == 0 {
		return 0, nil
	}
	//modlint:ignore ctxflow MergeCost is the ctx-free compatibility wrapper; callers wanting cancellation use ComputeTables directly
	t, err := ComputeTables(context.Background(), times, model, 0, 0)
	if err != nil {
		return 0, err
	}
	return t.MC(0, len(times)-1), nil
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

// OptimalTree returns an optimal merge tree over all the arrivals in the
// chosen model, together with its merge cost.
func OptimalTree(times []float64, model Model) (*mergetree.RTree, float64, error) {
	if len(times) == 0 {
		return nil, 0, fmt.Errorf("%w: offline: no arrivals", moderr.ErrBadInstance)
	}
	//modlint:ignore ctxflow OptimalTree is the ctx-free compatibility wrapper over ComputeTables
	t, err := ComputeTables(context.Background(), times, model, 0, 0)
	if err != nil {
		return nil, 0, err
	}
	n := len(times)
	return t.BuildTree(times, 0, n-1), t.MC(0, n-1), nil
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
func OptimalForest(times []float64, L float64, model Model) (*Forest, error) {
	//modlint:ignore ctxflow OptimalForest is the ctx-free compatibility wrapper over OptimalForestWorkers
	return OptimalForestWorkers(context.Background(), times, L, model, 0)
}

// OptimalForestWorkers is OptimalForest with an explicit context and DP
// worker count (0 means GOMAXPROCS).  The interval DP is computed in banded
// column storage: a group rooted at arrival i can only extend while
// times[j] - times[i] < L, so only the O(n * W) intervals inside an L-window
// are materialized, where W is the largest number of arrivals in any such
// window — the reason the arrival cap of policy.OfflineOptimal could be
// raised 10x.  Cancelling ctx aborts the underlying DP within one work unit
// and returns an error wrapping ctx.Err().
func OptimalForestWorkers(ctx context.Context, times []float64, L float64, model Model, workers int) (*Forest, error) {
	if err := validateTimes(times); err != nil {
		return nil, err
	}
	if L <= 0 {
		return nil, fmt.Errorf("%w: offline: media length must be positive, got %g", moderr.ErrBadInstance, L)
	}
	if len(times) == 0 {
		return &Forest{Forest: mergetree.NewRForest(L)}, nil
	}
	t, err := ComputeTables(ctx, times, model, L, workers)
	if err != nil {
		return nil, err
	}
	return t.SolveForest(L)
}

// AdvancePartition runs the resumable group-partition prefix DP up to the
// table's current arrival count without reconstructing the forest.  best[j]
// depends only on earlier prefixes, so after an Extend only the appended
// suffix is solved; a warm replanner calls this during absorption so the
// final SolveForest pays only for the un-absorbed tail.  The table's band
// must cover the L-window — it does whenever the table was built with
// window L or unbanded.
func (t *Tables) AdvancePartition(L float64) error {
	if L <= 0 {
		return fmt.Errorf("%w: offline: media length must be positive, got %g", moderr.ErrBadInstance, L)
	}
	if t.window > 0 && !math.IsInf(t.window, 1) && L > t.window {
		return fmt.Errorf("%w: offline: partition window %g exceeds the table band %g", moderr.ErrBadInstance, L, t.window)
	}
	n := t.n
	if t.solvedL != L {
		t.solved = 0
		t.solvedL = L
	}
	if t.solved >= n {
		return nil
	}
	if cap(t.best) < n+1 {
		nb := make([]float64, len(t.best), n+1+(n+1)/2)
		copy(nb, t.best)
		nc := make([]int32, len(t.choice), cap(nb))
		copy(nc, t.choice)
		t.best, t.choice = nb, nc
	}
	t.best = t.best[:n+1]
	t.choice = t.choice[:n+1]
	t.best[0] = 0
	t.choice[0] = 0
	const inf = math.MaxFloat64
	times := t.times
	// best[j] = minimum cost of serving arrivals 0..j-1.  Its last group
	// starts at some i in [p, j-1], p being the first arrival with
	// times[j-1] - times[p] < L: nondecreasing in j and, since L <= window,
	// never below lo(j-1).
	p := t.lo(t.solved)
	for j := t.solved + 1; j <= n; j++ {
		best := inf
		pick := 0
		p = bandLo(times, L, p, j-1)
		// MC(i, j-1) for descending i is column j-1 read front to back.
		col := t.mc[j-1]
		for i := j - 1; i >= p; i-- {
			c := t.best[i] + L + col[j-1-i]
			if c < best {
				best = c
				pick = i
			}
		}
		if best == inf {
			t.solved = j - 1
			return fmt.Errorf("%w: offline: arrival %d cannot be covered (gap exceeds media length)", moderr.ErrBadInstance, j-1)
		}
		t.best[j] = best
		t.choice[j] = int32(pick)
	}
	t.solved = n
	return nil
}

// SolveForest runs the group-partition DP over the table's arrivals:
// partition them into consecutive groups, give each group's first arrival a
// full stream of length L, and merge the rest optimally (the same
// optimization as OptimalForest, on tables the caller may have built
// incrementally with Extend).  Thanks to AdvancePartition's resumable
// prefix DP, repeated SolveForest calls with the same L cost O(new
// arrivals) plus the reconstruction, not O(n * window).  The result is
// bit-identical to a cold OptimalForestWorkers run over the same arrivals,
// whichever sequence of Extend calls produced the table.
func (t *Tables) SolveForest(L float64) (*Forest, error) {
	if err := t.AdvancePartition(L); err != nil {
		return nil, err
	}
	n := t.n
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
