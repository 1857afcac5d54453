// Package dyadic implements the dyadic stream merging algorithm of Coffman,
// Jelenkovic and Momcilovic [9], the baseline against which the paper's
// delay-guaranteed on-line algorithm is compared empirically (Section 4.2).
//
// The (alpha, beta)-dyadic algorithm works on arbitrary (real-valued)
// arrival times.  The first arrival after the current cutoff starts a new
// full (root) stream; the cutoff of a root at time x is x + beta*L where L
// is the media length.  Within the interval (x, y] assigned to a stream at
// time x, the interval is split into dyadic sub-intervals
//
//	I_i = ( x + (y-x)/alpha^i , x + (y-x)/alpha^(i-1) ],  i = 1, 2, ...
//
// The earliest arrival inside each non-empty sub-interval becomes a child of
// x (it merges to x), and the procedure recurses on each child with its
// sub-interval.  The original paper [9] uses alpha = 2 and beta = 0.5; the
// paper under reproduction also evaluates alpha equal to the golden ratio
// and beta = F_h/L for constant-rate arrivals (Section 4.2).
//
// Two service models are provided:
//
//   - immediate service (BuildForest): every client is served the moment it
//     arrives, so a stream starts at every distinct arrival time;
//   - batched service (BuildBatchedForest): arrivals are accumulated for at
//     most one guaranteed start-up delay and served at the end of their
//     slot, so streams start only at the ends of non-empty slots.
package dyadic

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/arrivals"
	"repro/internal/fib"
	"repro/internal/mergetree"
)

// Params are the tunables of the (alpha, beta)-dyadic algorithm.
type Params struct {
	// Alpha controls the geometric splitting of merge intervals; it must be
	// greater than 1.  The original algorithm uses 2; the paper also uses
	// the golden ratio.
	Alpha float64
	// Beta is the root cutoff as a fraction of the media length: an arrival
	// more than Beta*L after the current root starts a new root stream.
	// It must lie in (0, 1].
	Beta float64
}

// Original returns the parameters of the original dyadic paper [9]:
// alpha = 2, beta = 0.5.
func Original() Params {
	return Params{Alpha: 2, Beta: 0.5}
}

// GoldenPoisson returns the variant evaluated in Section 4.2 for Poisson
// arrivals: alpha equal to the golden ratio and beta = 0.5.
func GoldenPoisson() Params {
	return Params{Alpha: fib.Phi, Beta: 0.5}
}

// GoldenConstantRate returns the variant evaluated in Section 4.2 for
// constant-rate arrivals: alpha equal to the golden ratio and
// beta = F_h / L, where L is the media length in slots of the guaranteed
// start-up delay and F_{h+1} < L+2 <= F_{h+2}.
func GoldenConstantRate(slotsPerMedia int64) Params {
	if slotsPerMedia < 1 {
		panic(fmt.Sprintf("dyadic: slotsPerMedia must be positive, got %d", slotsPerMedia))
	}
	beta := float64(fib.TreeSizeForLength(slotsPerMedia)) / float64(slotsPerMedia)
	if beta > 1 {
		beta = 1
	}
	return Params{Alpha: fib.Phi, Beta: beta}
}

// Golden returns the Section 4.2 tuning for the arrival type: GoldenPoisson
// for Poisson arrivals, GoldenConstantRate(slotsPerMedia) for constant-rate
// ones.  The dyadic planners use it; live epochs use GoldenPoisson.
func Golden(poisson bool, slotsPerMedia int64) Params {
	if poisson {
		return GoldenPoisson()
	}
	return GoldenConstantRate(slotsPerMedia)
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if !(p.Alpha > 1) || math.IsInf(p.Alpha, 0) || math.IsNaN(p.Alpha) {
		return fmt.Errorf("dyadic: alpha must be > 1, got %g", p.Alpha)
	}
	if !(p.Beta > 0) || p.Beta > 1 || math.IsNaN(p.Beta) {
		return fmt.Errorf("dyadic: beta must be in (0, 1], got %g", p.Beta)
	}
	return nil
}

// BuildForest runs the immediate-service dyadic algorithm on the arrival
// trace for media length L (in the same time unit as the trace) and returns
// the resulting merge forest.  Duplicate arrival times are collapsed: clients
// arriving at exactly the same instant share a stream.
func BuildForest(trace arrivals.Trace, L float64, p Params) (*mergetree.RForest, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if L <= 0 {
		return nil, fmt.Errorf("dyadic: media length must be positive, got %g", L)
	}
	if err := trace.Validate(); err != nil {
		return nil, err
	}
	times := dedupe(trace)
	forest := mergetree.NewRForest(L)
	i := 0
	for i < len(times) {
		root := times[i]
		cutoff := root + p.Beta*L
		j := i + 1
		for j < len(times) && times[j] <= cutoff {
			j++
		}
		tree := buildTree(root, cutoff, times[i+1:j], p.Alpha)
		forest.Add(tree)
		i = j
	}
	return forest, nil
}

// BuildBatchedForest batches the arrivals into slots of the given
// guaranteed start-up delay, serves each non-empty slot at its end, and runs
// the dyadic algorithm on those service times.  Unlike the delay-guaranteed
// on-line algorithm, no stream is started for an empty slot.
func BuildBatchedForest(trace arrivals.Trace, L, delay float64, p Params) (*mergetree.RForest, error) {
	if delay <= 0 {
		return nil, fmt.Errorf("dyadic: delay must be positive, got %g", delay)
	}
	batched := arrivals.Trace(trace.BatchTimes(delay))
	return BuildForest(batched, L, p)
}

// buildTree recursively constructs the dyadic merge tree for a stream
// starting at root whose merge interval extends to y, over the sorted
// arrival times in (root, y].
func buildTree(root, y float64, times []float64, alpha float64) *mergetree.RTree {
	node := mergetree.NewR(root)
	if len(times) == 0 {
		return node
	}
	span := y - root
	if span <= 0 {
		// Degenerate interval: everything merges directly to the root.
		for _, t := range times {
			node.AddChild(mergetree.NewR(t))
		}
		return node
	}
	// Assign each arrival to its dyadic sub-interval index.
	type group struct {
		index int
		upper float64
		times []float64
	}
	groups := map[int]*group{}
	maxIdx := 0
	for _, t := range times {
		idx := intervalIndex(root, span, t, alpha)
		g, ok := groups[idx]
		if !ok {
			g = &group{index: idx, upper: root + span/math.Pow(alpha, float64(idx-1))}
			groups[idx] = g
			if idx > maxIdx {
				maxIdx = idx
			}
		}
		g.times = append(g.times, t)
	}
	// Children must be attached in increasing arrival order: larger interval
	// indices are closer to the root, hence earlier.
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(keys)))
	for _, k := range keys {
		g := groups[k]
		child := g.times[0]
		sub := buildTree(child, g.upper, g.times[1:], alpha)
		node.AddChild(sub)
	}
	return node
}

// intervalIndex returns the dyadic sub-interval index i >= 1 such that
// t lies in ( root + span/alpha^i , root + span/alpha^(i-1) ].
func intervalIndex(root, span, t, alpha float64) int {
	i := 1
	for t <= root+span/math.Pow(alpha, float64(i)) {
		i++
		if i > 64 {
			// t is essentially at the root (within floating-point fuzz);
			// treat it as belonging to the innermost practical interval.
			break
		}
	}
	return i
}

func dedupe(trace arrivals.Trace) []float64 {
	out := make([]float64, 0, len(trace))
	for i, t := range trace {
		if i == 0 || t != trace[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// TotalCost runs the immediate-service dyadic algorithm and returns the
// total server bandwidth in units of complete media streams.
func TotalCost(trace arrivals.Trace, L float64, p Params) (float64, error) {
	f, err := BuildForest(trace, L, p)
	if err != nil {
		return 0, err
	}
	return f.NormalizedCost(), nil
}

// TotalBatchedCost runs the batched dyadic algorithm and returns the total
// server bandwidth in units of complete media streams.
func TotalBatchedCost(trace arrivals.Trace, L, delay float64, p Params) (float64, error) {
	f, err := BuildBatchedForest(trace, L, delay, p)
	if err != nil {
		return 0, err
	}
	return f.NormalizedCost(), nil
}
