// Package arrivals generates the client arrival processes used in the
// empirical evaluation of Section 4.2: constant-rate arrivals (a request
// exactly every lambda time units) and Poisson arrivals (exponential
// inter-arrival times with mean lambda).  Times are expressed in units of
// the media length, matching the paper's plots where both the guaranteed
// start-up delay and the arrival intensity are percentages of the media
// length.
package arrivals

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Trace is a sequence of client arrival times in increasing order.
type Trace []float64

// Constant returns arrivals at lambda, 2*lambda, 3*lambda, ... up to (but
// not including) horizon.  lambda is the constant inter-arrival time.
// It panics if lambda <= 0 or horizon < 0.
func Constant(lambda, horizon float64) Trace {
	if lambda <= 0 {
		panic(fmt.Sprintf("arrivals: Constant requires lambda > 0, got %g", lambda))
	}
	if horizon < 0 {
		panic(fmt.Sprintf("arrivals: Constant requires horizon >= 0, got %g", horizon))
	}
	var tr Trace
	for t := lambda; t < horizon; t += lambda {
		tr = append(tr, t)
	}
	return tr
}

// Poisson returns a Poisson arrival process over [0, horizon) with mean
// inter-arrival time lambda, generated deterministically from the seed.
// It panics if lambda <= 0 or horizon < 0.
func Poisson(lambda, horizon float64, seed int64) Trace {
	if lambda <= 0 {
		panic(fmt.Sprintf("arrivals: Poisson requires lambda > 0, got %g", lambda))
	}
	if horizon < 0 {
		panic(fmt.Sprintf("arrivals: Poisson requires horizon >= 0, got %g", horizon))
	}
	rng := rand.New(rand.NewSource(seed))
	var tr Trace
	t := 0.0
	for {
		t += rng.ExpFloat64() * lambda
		if t >= horizon {
			break
		}
		tr = append(tr, t)
	}
	return tr
}

// Ramp returns a nonhomogeneous Poisson arrival process over [0, horizon)
// whose instantaneous rate ramps linearly from 1/lambda0 at time 0 to
// 1/lambda1 at the horizon (so the expected arrival count is
// horizon*(1/lambda0+1/lambda1)/2; the mean inter-arrival time itself does
// not ramp linearly), generated deterministically from the seed by
// thinning a homogeneous process at the peak rate.  It models the
// prime-time ramp-up of a live Media-on-Demand evening.  It panics if
// lambda0 <= 0, lambda1 <= 0, or horizon < 0.
func Ramp(lambda0, lambda1, horizon float64, seed int64) Trace {
	if lambda0 <= 0 || lambda1 <= 0 {
		panic(fmt.Sprintf("arrivals: Ramp requires positive lambdas, got %g and %g", lambda0, lambda1))
	}
	if horizon < 0 {
		panic(fmt.Sprintf("arrivals: Ramp requires horizon >= 0, got %g", horizon))
	}
	r0, r1 := 1/lambda0, 1/lambda1
	rmax := math.Max(r0, r1)
	rng := rand.New(rand.NewSource(seed))
	var tr Trace
	t := 0.0
	for {
		t += rng.ExpFloat64() / rmax
		if t >= horizon {
			break
		}
		rate := r0 + (r1-r0)*t/horizon
		if rng.Float64()*rmax <= rate {
			tr = append(tr, t)
		}
	}
	return tr
}

// Flash returns a Poisson arrival process over [0, horizon) whose rate is
// 1/lambda except inside the flash window [start, start+duration), where it
// jumps to factor/lambda — a flash crowd (a premiere, a breaking-news spike)
// superimposed on steady background demand.  Like Ramp it is generated
// deterministically from the seed by thinning a homogeneous process at the
// peak rate.  It panics if lambda <= 0, factor < 1, duration < 0, or
// horizon < 0.
func Flash(lambda, factor, start, duration, horizon float64, seed int64) Trace {
	if lambda <= 0 {
		panic(fmt.Sprintf("arrivals: Flash requires lambda > 0, got %g", lambda))
	}
	if factor < 1 {
		panic(fmt.Sprintf("arrivals: Flash requires factor >= 1, got %g", factor))
	}
	if duration < 0 {
		panic(fmt.Sprintf("arrivals: Flash requires duration >= 0, got %g", duration))
	}
	if horizon < 0 {
		panic(fmt.Sprintf("arrivals: Flash requires horizon >= 0, got %g", horizon))
	}
	base := 1 / lambda
	rmax := factor * base
	rng := rand.New(rand.NewSource(seed))
	var tr Trace
	t := 0.0
	for {
		t += rng.ExpFloat64() / rmax
		if t >= horizon {
			break
		}
		rate := base
		if t >= start && t < start+duration {
			rate = rmax
		}
		if rng.Float64()*rmax <= rate {
			tr = append(tr, t)
		}
	}
	return tr
}

// Validate checks that the trace is sorted, non-negative, and finite.
func (tr Trace) Validate() error {
	for i, t := range tr {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return fmt.Errorf("arrivals: invalid time %g at index %d", t, i)
		}
		if i > 0 && t < tr[i-1] {
			return fmt.Errorf("arrivals: trace not sorted at index %d (%g after %g)", i, t, tr[i-1])
		}
	}
	return nil
}

// Count returns the number of arrivals in the trace.
func (tr Trace) Count() int {
	return len(tr)
}

// MeanInterArrival returns the empirical mean inter-arrival time, measuring
// the first gap from time 0.  It returns 0 for an empty trace.
func (tr Trace) MeanInterArrival() float64 {
	if len(tr) == 0 {
		return 0
	}
	return tr[len(tr)-1] / float64(len(tr))
}

// Clip returns the sub-trace of arrivals strictly before horizon.
func (tr Trace) Clip(horizon float64) Trace {
	i := sort.SearchFloat64s(tr, horizon)
	return tr[:i]
}

// BatchToSlots batches the arrivals into slots of the given length (the
// guaranteed start-up delay) and returns the 0-based indices of the slots
// that contain at least one arrival.  An arrival at time t lands in slot
// floor(t/slot) and is served at the end of that slot, (slot index+1)*slot,
// which is at most `slot` time units after the request — the delay
// guarantee.  This is the batching used by the batched dyadic baseline.
func (tr Trace) BatchToSlots(slot float64) []int64 {
	if slot <= 0 {
		panic(fmt.Sprintf("arrivals: BatchToSlots requires slot > 0, got %g", slot))
	}
	// A first pass counts the slots, so the result is allocated once.
	n, last := 0, int64(-1)
	for _, t := range tr {
		if idx := int64(math.Floor(t / slot)); idx != last {
			n, last = n+1, idx
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int64, 0, n)
	last = -1
	for _, t := range tr {
		if idx := int64(math.Floor(t / slot)); idx != last {
			out = append(out, idx)
			last = idx
		}
	}
	return out
}

// BatchTimes batches the arrivals into slots of the given length and returns
// the service times (slot ends) of the non-empty slots, i.e. the times at
// which a batching or batched-merging server starts streams.  It returns
// an empty, non-nil slice for an empty trace.
func (tr Trace) BatchTimes(slot float64) []float64 {
	return tr.AppendBatchTimes([]float64{}, slot)
}

// AppendBatchTimes appends the slot ends BatchTimes returns to dst and
// returns the extended slice: a caller that keeps dst across calls
// batches without allocating once it has grown.
func (tr Trace) AppendBatchTimes(dst []float64, slot float64) []float64 {
	if slot <= 0 {
		panic(fmt.Sprintf("arrivals: BatchTimes requires slot > 0, got %g", slot))
	}
	last := int64(-1)
	for _, t := range tr {
		if idx := int64(math.Floor(t / slot)); idx != last {
			dst = append(dst, float64(idx+1)*slot)
			last = idx
		}
	}
	return dst
}

// OccupiedSlots returns how many length-`slot` slots in [0, horizon) contain
// at least one arrival.
func (tr Trace) OccupiedSlots(slot, horizon float64) int {
	count := 0
	for _, idx := range tr.BatchToSlots(slot) {
		if float64(idx)*slot < horizon {
			count++
		}
	}
	return count
}

// Merge combines two traces into one sorted trace.
func Merge(a, b Trace) Trace {
	out := make(Trace, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Float64s(out)
	return out
}
