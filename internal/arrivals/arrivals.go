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

// mustLoad panics unless lambda, a mean inter-arrival time, is positive
// with a finite rate 1/lambda (a +Inf lambda is valid and draws nothing)
// and horizon is finite and non-negative.  A NaN or infinite value that
// got past them would never end a generator's loop.
func mustLoad(gen string, lambda, horizon float64) {
	if !(lambda > 0) || math.IsInf(1/lambda, 1) {
		panic(fmt.Sprintf("arrivals: %s requires lambda > 0 with a finite rate 1/lambda, got %g", gen, lambda))
	}
	if !(horizon >= 0) || math.IsInf(horizon, 1) {
		panic(fmt.Sprintf("arrivals: %s requires a finite horizon >= 0, got %g", gen, horizon))
	}
}

// Constant returns arrivals at lambda, 2*lambda, 3*lambda, ... up to (but
// not including) horizon.  lambda is the constant inter-arrival time.
// It panics unless lambda and horizon pass mustLoad.
func Constant(lambda, horizon float64) Trace {
	mustLoad("Constant", lambda, horizon)
	var tr Trace
	for t := lambda; t < horizon; t += lambda {
		tr = append(tr, t)
	}
	return tr
}

// Poisson returns a Poisson arrival process over [0, horizon) with mean
// inter-arrival time lambda, generated deterministically from the seed.
// It panics unless lambda and horizon pass mustLoad.
func Poisson(lambda, horizon float64, seed int64) Trace {
	mustLoad("Poisson", lambda, horizon)
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
// prime-time ramp-up of a live Media-on-Demand evening.  It panics unless
// both lambdas and the horizon pass mustLoad.
func Ramp(lambda0, lambda1, horizon float64, seed int64) Trace {
	mustLoad("Ramp", lambda0, horizon)
	mustLoad("Ramp", lambda1, horizon)
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
// peak rate.  It panics unless lambda and horizon pass mustLoad, factor
// is finite and at least 1, the peak rate factor/lambda is finite, and
// duration >= 0.
func Flash(lambda, factor, start, duration, horizon float64, seed int64) Trace {
	mustLoad("Flash", lambda, horizon)
	if !(factor >= 1) || math.IsInf(factor, 1) {
		panic(fmt.Sprintf("arrivals: Flash requires a finite factor >= 1, got %g", factor))
	}
	if duration < 0 {
		panic(fmt.Sprintf("arrivals: Flash requires duration >= 0, got %g", duration))
	}
	base := 1 / lambda
	rmax := factor * base
	if math.IsInf(rmax, 1) {
		panic(fmt.Sprintf("arrivals: Flash requires a finite peak rate factor/lambda, got %g/%g", factor, lambda))
	}
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
