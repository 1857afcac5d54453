// Package multiobject extends the delay-guaranteed stream-merging system to
// a server that carries several media objects at once — the first direction
// for future work discussed in Section 5 of the paper.
//
// With many objects the quantity that matters is no longer the total (or
// average) bandwidth of a single object but the server's peak bandwidth:
// the maximum number of channels busy at the same instant across all
// objects.  Because stream merging allocates channel capacity dynamically,
// the delay-guaranteed algorithm is well suited to this setting: the server
// can trade guaranteed start-up delay for peak bandwidth per object, and by
// increasing the delay of (less popular) objects it can stay below a fixed
// channel budget without ever declining a request.
//
// The package provides:
//
//   - Catalog / Object: a set of media objects with lengths and Zipf-like
//     popularities,
//   - PeakBandwidth / BandwidthProfile: the server's channel usage when
//     every object runs the on-line delay-guaranteed algorithm with its own
//     start-up delay,
//   - FitDelays: the smallest uniform delay scaling for which the peak stays
//     within a channel budget (the "never decline a request" knob of
//     Section 5), and
//   - PlanSummary: per-object and aggregate cost reporting.
package multiobject

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/bandwidth"
	"repro/internal/moderr"
	"repro/internal/online"
)

// ErrCapacity marks channel-budget failures: the requested peak-bandwidth
// budget cannot be met even at the maximum allowed delay scale.  It is
// re-exported as the public facade's ErrCapacity so callers can test for
// it with errors.Is across the API boundary.
var ErrCapacity = errors.New("multiobject: channel budget cannot be met")

// Object is one media object served by the system.
type Object struct {
	// Name identifies the object in reports.
	Name string
	// Length is the playback duration in arbitrary time units (e.g. hours).
	Length float64
	// Popularity is a non-negative weight used only for reporting and for
	// popularity-aware delay assignment (larger = more popular).
	Popularity float64
	// Delay is the guaranteed start-up delay for this object, in the same
	// time unit as Length.
	Delay float64
	// Strategy optionally names the planner family the live serving layer
	// uses for this object (a public planner registry name, e.g. "online",
	// "dyadic", "batching").  Empty selects the server's default.  The
	// batch planning paths ignore it; the serving layer validates it
	// against its live-capable planners.
	Strategy string
}

// Slots returns the object's media length in slots of its start-up delay
// (the L of the paper), at least 1.
func (o Object) Slots() int64 {
	if o.Delay <= 0 || o.Length <= 0 {
		return 1
	}
	s := int64(math.Round(o.Length / o.Delay))
	if s < 1 {
		s = 1
	}
	return s
}

// Validate checks the object's parameters.
func (o Object) Validate() error {
	if o.Length <= 0 || math.IsNaN(o.Length) || math.IsInf(o.Length, 1) {
		return fmt.Errorf("%w: multiobject: object %q has invalid length %g (want positive and finite)", moderr.ErrBadInstance, o.Name, o.Length)
	}
	if o.Delay <= 0 || math.IsNaN(o.Delay) || math.IsInf(o.Delay, 1) {
		return fmt.Errorf("%w: multiobject: object %q has invalid delay %g (want positive and finite)", moderr.ErrBadInstance, o.Name, o.Delay)
	}
	if o.Delay > o.Length {
		return fmt.Errorf("%w: multiobject: object %q has delay %g larger than its length %g", moderr.ErrBadInstance, o.Name, o.Delay, o.Length)
	}
	if o.Popularity < 0 || math.IsNaN(o.Popularity) || math.IsInf(o.Popularity, 1) {
		return fmt.Errorf("%w: multiobject: object %q has invalid popularity %g", moderr.ErrBadInstance, o.Name, o.Popularity)
	}
	return nil
}

// Catalog is the set of objects the server carries.
type Catalog []Object

// Validate checks every object and name uniqueness.
func (c Catalog) Validate() error {
	seen := map[string]bool{}
	for _, o := range c {
		if err := o.Validate(); err != nil {
			return err
		}
		if seen[o.Name] {
			return fmt.Errorf("%w: multiobject: duplicate object name %q", moderr.ErrBadInstance, o.Name)
		}
		seen[o.Name] = true
	}
	return nil
}

// ZipfCatalog builds a catalog of k objects of the given length whose
// popularities follow a Zipf distribution with exponent s, all using the
// same start-up delay.  Objects are named "object-01", "object-02", ...
// in decreasing popularity.
func ZipfCatalog(k int, length, delay, s float64) Catalog {
	if k < 1 {
		panic(fmt.Sprintf("multiobject: ZipfCatalog requires k >= 1, got %d", k))
	}
	cat := make(Catalog, k)
	for i := 0; i < k; i++ {
		cat[i] = Object{
			Name:       fmt.Sprintf("object-%02d", i+1),
			Length:     length,
			Popularity: 1 / math.Pow(float64(i+1), s),
			Delay:      delay,
		}
	}
	return cat
}

// ObjectPlan is the per-object outcome of the delay-guaranteed plan.
type ObjectPlan struct {
	Object Object
	// SlotsPerMedia is L for this object.
	SlotsPerMedia int64
	// Streams is the total bandwidth over the horizon in complete copies of
	// this object.
	Streams float64
	// Peak is the object's own peak channel usage.
	Peak int
}

// Plan is the aggregate outcome for a catalog over a horizon.
type Plan struct {
	// Horizon is the planning horizon in time units.
	Horizon float64
	// Objects holds the per-object results in catalog order.
	Objects []ObjectPlan
	// TotalBusyTime is the aggregate channel-time used (in time units).
	TotalBusyTime float64
	// Peak is the server-wide peak number of simultaneously busy channels.
	Peak int
}

// Build computes the delay-guaranteed plan for a catalog over the given
// horizon (in time units): every object runs the on-line delay-guaranteed
// algorithm with its own delay, starting a (possibly truncated) stream at
// the end of each of its slots.
func Build(cat Catalog, horizon float64) (*Plan, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("%w: multiobject: horizon must be positive, got %g", moderr.ErrBadInstance, horizon)
	}
	usage := bandwidth.New()
	plan := &Plan{Horizon: horizon}
	for _, o := range cat {
		L := o.Slots()
		n := int64(math.Ceil(horizon / o.Delay))
		if n < 1 {
			n = 1
		}
		srv := online.NewServer(L)
		objUsage := bandwidth.New()
		for _, nl := range srv.AppendLengths(nil, n) {
			start := float64(nl.Arrival) * o.Delay
			length := float64(nl.Length) * o.Delay
			usage.AddLength(start, length)
			objUsage.AddLength(start, length)
		}
		plan.Objects = append(plan.Objects, ObjectPlan{
			Object:        o,
			SlotsPerMedia: L,
			Streams:       objUsage.Total() / o.Length,
			Peak:          objUsage.Peak(),
		})
	}
	plan.TotalBusyTime = usage.Total()
	plan.Peak = usage.Peak()
	return plan, nil
}

// AverageChannels returns the time-average number of busy channels over the
// horizon.
func (p *Plan) AverageChannels() float64 {
	if p.Horizon <= 0 {
		return 0
	}
	return p.TotalBusyTime / p.Horizon
}

// FitResult is the outcome of searching for the smallest delay scaling that
// meets a channel budget.
type FitResult struct {
	// Scale is the factor by which every object's delay was multiplied.
	Scale float64
	// Plan is the resulting plan.
	Plan *Plan
}

// FitDelays finds, by geometric search, the smallest scaling factor >= 1 of
// all objects' start-up delays for which the server-wide peak bandwidth does
// not exceed maxChannels.  This is the Section 5 observation that a
// delay-guaranteed server can always stay within a fixed bandwidth by
// increasing the guaranteed delay instead of declining requests.  The search
// widens the scale by `step` (default 1.25 when step <= 1) until the budget
// is met or the scale exceeds maxScale.
func FitDelays(cat Catalog, horizon float64, maxChannels int, step, maxScale float64) (*FitResult, error) {
	if maxChannels < 1 {
		return nil, fmt.Errorf("%w: multiobject: maxChannels must be at least 1", moderr.ErrBadInstance)
	}
	if step <= 1 {
		step = 1.25
	}
	if maxScale < 1 {
		maxScale = 1
	}
	scale := 1.0
	for {
		scaled := make(Catalog, len(cat))
		copy(scaled, cat)
		for i := range scaled {
			scaled[i].Delay = cat[i].Delay * scale
			if scaled[i].Delay > scaled[i].Length {
				scaled[i].Delay = scaled[i].Length
			}
		}
		plan, err := Build(scaled, horizon)
		if err != nil {
			return nil, err
		}
		if plan.Peak <= maxChannels {
			return &FitResult{Scale: scale, Plan: plan}, nil
		}
		if scale >= maxScale {
			return nil, fmt.Errorf("%w: budget %d channels unreachable even with delay scale %.2f (peak %d)",
				ErrCapacity, maxChannels, scale, plan.Peak)
		}
		scale *= step
		if scale > maxScale {
			scale = maxScale
		}
	}
}

// PopularityAwareDelays assigns per-object delays so that popular objects
// get the base delay and unpopular ones progressively larger delays (up to
// maxFactor times the base), proportionally to the inverse popularity rank.
// It returns a new catalog; the input is not modified.
func PopularityAwareDelays(cat Catalog, baseDelay float64, maxFactor float64) Catalog {
	if maxFactor < 1 {
		maxFactor = 1
	}
	out := make(Catalog, len(cat))
	copy(out, cat)
	// Rank objects by popularity (descending).
	idx := make([]int, len(cat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return cat[idx[a]].Popularity > cat[idx[b]].Popularity })
	for rank, i := range idx {
		factor := 1.0
		if len(cat) > 1 {
			factor = 1 + (maxFactor-1)*float64(rank)/float64(len(cat)-1)
		}
		out[i].Delay = baseDelay * factor
		if out[i].Delay > out[i].Length {
			out[i].Delay = out[i].Length
		}
	}
	return out
}
