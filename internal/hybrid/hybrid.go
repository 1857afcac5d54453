// Package hybrid implements the hybrid server sketched in Section 5 of the
// paper: use the delay-guaranteed algorithm while the server is heavily
// loaded (its bandwidth is then bounded and independent of the arrival
// pattern, so the server never has to decline a request), and switch to a
// more opportunistic stream-merging algorithm (the batched dyadic algorithm)
// when the client arrival intensity is low and starting a stream in every
// slot would be wasteful.
//
// The policy is deliberately simple, matching the spirit of the paper's
// delay-guaranteed algorithm: time is divided into fixed decision windows of
// windowSlots slots; a window is classified as "loaded" when the fraction
// of its slots containing at least one arrival reaches occupancyThreshold,
// and consecutive windows with the same classification are served as one
// segment by the corresponding algorithm, the dyadic one with the
// golden-ratio Poisson tuning (dyadic.GoldenPoisson).  Merging never
// crosses a segment boundary, so each segment's cost is exactly the cost
// of the chosen algorithm on that segment.  Run is the only entry point:
// the media length and the delay are the policy's only inputs besides the
// trace and the horizon.
package hybrid

import (
	"fmt"
	"math"

	"repro/internal/arrivals"
	"repro/internal/dyadic"
	"repro/internal/mergetree"
	"repro/internal/online"
)

const (
	// windowSlots is the number of slots per load-classification window.
	windowSlots = 50
	// occupancyThreshold is the fraction of occupied slots at or above
	// which a window is classified as loaded (delay-guaranteed mode).
	occupancyThreshold = 0.8
)

// Mode identifies the algorithm serving a segment.
type Mode int

const (
	// ModeDyadic serves only the slots that contain arrivals, using the
	// batched dyadic stream-merging algorithm.
	ModeDyadic Mode = iota
	// ModeDelayGuaranteed starts a (possibly truncated) stream at the end of
	// every slot, following the static F_h-tree structure.
	ModeDelayGuaranteed
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeDyadic:
		return "dyadic"
	case ModeDelayGuaranteed:
		return "delay-guaranteed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Segment is a maximal run of consecutive windows served in the same mode.
type Segment struct {
	// Start and End delimit the segment in time units.
	Start, End float64
	// Mode is the algorithm serving the segment.
	Mode Mode
	// Arrivals is the number of client arrivals in the segment.
	Arrivals int
	// Cost is the segment's bandwidth in complete media streams.
	Cost float64
	// Forest is the batched dyadic forest a dyadic segment with arrivals
	// was priced with (Cost is its NormalizedCost); nil otherwise.
	Forest *mergetree.RForest
}

// Result summarizes a hybrid run.
type Result struct {
	// Segments is the mode timeline.
	Segments []Segment
	// TotalCost is the hybrid server's bandwidth in complete media streams.
	TotalCost float64
	// PureDelayGuaranteedCost is what the pure delay-guaranteed algorithm
	// would have used over the whole horizon.
	PureDelayGuaranteedCost float64
	// PureDyadicCost is what the pure batched dyadic algorithm would have
	// used over the whole horizon.
	PureDyadicCost float64
	// LoadedFraction is the fraction of the horizon served in
	// delay-guaranteed mode.
	LoadedFraction float64
}

// Run replays the sorted arrival trace over [0, horizon) through the
// hybrid policy for the given media length and guaranteed start-up delay
// (in the trace's time unit) and returns the mode timeline and cost
// comparison.
func Run(trace arrivals.Trace, horizon, mediaLength, delay float64) (*Result, error) {
	if mediaLength <= 0 {
		return nil, fmt.Errorf("hybrid: media length must be positive, got %g", mediaLength)
	}
	if delay <= 0 || delay > mediaLength {
		return nil, fmt.Errorf("hybrid: delay must be in (0, media length], got %g", delay)
	}
	if err := trace.Validate(); err != nil {
		return nil, err
	}
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return nil, fmt.Errorf("hybrid: horizon must be positive and finite, got %g", horizon)
	}
	slotsPerMedia := max(int64(math.Round(mediaLength/delay)), 1)
	totalSlots := int64(math.Ceil(horizon / delay))
	numWindows := (totalSlots + windowSlots - 1) / windowSlots
	params := dyadic.GoldenPoisson()

	// Count each window's occupied slots; slots at or past the horizon's
	// last one belong to no window.
	clipped := trace.Clip(horizon)
	occupied := make([]int64, numWindows)
	for _, s := range clipped.BatchToSlots(delay) {
		if s < totalSlots {
			occupied[s/windowSlots]++
		}
	}
	modeOf := func(w int64) Mode {
		n := min(windowSlots, totalSlots-w*windowSlots)
		if float64(occupied[w]) >= occupancyThreshold*float64(n) {
			return ModeDelayGuaranteed
		}
		return ModeDyadic
	}

	// Coalesce consecutive windows with the same mode into segments and cost
	// each segment with its algorithm.  Segments tile the slots in order,
	// so each one's arrivals start where the previous one's ended.
	srv := online.NewServer(slotsPerMedia)
	res := &Result{}
	var loadedSlots int64
	lo := 0
	for w := int64(0); w < numWindows; {
		mode := modeOf(w)
		end := w + 1
		for end < numWindows && modeOf(end) == mode {
			end++
		}
		startSlot, endSlot := w*windowSlots, min(end*windowSlots, totalSlots)
		seg := Segment{Start: float64(startSlot) * delay, End: float64(endSlot) * delay, Mode: mode}
		segTrace := trace.Clip(seg.End)[lo:]
		lo += len(segTrace)
		seg.Arrivals = len(segTrace)
		switch mode {
		case ModeDelayGuaranteed:
			n := endSlot - startSlot
			seg.Cost = float64(srv.CostClosed(n)) / float64(slotsPerMedia)
			loadedSlots += n
		case ModeDyadic:
			if len(segTrace) > 0 {
				f, err := dyadic.BuildBatchedForest(segTrace, mediaLength, delay, params)
				if err != nil {
					return nil, err
				}
				seg.Forest, seg.Cost = f, f.NormalizedCost()
			}
		}
		res.Segments = append(res.Segments, seg)
		res.TotalCost += seg.Cost
		w = end
	}

	// Pure baselines over the whole horizon.
	res.PureDelayGuaranteedCost = float64(srv.CostClosed(totalSlots)) / float64(slotsPerMedia)
	if len(clipped) > 0 {
		cost, err := dyadic.TotalBatchedCost(clipped, mediaLength, delay, params)
		if err != nil {
			return nil, err
		}
		res.PureDyadicCost = cost
	}
	if totalSlots > 0 {
		res.LoadedFraction = float64(loadedSlots) / float64(totalSlots)
	}
	return res, nil
}
