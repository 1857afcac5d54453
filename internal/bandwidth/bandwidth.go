// Package bandwidth accounts for server bandwidth usage of a set of
// streams.  The paper measures cost primarily as total bandwidth (the sum of
// stream lengths, equivalently the integral over time of the number of
// concurrently transmitting streams) normalized to complete media streams,
// and discusses peak (maximum instantaneous) bandwidth as the quantity that
// matters for a server carrying many media objects (Section 5).
package bandwidth

import (
	"fmt"
	"math"
	"slices"
)

// Interval is a half-open transmission interval [Start, End) of one stream,
// in arbitrary time units.
type Interval struct {
	Start, End float64
}

// Duration returns End-Start (0 if the interval is empty or inverted).
func (iv Interval) Duration() float64 {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// Usage aggregates a set of stream transmission intervals.
type Usage struct {
	intervals []Interval
}

// New returns an empty Usage.
func New() *Usage {
	return &Usage{}
}

// Add records one stream transmitting over [start, end).  Empty or inverted
// intervals are ignored.
func (u *Usage) Add(start, end float64) {
	if end <= start {
		return
	}
	u.intervals = append(u.intervals, Interval{Start: start, End: end})
}

// AddLength records one stream starting at start and transmitting for the
// given length of time.
func (u *Usage) AddLength(start, length float64) {
	u.Add(start, start+length)
}

// Streams returns the number of recorded streams.
func (u *Usage) Streams() int {
	return len(u.intervals)
}

// Total returns the total bandwidth in time units: the sum of all stream
// durations.
func (u *Usage) Total() float64 {
	t := 0.0
	for _, iv := range u.intervals {
		t += iv.Duration()
	}
	return t
}

// NormalizedTotal returns the total bandwidth in units of complete media
// streams of length L (the y-axis of Figs. 1, 11, 12).
func (u *Usage) NormalizedTotal(L float64) float64 {
	if L <= 0 {
		panic(fmt.Sprintf("bandwidth: NormalizedTotal requires L > 0, got %g", L))
	}
	return u.Total() / L
}

// Average returns the time-average number of concurrently transmitting
// streams over [from, to).
func (u *Usage) Average(from, to float64) float64 {
	if to <= from {
		return 0
	}
	total := 0.0
	for _, iv := range u.intervals {
		s, e := math.Max(iv.Start, from), math.Min(iv.End, to)
		if e > s {
			total += e - s
		}
	}
	return total / (to - from)
}

// Peak returns the maximum number of streams transmitting at the same time.
func (u *Usage) Peak() int {
	starts := make([]float64, 0, len(u.intervals))
	ends := make([]float64, 0, len(u.intervals))
	for _, iv := range u.intervals {
		if iv.Duration() == 0 {
			continue
		}
		starts = append(starts, iv.Start)
		ends = append(ends, iv.End)
	}
	return sweep(starts, ends)
}

// sweep sorts the start and end times of a set of half-open intervals in
// place and merge-walks them in time order, retiring ends before starts
// at ties.  The count only rises at a start, so the largest count reached
// at a start is the peak of the profile.  Tracker.Fold runs the same walk.
func sweep(starts, ends []float64) (peak int) {
	slices.Sort(starts)
	slices.Sort(ends)
	j := 0
	for i, s := range starts {
		for j < len(ends) && ends[j] <= s {
			j++
		}
		peak = max(peak, i+1-j)
	}
	return peak
}
