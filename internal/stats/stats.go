// Package stats provides the small statistics primitives shared by the
// simulator components: counters, ratios, rate helpers and histograms.
// Components embed these in their own typed stats structs so that hot
// paths stay allocation-free and reporting stays uniform.
package stats

import (
	"math"
	"sort"
)

// Counter is a monotonically increasing event counter.
type Counter uint64

// Inc adds one to the counter.
func (c *Counter) Inc() { *c++ }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Value returns the current count.
func (c Counter) Value() uint64 { return uint64(c) }

// Ratio returns num/den, or 0 when den is zero. It is the safe division
// used for every hit rate and fraction in the simulator's reports.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// PerKilo returns events per thousand units (e.g. misses per kilo
// instruction), or 0 when units is zero.
func PerKilo(events, units uint64) float64 {
	return 1000 * Ratio(events, units)
}

// GeoMean returns the geometric mean of the values. Non-positive values
// are invalid for a geometric mean and cause a 0 return.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// Mean returns the arithmetic mean of the values, or 0 for empty input.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Histogram is a fixed-bucket histogram over non-negative integer samples
// (e.g. dirty blocks per DBI entry, burst lengths). Samples beyond the
// last bucket are clamped into it.
type Histogram struct {
	buckets []uint64
	count   uint64
	sum     uint64
}

// NewHistogram creates a histogram with buckets for values 0..max-1 plus
// an overflow bucket for values >= max.
func NewHistogram(max int) *Histogram {
	if max < 1 {
		max = 1
	}
	return &Histogram{buckets: make([]uint64, max+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += uint64(v)
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v]++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the mean of all observed samples (un-clamped).
func (h *Histogram) Mean() float64 { return Ratio(h.sum, h.count) }

// Buckets returns a copy of the per-value sample counts (index = sample
// value, last index = overflow bucket). Telemetry snapshots use it to
// export histograms into time-series records.
func (h *Histogram) Buckets() []uint64 {
	return append([]uint64(nil), h.buckets...)
}

// Sum returns the sum of all observed samples (un-clamped).
func (h *Histogram) Sum() uint64 { return h.sum }

// Quantile returns the smallest bucket value at or below which at least
// fraction q of samples fall. q outside (0,1] is clamped.
func (h *Histogram) Quantile(q float64) int {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			return i
		}
	}
	return len(h.buckets) - 1
}

// SortedCopy returns an ascending copy of vals.
func SortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}
