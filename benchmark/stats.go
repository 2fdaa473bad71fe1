package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample; NaN for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the median of vals (mean of the two middle values for an
// even count) without reordering the caller's slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailPercentiles are the candidates for the reported tail, highest first,
// each with the share of samples that lies beyond it (one in oneIn).
var tailPercentiles = []struct {
	p     float64
	oneIn int
}{{99.9, 1000}, {99, 100}, {95, 20}, {90, 10}, {75, 4}}

// tailPercentile picks the tail percentile a sample of n supports: the
// highest candidate with at least ten samples beyond it (choosing-metrics
// rule — a p99 over 150 samples is one and a half observations, not a
// percentile). ok is false when even p75 has fewer than ten beyond it, and
// only the median should be reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if n >= 10*c.oneIn {
			return c.p, true
		}
	}
	return 0, false
}

// quartileSpread is the driver's steadiness measure: the distance between
// the first and third quartile as a share of the median, with quartiles
// computed like Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method). It needs at least two values.
func quartileSpread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := median(s)
	if len(s) < 2 || med == 0 {
		return math.NaN()
	}
	q := func(k int) float64 { // k-th of 4 cut points, exclusive method
		j := min(max(k*(len(s)+1)/4, 1), len(s)-1)
		delta := k*(len(s)+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / math.Abs(med)
}
