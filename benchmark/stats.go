package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of an
// ascending slice, or 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// supported reports whether n samples leave at least ten beyond the p-th
// percentile, the rule for which percentiles a run may report.
func supported(n int, p float64) bool {
	// The epsilon absorbs 1-p not being exact in binary (1-0.99 < 0.01).
	return float64(n)*(1-p) >= 10-1e-9
}

// tailPercentiles are the candidates for "the highest percentile the sample
// supports", ascending.
var tailPercentiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestPercentile picks the highest candidate percentile with at least ten
// samples beyond it; ok is false when even the median has fewer.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if supported(n, c) {
			p, ok = c, true
		}
	}
	return p, ok
}

// supportedPercentile is percentile when the sample supports p, else 0.
func supportedPercentile(sorted []float64, p float64) float64 {
	if !supported(len(sorted), p) {
		return 0
	}
	return percentile(sorted, p)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// worsening is how much worse b is than a as a share of a: positive when b
// is worse in the metric's direction, negative when it is better.
func worsening(higherIsBetter bool, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if higherIsBetter {
		return (a - b) / a
	}
	return (b - a) / a
}

// withinBound reports whether b is no worse than a by more than bound.
func withinBound(higherIsBetter bool, a, b, bound float64) bool {
	return worsening(higherIsBetter, a, b) <= bound
}
