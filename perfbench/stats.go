package main

import (
	"math"
	"sort"
)

// summary is an exact order-statistic summary of raw samples. It is
// computed from the samples themselves, never from histogram buckets:
// a log₂ bucket edge makes a percentile jump by 2× between runs that
// differ by a hair, which no run-to-run bound can absorb.
type summary struct {
	n             int
	p50, p99, max float64
}

// summarize sorts xs in place and returns its nearest-rank percentiles.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	return summary{
		n:   len(xs),
		p50: percentile(xs, 0.50),
		p99: percentile(xs, 0.99),
		max: xs[len(xs)-1],
	}
}

// percentile returns the nearest-rank q-quantile of sorted: the
// smallest sample with at least q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of xs (mean of the middle pair for even
// lengths) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
