package main

import (
	"math"
	"slices"
)

// The ledger keeps its own order statistics instead of importing the
// repository's internal/stats: that package's percentile code is a
// performance target, and changing it must not change how it is
// measured.

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by linear
// interpolation between the closest ranks: rank (n−1)·p, the
// definition numpy and R call "type 7". NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := float64(n-1) * p
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// tailLevels are the percentiles a timing's tail is reported at, in
// increasing order.
var tailLevels = []float64{0.9, 0.99, 0.999, 0.9999, 0.99999}

// summary is the spread of one sample.
type summary struct {
	n              int
	median, q1, q3 float64
	// tailP is the highest tail level with at least ten samples beyond
	// it (0 when the sample is too small for any), tailV its value.
	tailP, tailV float64
}

// summarize sorts samples in place and returns their spread.
func summarize(samples []float64) summary {
	slices.Sort(samples)
	s := summary{
		n:      len(samples),
		median: percentile(samples, 0.5),
		q1:     percentile(samples, 0.25),
		q3:     percentile(samples, 0.75),
	}
	for _, p := range tailLevels {
		if float64(s.n)*(1-p) >= 10-1e-9 {
			s.tailP, s.tailV = p, percentile(samples, p)
		}
	}
	return s
}
