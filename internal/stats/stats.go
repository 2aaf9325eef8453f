// Package stats provides the small statistical toolkit the experiment
// harness uses: summary statistics (mean, extremes, percentiles,
// Jain's fairness index), a least-squares line fit (used to check the
// linearity of Fig. 5's IC and CD series), and shape predicates
// (monotonicity, constancy) with which the test suite asserts that
// each regenerated figure has the same qualitative form as the
// paper's.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest element and its index (-1 for empty input).
func Min(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, -1
	}
	best, at := xs[0], 0
	for i, x := range xs[1:] {
		if x < best {
			best, at = x, i+1
		}
	}
	return best, at
}

// Max returns the largest element and its index (-1 for empty input).
func Max(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, -1
	}
	best, at := xs[0], 0
	for i, x := range xs[1:] {
		if x > best {
			best, at = x, i+1
		}
	}
	return best, at
}

// LinearFit fits y = a + b·x by least squares and returns the
// intercept a, slope b, and the coefficient of determination r².
// It returns an error when fewer than two distinct x values exist.
func LinearFit(x, y []float64) (a, b, r2 float64, err error) {
	if len(x) != len(y) {
		return 0, 0, 0, fmt.Errorf("stats: mismatched lengths %d vs %d", len(x), len(y))
	}
	n := float64(len(x))
	if len(x) < 2 {
		return 0, 0, 0, fmt.Errorf("stats: need at least 2 points, got %d", len(x))
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, fmt.Errorf("stats: degenerate fit, all x equal")
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		// A perfectly flat series is perfectly explained.
		return a, b, 1, nil
	}
	r2 = sxy * sxy / (sxx * syy)
	_ = n
	return a, b, r2, nil
}

// IsMonotone reports whether xs is non-decreasing (dir > 0) or
// non-increasing (dir < 0) within a relative tolerance tol (each step
// may violate the direction by at most tol × |previous value|).
func IsMonotone(xs []float64, dir int, tol float64) bool {
	for i := 1; i < len(xs); i++ {
		slack := tol * math.Abs(xs[i-1])
		if dir > 0 && xs[i] < xs[i-1]-slack {
			return false
		}
		if dir < 0 && xs[i] > xs[i-1]+slack {
			return false
		}
	}
	return true
}

// IsRoughlyConstant reports whether every element is within rel
// (relative) of the series mean. Used for Fig. 5's CC and ID lines.
func IsRoughlyConstant(xs []float64, rel float64) bool {
	if len(xs) == 0 {
		return true
	}
	m := Mean(xs)
	if m == 0 {
		for _, x := range xs {
			if x != 0 {
				return false
			}
		}
		return true
	}
	for _, x := range xs {
		if math.Abs(x-m) > rel*math.Abs(m) {
			return false
		}
	}
	return true
}

// Percentile returns the p-th percentile of xs (p in [0, 100]) using
// linear interpolation between closest ranks, the same estimator
// NumPy's default ("linear") uses. It returns 0 for an empty slice,
// clamps p into [0, 100], and returns NaN for a NaN p. The input is
// not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return percentileSorted(ys, p)
}

// percentileSorted is Percentile over an already-sorted, non-empty
// slice.
func percentileSorted(ys []float64, p float64) float64 {
	if math.IsNaN(p) {
		return math.NaN()
	}
	n := len(ys)
	if n == 1 {
		return ys[0]
	}
	lo, hi, frac := percentileRank(n, p)
	if lo == hi {
		return ys[lo]
	}
	return interpolate(ys[lo], ys[hi], frac)
}

// percentileRank locates the p-th percentile (p not NaN) of n sorted
// values: it lies frac of the way from rank lo to rank hi, with
// lo == hi when it falls on a value. Running shares it with
// percentileSorted so both compute the same bits.
func percentileRank(n int, p float64) (lo, hi int, frac float64) {
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// interpolate is the linear step between neighbouring ranks a and b,
// shared with Running for the same reason as percentileRank.
func interpolate(a, b, frac float64) float64 { return a + frac*(b-a) }

// Percentiles returns the p50, p95 and p99 of xs over a single sorted
// copy — the latency summary the scheduler reports per tenant.
func Percentiles(xs []float64) (p50, p95, p99 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return SortedPercentiles(ys)
}

// SortedPercentiles is Percentiles over values already sorted in
// ascending order, without the copy.
func SortedPercentiles(ys []float64) (p50, p95, p99 float64) {
	if len(ys) == 0 {
		return 0, 0, 0
	}
	return percentileSorted(ys, 50), percentileSorted(ys, 95), percentileSorted(ys, 99)
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) over the
// per-entity allocations xs: 1 when all shares are equal, approaching
// 1/n as one entity monopolizes the resource. Non-finite or negative
// inputs and the empty slice yield 0; an all-zero slice yields 1
// (nothing allocated is trivially fair).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	maxX := 0.0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return 0
		}
		if x > maxX {
			maxX = x
		}
	}
	if maxX == 0 {
		return 1
	}
	// The index is scale-invariant; normalizing by the largest share
	// keeps the sums finite for any finite input.
	var sum, sumSq float64
	for _, x := range xs {
		x /= maxX
		sum += x
		sumSq += x * x
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Speedup returns before/after: >1 means after is faster, for
// execution-time metrics.
func Speedup(before, after float64) float64 {
	if after == 0 {
		return math.Inf(1)
	}
	return before / after
}
