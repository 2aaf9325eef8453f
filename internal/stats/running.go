package stats

// Running is an exact incremental latency summary: the mean and p95
// of every value added so far, bit-identical to Mean and Percentile
// over the same values in the same order, without keeping them sorted
// in one slice. The sum runs in arrival order, as Mean's loop does.
// For the p95 two heaps split the values at the percentile's lower
// rank: low holds the smallest ⌊0.95·(n−1)⌋+1 (a max-heap, stored
// negated in a min-heap, which is exact), high holds the rest (a
// min-heap). The two neighbouring ranks Percentile interpolates
// between are then the two tops. Add costs O(log n) amortized; memory
// is one float64 per value. Values must not be NaN. The zero value is
// an empty summary.
type Running struct {
	sum       float64
	low, high []float64
}

// Add records x.
func (r *Running) Add(x float64) {
	r.sum += x
	if len(r.low) > 0 && x < -r.low[0] {
		heapPush(&r.low, -x)
	} else {
		heapPush(&r.high, x)
	}
	lo, _, _ := percentileRank(r.N(), 95)
	for len(r.low) > lo+1 {
		heapPush(&r.high, -heapPop(&r.low))
	}
	for len(r.low) < lo+1 {
		heapPush(&r.low, -heapPop(&r.high))
	}
}

// N reports how many values were added.
func (r *Running) N() int { return len(r.low) + len(r.high) }

// Mean returns Mean of the values added, or 0 when there are none.
func (r *Running) Mean() float64 {
	if r.N() == 0 {
		return 0
	}
	return r.sum / float64(r.N())
}

// P95 returns Percentile(values, 95) of the values added, or 0 when
// there are none.
func (r *Running) P95() float64 {
	n := r.N()
	if n == 0 {
		return 0
	}
	lo, hi, frac := percentileRank(n, 95)
	a := -r.low[0]
	if lo == hi {
		return a
	}
	return interpolate(a, r.high[0], frac)
}

// heapPush adds x to the binary min-heap h.
func heapPush(h *[]float64, x float64) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !(s[i] < s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// heapPop removes and returns the minimum of the non-empty min-heap h.
func heapPop(h *[]float64) float64 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < len(s) && s[l] < s[least] {
			least = l
		}
		if r := 2*i + 2; r < len(s) && s[r] < s[least] {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}
