package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v, want 5", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty input should give 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{5, 1, 9, 1}
	if v, i := Min(xs); v != 1 || i != 1 {
		t.Fatalf("Min = (%v,%d), want (1,1) — first occurrence", v, i)
	}
	if v, i := Max(xs); v != 9 || i != 2 {
		t.Fatalf("Max = (%v,%d), want (9,2)", v, i)
	}
	if _, i := Min(nil); i != -1 {
		t.Fatal("empty Min index should be -1")
	}
	if _, i := Max(nil); i != -1 {
		t.Fatal("empty Max index should be -1")
	}
}

func TestLinearFitRecoversLine(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	a, b, r2, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-1) > 1e-9 || math.Abs(b-2) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Fatalf("fit = (%v, %v, %v), want (1, 2, 1)", a, b, r2)
	}
}

func TestLinearFitFlatSeries(t *testing.T) {
	_, b, r2, err := LinearFit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if b != 0 || r2 != 1 {
		t.Fatalf("flat fit = slope %v r2 %v, want 0 and 1", b, r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, _, _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestIsMonotone(t *testing.T) {
	up := []float64{1, 2, 3, 3, 4}
	if !IsMonotone(up, +1, 0) {
		t.Fatal("non-decreasing series rejected")
	}
	if IsMonotone(up, -1, 0) {
		t.Fatal("increasing series accepted as decreasing")
	}
	noisy := []float64{1, 2, 1.95, 3}
	if !IsMonotone(noisy, +1, 0.05) {
		t.Fatal("2.5% dip rejected at 5% tolerance")
	}
	if IsMonotone(noisy, +1, 0.01) {
		t.Fatal("2.5% dip accepted at 1% tolerance")
	}
}

func TestIsRoughlyConstant(t *testing.T) {
	if !IsRoughlyConstant([]float64{10, 10.4, 9.6}, 0.05) {
		t.Fatal("±4% series rejected at 5%")
	}
	if IsRoughlyConstant([]float64{10, 12}, 0.05) {
		t.Fatal("±10% series accepted at 5%")
	}
	if !IsRoughlyConstant(nil, 0.01) {
		t.Fatal("empty series should be constant")
	}
	if !IsRoughlyConstant([]float64{0, 0}, 0.01) {
		t.Fatal("all-zero series should be constant")
	}
	if IsRoughlyConstant([]float64{0, 1}, 0.01) {
		t.Fatal("zero-mean-ish nonzero series accepted")
	}
}

func TestSpeedupAndGFlops(t *testing.T) {
	if s := Speedup(10, 5); s != 2 {
		t.Fatalf("speedup = %v, want 2", s)
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("zero-after speedup should be +Inf")
	}
	if g := GFlops(2e9, 2); g != 1 {
		t.Fatalf("GFlops = %v, want 1", g)
	}
	if GFlops(1, 0) != 0 {
		t.Fatal("zero-time GFlops should be 0")
	}
}

// Property: mean is within [min, max]; the least-squares line passes
// through the centroid.
func TestPropertySummaryInvariants(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		m := Mean(xs)
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		if m < lo-1e-9 || m > hi+1e-9 {
			return false
		}
		idx := make([]float64, len(xs))
		for i := range idx {
			idx[i] = float64(i)
		}
		a, b, _, err := LinearFit(idx, xs)
		if err != nil {
			return true // degenerate inputs are fine
		}
		return math.Abs(a+b*Mean(idx)-m) < 1e-6*(1+math.Abs(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {25, 20}, {50, 35}, {75, 40}, {100, 50},
		{40, 29}, // 1.6 ranks in: 20 + 0.6·(35-20)
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty Percentile should be 0")
	}
	if Percentile([]float64{7}, 99) != 7 {
		t.Error("single-element Percentile should be the element")
	}
	// Clamping.
	if Percentile(xs, -5) != 15 || Percentile(xs, 400) != 50 {
		t.Error("out-of-range p should clamp to min/max")
	}
	// Input must not be reordered.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	p50, p95, p99 := Percentiles(xs)
	if p50 != 50 || p95 != 95 || p99 != 99 {
		t.Fatalf("Percentiles = (%v,%v,%v), want (50,95,99)", p50, p95, p99)
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{10, 10, 10, 10}); math.Abs(j-1) > 1e-12 {
		t.Errorf("equal shares Jain = %v, want 1", j)
	}
	// One of four entities monopolizing → 1/4.
	if j := JainIndex([]float64{100, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Errorf("monopoly Jain = %v, want 0.25", j)
	}
	// Textbook mixed case: (1+2+3)²/(3·(1+4+9)) = 36/42.
	if j := JainIndex([]float64{1, 2, 3}); math.Abs(j-36.0/42.0) > 1e-12 {
		t.Errorf("mixed Jain = %v, want %v", j, 36.0/42.0)
	}
	if JainIndex(nil) != 0 {
		t.Error("empty Jain should be 0")
	}
	if JainIndex([]float64{0, 0}) != 1 {
		t.Error("all-zero Jain should be 1")
	}
	if JainIndex([]float64{1, -1}) != 0 || JainIndex([]float64{1, math.NaN()}) != 0 {
		t.Error("invalid inputs should give 0")
	}
	// Scale invariance and range (0,1] on positive inputs.
	err := quick.Check(func(a, b, c uint8) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		j := JainIndex(xs)
		scaled := JainIndex([]float64{xs[0] * 7, xs[1] * 7, xs[2] * 7})
		return j > 1.0/3.0-1e-12 && j <= 1+1e-12 && math.Abs(j-scaled) < 1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestPercentileNaN(t *testing.T) {
	if got := Percentile([]float64{1, 2, 3}, math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Percentile(NaN) = %v, want NaN", got)
	}
}

func TestPercentileNaNSingleElement(t *testing.T) {
	if got := Percentile([]float64{7}, math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Percentile([7], NaN) = %v, want NaN", got)
	}
}

func TestJainIndexHugeValues(t *testing.T) {
	if j := JainIndex([]float64{1e200, 1e200}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("huge equal shares Jain = %v, want 1 (no overflow)", j)
	}
	if j := JainIndex([]float64{1e200, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("huge monopoly Jain = %v, want 0.25", j)
	}
}

// Property: after every Add, Running's mean and p95 equal Mean and
// Percentile(·, 95) over the values added so far, bit for bit — the
// drain-instant metrics depend on the incremental summary reproducing
// the batch formula exactly, not approximately.
func TestRunningMatchesBatchFormulaExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 1500
	stream := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	streams := []struct {
		name string
		xs   []float64
	}{
		{"n=1", []float64{42}},
		{"n=2", []float64{7, 3}},
		{"n=2 tie", []float64{5, 5}},
		{"ties", stream(func(int) float64 { return float64(rng.Intn(8)) })},
		{"ascending", stream(func(i int) float64 { return float64(i) * 1.5 })},
		{"descending", stream(func(i int) float64 { return float64(n-i) * 1.5 })},
		{"constant", stream(func(int) float64 { return 123456 })},
		{"exponential", stream(func(int) float64 {
			// Latency scale: a mean drawn per value from 1e5..1e8 ns,
			// rounded to whole nanoseconds as the cluster's latencies are.
			mean := math.Pow(10, 5+3*rng.Float64())
			return math.Round(rng.ExpFloat64() * mean)
		})},
		{"uniform", stream(func(int) float64 { return rng.Float64() * 1e8 })},
	}
	for _, st := range streams {
		name, xs := st.name, st.xs
		var r Running
		if r.Mean() != 0 || r.P95() != 0 || r.N() != 0 {
			t.Fatalf("%s: empty summary = (%v, %v, %d), want zeros", name, r.Mean(), r.P95(), r.N())
		}
		for i, x := range xs {
			r.Add(x)
			seen := xs[:i+1]
			if got, want := r.Mean(), Mean(seen); got != want {
				t.Fatalf("%s: mean after %d values = %v, want %v", name, i+1, got, want)
			}
			if got, want := r.P95(), Percentile(seen, 95); got != want {
				t.Fatalf("%s: p95 after %d values = %v, want %v", name, i+1, got, want)
			}
			if r.N() != i+1 {
				t.Fatalf("%s: N = %d after %d values", name, r.N(), i+1)
			}
		}
	}
}
