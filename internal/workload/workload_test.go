package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestFloat64InUnitInterval(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRangeWithinBounds(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := r.Range(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Range(-3,5) = %v", v)
		}
	}
}

// An SPD matrix must be symmetric with positive diagonal and, by the
// Gershgorin-like dominance we build in, positive-definite. We check
// symmetry exactly and definiteness via a Cholesky-style elimination.
func TestSPDMatrixIsSymmetricPositiveDefinite(t *testing.T) {
	n := 24
	a := SPDMatrix(3, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a[i*n+j] != a[j*n+i] {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// In-place LDLᵀ-ish check: all pivots positive.
	c := append([]float64(nil), a...)
	for k := 0; k < n; k++ {
		if c[k*n+k] <= 0 {
			t.Fatalf("non-positive pivot %v at %d: not positive-definite", c[k*n+k], k)
		}
		for i := k + 1; i < n; i++ {
			f := c[i*n+k] / c[k*n+k]
			for j := k; j < n; j++ {
				c[i*n+j] -= f * c[k*n+j]
			}
		}
	}
}

func TestClusteredPointsNearCenters(t *testing.T) {
	pts, centers := ClusteredPoints(5, 200, 3, 4)
	if len(pts) != 600 || len(centers) != 12 {
		t.Fatalf("sizes: %d points, %d centers", len(pts), len(centers))
	}
	for i := 0; i < 200; i++ {
		best := math.Inf(1)
		for c := 0; c < 4; c++ {
			d := 0.0
			for k := 0; k < 3; k++ {
				diff := pts[i*3+k] - centers[c*3+k]
				d += diff * diff
			}
			if d < best {
				best = d
			}
		}
		if best > 3*0.25+1e-9 { // each coordinate within ±0.5
			t.Fatalf("point %d is %.3f² away from every center", i, math.Sqrt(best))
		}
	}
}

func TestThermalGridHasHotSpots(t *testing.T) {
	temp, power := ThermalGrid(2, 64, 64)
	if len(temp) != 64*64 || len(power) != 64*64 {
		t.Fatal("wrong grid size")
	}
	hot := 0
	for _, p := range power {
		if p >= 5 {
			hot++
		}
	}
	if hot == 0 {
		t.Fatal("no hot blocks generated")
	}
	for _, v := range temp {
		if v < 320 || v > 326 {
			t.Fatalf("ambient temperature %v out of range", v)
		}
	}
}

func TestRecordsInBox(t *testing.T) {
	lat, lon := Records(4, 1000)
	if len(lat) != 1000 || len(lon) != 1000 {
		t.Fatal("wrong record count")
	}
	for i := range lat {
		if lat[i] < 0 || lat[i] >= 90 || lon[i] < 0 || lon[i] >= 180 {
			t.Fatalf("record %d = (%v,%v) out of box", i, lat[i], lon[i])
		}
	}
}

func TestUltrasoundImageInRange(t *testing.T) {
	img := UltrasoundImage(6, 32, 48)
	if len(img) != 32*48 {
		t.Fatal("wrong image size")
	}
	for _, v := range img {
		if v < 1 || v > 255 {
			t.Fatalf("pixel %v out of (0,255]", v)
		}
	}
	// Speckle must actually vary the image.
	minV, maxV := img[0], img[0]
	for _, v := range img {
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	if maxV-minV < 10 {
		t.Fatalf("image suspiciously flat: [%v, %v]", minV, maxV)
	}
}

// Property: all generators are pure functions of their seed.
func TestPropertyGeneratorsDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		m1, m2 := SPDMatrix(seed, 8), SPDMatrix(seed, 8)
		for i := range m1 {
			if m1[i] != m2[i] {
				return false
			}
		}
		l1, o1 := Records(seed, 16)
		l2, o2 := Records(seed, 16)
		for i := range l1 {
			if l1[i] != l2[i] || o1[i] != o2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
