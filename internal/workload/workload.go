// Package workload generates the deterministic synthetic inputs that
// substitute for the paper's datasets (Rodinia inputs, MineBench point
// sets, hStreams SDK matrices). The paper's observations depend on the
// sizes and shapes of the data — matrix dimensions, grid sizes, record
// counts — not on its provenance, so reproducible synthetic data
// preserves every experiment while keeping the repository hermetic.
//
// All generators are seeded explicitly and use a splitmix64 generator,
// so every test, bench, and example sees identical data on every run
// and platform.
package workload

import "math"

// RNG is a small, fast, deterministic generator (splitmix64). It is
// intentionally not math/rand: we want stable streams across Go
// versions and the ability to embed the generator in property tests.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Float32 returns a uniform value in [0, 1).
func (r *RNG) Float32() float32 { return float32(r.Float64()) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// SPDMatrix generates an n×n symmetric positive-definite matrix, the
// input class Cholesky factorization requires. It builds B·Bᵀ + n·I,
// which is SPD by construction.
func SPDMatrix(seed uint64, n int) []float64 {
	rng := NewRNG(seed)
	b := make([]float64, n*n)
	for i := range b {
		b[i] = rng.Range(-1, 1)
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b[i*n+k] * b[j*n+k]
			}
			if i == j {
				s += float64(n)
			}
			a[i*n+j] = s
			a[j*n+i] = s
		}
	}
	return a
}

// ClusteredPoints generates n points of dim features drawn from k
// well-separated spherical clusters; returns the points and the true
// centers. Useful for validating that Kmeans actually converges to
// sensible clusters.
func ClusteredPoints(seed uint64, n, dim, k int) (points, centers []float64) {
	rng := NewRNG(seed)
	centers = make([]float64, k*dim)
	for c := 0; c < k; c++ {
		for d := 0; d < dim; d++ {
			centers[c*dim+d] = float64(c*20) + rng.Range(0, 2)
		}
	}
	points = make([]float64, n*dim)
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		for d := 0; d < dim; d++ {
			points[i*dim+d] = centers[c*dim+d] + rng.Range(-0.5, 0.5)
		}
	}
	return points, centers
}

// ThermalGrid generates rows×cols initial temperature and power grids
// for the Hotspot stencil: ambient temperature plus a few hot blocks.
func ThermalGrid(seed uint64, rows, cols int) (temp, power []float64) {
	rng := NewRNG(seed)
	temp = make([]float64, rows*cols)
	power = make([]float64, rows*cols)
	for i := range temp {
		temp[i] = 323.0 + rng.Range(-1, 1) // ≈ 50°C ambient
		power[i] = rng.Range(0, 0.5)
	}
	// A handful of hot functional units.
	for b := 0; b < 4; b++ {
		r0, c0 := rng.Intn(max(1, rows-8)), rng.Intn(max(1, cols-8))
		for r := r0; r < min(rows, r0+8); r++ {
			for c := c0; c < min(cols, c0+8); c++ {
				power[r*cols+c] = 5 + rng.Range(0, 1)
			}
		}
	}
	return temp, power
}

// Records generates n (latitude, longitude) records for the NN
// benchmark, uniformly spread over the globe-ish box the Rodinia
// generator uses.
func Records(seed uint64, n int) (lat, lon []float32) {
	rng := NewRNG(seed)
	lat = make([]float32, n)
	lon = make([]float32, n)
	for i := 0; i < n; i++ {
		lat[i] = float32(rng.Range(0, 90))
		lon[i] = float32(rng.Range(0, 180))
	}
	return lat, lon
}

// UltrasoundImage generates a rows×cols speckled image in (0, 255] of
// the kind SRAD denoises: a smooth field multiplied by exponential
// speckle noise.
func UltrasoundImage(seed uint64, rows, cols int) []float64 {
	rng := NewRNG(seed)
	img := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			base := 128 + 64*math.Sin(float64(r)/17)*math.Cos(float64(c)/23)
			speckle := -math.Log(1 - rng.Float64() + 1e-12) // Exp(1)
			v := base * speckle
			if v < 1 {
				v = 1
			}
			if v > 255 {
				v = 255
			}
			img[r*cols+c] = v
		}
	}
	return img
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
