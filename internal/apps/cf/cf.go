// Package cf is the paper's Cholesky Factorization application (from
// the hStreams SDK): a tiled right-looking factorization A = L·Lᵀ of a
// symmetric positive-definite matrix, expressed as the classic
// POTRF/TRSM/SYRK/GEMM task DAG over the lower-triangular tiles. CF is
// the paper's richest workload: tasks have real cross-stream
// dependencies, several kernel types, and (in the multi-device runs of
// Fig. 11) cross-MIC data staging. It drives Figs. 8b, 9b, 10b and 11.
//
// The matrix is stored tile-blocked: lower-triangle tile (i,j), i ≥ j,
// occupies the contiguous range tileIndex(i,j)·b² of the buffer, which
// makes every tile a single transfer.
package cf

import (
	"fmt"
	"math"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/workload"
)

// Efficiency is the arithmetic efficiency of the Level-3 tile kernels
// relative to peak, calibrated so the best streamed configuration of
// Fig. 9b lands near the paper's ≈350 GFLOPS at D = 9600.
const Efficiency = 0.40

// ScalingPenalty mirrors mm: barrier-heavy dense kernels lose
// efficiency as they span more threads.
const ScalingPenalty = 0.10

// Params configures the application.
type Params struct {
	// N is the matrix dimension.
	N int
	// Functional enables real data and kernels.
	Functional bool
	// Seed seeds the SPD matrix generator in functional mode.
	Seed uint64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("cf: N must be positive, got %d", p.N)
	}
	return nil
}

// App is an instantiated Cholesky workload.
type App struct {
	p     Params
	orig  []float64 // dense row-major copy of A for verification
	tiles []float64 // tile-blocked lower triangle, host side
	grid  int       // tiles per dimension of the last Build
}

// New builds the workload. In functional mode the input is a random
// SPD matrix of dimension N.
func New(p Params) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	app := &App{p: p}
	if p.Functional {
		app.orig = workload.SPDMatrix(p.Seed, p.N)
	}
	return app, nil
}

// Params returns the workload parameters.
func (a *App) Params() Params { return a.p }

// TotalFlops reports the useful work of the factorization: N³/3.
func (a *App) TotalFlops() float64 {
	n := float64(a.p.N)
	return n * n * n / 3
}

// tileIndex maps lower-triangle coordinates to the blocked layout.
func tileIndex(i, j int) int { return i*(i+1)/2 + j }

// numTiles reports the lower-triangle tile count for a g×g grid.
func numTiles(g int) int { return g * (g + 1) / 2 }

// kernelCost builds the cost of one tile kernel with the given flop
// count and traffic for tile size b.
func kernelCost(name string, flops float64, b int) device.KernelCost {
	bs := float64(b)
	return device.KernelCost{
		Name:           name,
		Flops:          flops,
		Bytes:          3 * bs * bs * 8,
		Efficiency:     Efficiency * bs / (bs + 50),
		ScalingPenalty: ScalingPenalty,
	}
}

// costs for the four tile kernels of the right-looking algorithm.
// POTRF's column-by-column dependency chain caps its efficiency below
// the Level-3 updates'; in the tiled run POTRF is <1% of the flops, but
// the non-streamed baseline pays this rate for the whole factorization,
// which is a large part of why the paper's streamed CF wins 24% (§V-A).
func potrfCost(b int) device.KernelCost {
	bs := float64(b)
	c := kernelCost("cf.potrf", bs*bs*bs/3, b)
	c.Efficiency *= 0.85
	return c
}
func trsmCost(b int) device.KernelCost {
	bs := float64(b)
	return kernelCost("cf.trsm", bs*bs*bs, b)
}
func syrkCost(b int) device.KernelCost {
	bs := float64(b)
	return kernelCost("cf.syrk", bs*bs*bs, b)
}
func gemmCost(b int) device.KernelCost {
	bs := float64(b)
	return kernelCost("cf.gemm", 2*bs*bs*bs, b)
}

// Run factors the matrix on rig with a grid×grid tiling
// (T = grid(grid+1)/2 lower tiles; the paper counts T = grid² as if the
// full square were tiled) on partitions partitions per device across
// devices devices. grid must divide N. partitions=1, grid=1, devices=1
// is the non-streamed baseline.
func (a *App) Run(rig *core.Rig, devices, partitions, grid int) (core.Result, error) {
	if grid < 1 || a.p.N%grid != 0 {
		return core.Result{}, fmt.Errorf("cf: tile grid %d must divide N=%d", grid, a.p.N)
	}
	if devices < 1 {
		return core.Result{}, fmt.Errorf("cf: need at least one device")
	}
	ctx, ph, err := rig.Reset(hstreams.Config{
		Devices:        devices,
		Partitions:     partitions,
		ExecuteKernels: a.p.Functional,
		Stages:         true,
	})
	if err != nil {
		return core.Result{}, err
	}
	b := a.p.N / grid
	nt := numTiles(grid)
	if a.p.Functional {
		a.grid = grid
		a.tiles = make([]float64, nt*b*b)
		a.packTiles(grid, b)
	}
	buf := hstreams.Alloc(ctx, "A", a.tiles, nt*b*b)

	start := ctx.Now()
	if err := a.enqueueDAG(ph, ctx, buf, grid, b); err != nil {
		return core.Result{}, err
	}
	res := core.Summarize(ctx, a.TotalFlops(), ctx.Barrier().Sub(start))
	if a.p.Functional {
		a.unpackTiles(grid, b)
	}
	return res, nil
}

// enqueueDAG enqueues the right-looking factorization task graph as
// one phase on ph, task by task. Tasks are pinned to streams by tile
// ownership (round-robin over the context's streams by tile index) so
// repeated writers of a tile share a FIFO, and cross-device consumers
// stage tiles through the host.
func (a *App) enqueueDAG(ph *core.Phase, ctx *hstreams.Context, buf *hstreams.Buffer, grid, b int) error {
	nstreams := ctx.NumStreams()
	spp := ctx.Config().StreamsPerPartition
	perDev := ctx.Config().Partitions * spp
	bb := b * b

	owner := func(i, j int) int { return tileIndex(i, j) % nstreams }
	devOf := func(stream int) int { return stream / perDev }

	// lastWriter[tile] is the task id of the tile's latest producer;
	// tileHome[tile] is the device holding the authoritative copy.
	lastWriter := make(map[int]int)
	tileHome := make(map[int]int)
	// One task per (k, j, i) with k ≤ j ≤ i < grid.
	ph.Reset(ctx, grid*(grid+1)*(grid+2)/6)
	// ph keeps neither a task nor its lists, so every task's lists are
	// rebuilt in these.
	var deps []int
	var h2d, d2h []core.TransferSpec
	var err error
	id := 0

	// newTask enqueues one tile kernel writing tile (i,j) and reading
	// the listed input tiles (beyond the output tile itself). After a
	// failed enqueue it does nothing, and err holds the failure.
	newTask := func(cost device.KernelCost, i, j int, reads [][2]int, body func(*hstreams.KernelCtx), final bool) {
		if err != nil {
			return
		}
		s := owner(i, j)
		dev := devOf(s)
		out := tileIndex(i, j)
		deps, h2d, d2h = deps[:0], h2d[:0], d2h[:0]

		use := func(tile int) {
			if w, ok := lastWriter[tile]; ok {
				deps = append(deps, w)
				if tileHome[tile] != dev {
					// Stage the producer's tile to this task's
					// device through the host: the producer
					// already wrote it back (see below); gate
					// our H2D on the producer's completion.
					h2d = append(h2d, core.XferAfter(buf, tile*bb, bb, w))
				}
			} else {
				// First touch: ship the original tile.
				h2d = append(h2d, core.Xfer(buf, tile*bb, bb))
				tileHome[tile] = dev
			}
		}
		use(out)
		for _, r := range reads {
			use(tileIndex(r[0], r[1]))
		}
		// Write the result back whenever another device may need it
		// or this is the tile's final form. Single-device runs only
		// write back finals (L tiles); multi-device runs also
		// publish intermediates, which is exactly the extra traffic
		// the paper blames for the sub-2× scaling of Fig. 11.
		if final || ctx.NumDevices() > 1 {
			d2h = append(d2h, core.Xfer(buf, out*bb, bb))
		}
		lastWriter[out] = id
		tileHome[out] = dev
		t := core.Task{ID: id, H2D: h2d, Cost: cost, Body: body, D2H: d2h, DependsOn: deps, StreamHint: s}
		err = ph.Add(&t)
		id++
	}

	for k := 0; k < grid; k++ {
		k := k
		var potrfBody func(*hstreams.KernelCtx)
		if a.p.Functional {
			potrfBody = func(kc *hstreams.KernelCtx) { a.potrf(kc, buf, k, b, grid) }
		}
		newTask(potrfCost(b), k, k, nil, potrfBody, true)

		for i := k + 1; i < grid; i++ {
			i := i
			var trsmBody func(*hstreams.KernelCtx)
			if a.p.Functional {
				trsmBody = func(kc *hstreams.KernelCtx) { a.trsm(kc, buf, i, k, b, grid) }
			}
			newTask(trsmCost(b), i, k, [][2]int{{k, k}}, trsmBody, true)
		}
		for i := k + 1; i < grid; i++ {
			i := i
			for j := k + 1; j <= i; j++ {
				j := j
				if i == j {
					var syrkBody func(*hstreams.KernelCtx)
					if a.p.Functional {
						syrkBody = func(kc *hstreams.KernelCtx) { a.syrk(kc, buf, i, k, b, grid) }
					}
					newTask(syrkCost(b), i, i, [][2]int{{i, k}}, syrkBody, false)
					continue
				}
				var gemmBody func(*hstreams.KernelCtx)
				if a.p.Functional {
					gemmBody = func(kc *hstreams.KernelCtx) { a.gemm(kc, buf, i, j, k, b, grid) }
				}
				newTask(gemmCost(b), i, j, [][2]int{{i, k}, {j, k}}, gemmBody, false)
			}
		}
	}
	return err
}

// --- functional tile kernels -------------------------------------------

func tileAt(v []float64, i, j, bb int) []float64 {
	base := tileIndex(i, j) * bb
	return v[base : base+bb]
}

// potrf factors tile (k,k) in place: A = L·Lᵀ (unblocked Cholesky).
func (a *App) potrf(kc *hstreams.KernelCtx, buf *hstreams.Buffer, k, b, grid int) {
	v := hstreams.DeviceSlice[float64](buf, kc.DeviceIndex)
	t := tileAt(v, k, k, b*b)
	for c := 0; c < b; c++ {
		s := t[c*b+c]
		for x := 0; x < c; x++ {
			s -= t[c*b+x] * t[c*b+x]
		}
		d := math.Sqrt(s)
		t[c*b+c] = d
		for r := c + 1; r < b; r++ {
			s := t[r*b+c]
			for x := 0; x < c; x++ {
				s -= t[r*b+x] * t[c*b+x]
			}
			t[r*b+c] = s / d
		}
		// Zero the strictly upper part for a clean L.
		for x := c + 1; x < b; x++ {
			t[c*b+x] = 0
		}
	}
}

// trsm solves tile (i,k) ← tile(i,k) · L(k,k)⁻ᵀ.
func (a *App) trsm(kc *hstreams.KernelCtx, buf *hstreams.Buffer, i, k, b, grid int) {
	v := hstreams.DeviceSlice[float64](buf, kc.DeviceIndex)
	l := tileAt(v, k, k, b*b)
	t := tileAt(v, i, k, b*b)
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			s := t[r*b+c]
			for x := 0; x < c; x++ {
				s -= t[r*b+x] * l[c*b+x]
			}
			t[r*b+c] = s / l[c*b+c]
		}
	}
}

// syrk updates the diagonal tile: A(i,i) -= L(i,k)·L(i,k)ᵀ.
func (a *App) syrk(kc *hstreams.KernelCtx, buf *hstreams.Buffer, i, k, b, grid int) {
	v := hstreams.DeviceSlice[float64](buf, kc.DeviceIndex)
	l := tileAt(v, i, k, b*b)
	t := tileAt(v, i, i, b*b)
	for r := 0; r < b; r++ {
		for c := 0; c <= r; c++ {
			s := 0.0
			for x := 0; x < b; x++ {
				s += l[r*b+x] * l[c*b+x]
			}
			t[r*b+c] -= s
			if c != r {
				t[c*b+r] -= s
			}
		}
	}
}

// gemm updates an off-diagonal tile: A(i,j) -= L(i,k)·L(j,k)ᵀ.
func (a *App) gemm(kc *hstreams.KernelCtx, buf *hstreams.Buffer, i, j, k, b, grid int) {
	v := hstreams.DeviceSlice[float64](buf, kc.DeviceIndex)
	li := tileAt(v, i, k, b*b)
	lj := tileAt(v, j, k, b*b)
	t := tileAt(v, i, j, b*b)
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			s := 0.0
			for x := 0; x < b; x++ {
				s += li[r*b+x] * lj[c*b+x]
			}
			t[r*b+c] -= s
		}
	}
}

// packTiles copies the dense matrix into the blocked lower triangle.
func (a *App) packTiles(grid, b int) {
	n := a.p.N
	for i := 0; i < grid; i++ {
		for j := 0; j <= i; j++ {
			base := tileIndex(i, j) * b * b
			for r := 0; r < b; r++ {
				copy(a.tiles[base+r*b:base+(r+1)*b], a.orig[(i*b+r)*n+j*b:(i*b+r)*n+(j+1)*b])
			}
		}
	}
}

// unpackTiles is a no-op placeholder kept for symmetry: verification
// reads the blocked layout directly.
func (a *App) unpackTiles(grid, b int) {}

// Verify checks L·Lᵀ ≈ A on the host (functional mode, after Run).
func (a *App) Verify() error {
	if !a.p.Functional {
		return fmt.Errorf("cf: Verify requires functional mode")
	}
	if a.tiles == nil {
		return fmt.Errorf("cf: Verify before Run")
	}
	n, grid := a.p.N, a.grid
	b := n / grid
	l := func(r, c int) float64 {
		if c > r {
			return 0
		}
		i, j := r/b, c/b
		return a.tiles[tileIndex(i, j)*b*b+(r%b)*b+(c%b)]
	}
	tol := 1e-8 * float64(n) * float64(n)
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			s := 0.0
			for x := 0; x <= c; x++ {
				s += l(r, x) * l(c, x)
			}
			if d := math.Abs(s - a.orig[r*n+c]); d > tol {
				return fmt.Errorf("cf: (L·Lᵀ)[%d,%d] = %g, want %g (Δ=%g)", r, c, s, a.orig[r*n+c], d)
			}
		}
	}
	return nil
}
