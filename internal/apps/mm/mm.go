// Package mm is the paper's Matrix Multiplication application (from the
// hStreams SDK): C = A·B with C divided into a grid of square tiles,
// one task per tile. Each task ships the A row-panel and B column-panel
// it needs, multiplies on the device, and returns its C tile — the
// fully overlappable flow of Fig. 4(a). MM drives Figs. 8a, 9a and 10a.
//
// Data is float32 (the SDK's sgemm-style demo); B is stored transposed
// so both panels are contiguous transfer ranges, and C uses a
// tile-blocked layout so each task's output is one contiguous range.
package mm

import (
	"fmt"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/workload"
)

// Efficiency is the kernel's arithmetic efficiency relative to peak —
// a well-blocked single-precision GEMM on the 31SP, calibrated so the
// best streamed configuration of Fig. 9a lands near the paper's
// ≈550-600 GFLOPS at D = 6000.
const Efficiency = 0.62

// Params configures the application.
type Params struct {
	// N is the matrix dimension (N×N).
	N int
	// Functional enables real data and kernels.
	Functional bool
	// Seed seeds the matrix generator in functional mode.
	Seed uint64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("mm: N must be positive, got %d", p.N)
	}
	return nil
}

// App is an instantiated matrix-multiplication workload.
type App struct {
	p  Params
	a  []float32 // row-major A, functional only
	bt []float32 // transposed B (row-major Bᵀ), functional only
	c  []float32 // tile-blocked C, functional only
}

// New builds the workload.
func New(p Params) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	app := &App{p: p}
	if p.Functional {
		rng := workload.NewRNG(p.Seed)
		n := p.N
		app.a = make([]float32, n*n)
		app.bt = make([]float32, n*n)
		for i := range app.a {
			app.a[i] = float32(rng.Range(-1, 1))
			app.bt[i] = float32(rng.Range(-1, 1))
		}
		app.c = make([]float32, n*n)
	}
	return app, nil
}

// Params returns the workload parameters.
func (a *App) Params() Params { return a.p }

// TotalFlops reports the useful work: 2·N³.
func (a *App) TotalFlops() float64 {
	n := float64(a.p.N)
	return 2 * n * n * n
}

// TileCost returns the timing-model cost of one tile task for a grid
// of g×g tiles: a (N/g)×(N/g) output tile accumulated over N terms.
// Small tiles lose blocking efficiency (fringe handling, less register
// and L2 reuse), modeled by the bs/(bs+10) factor — the gentle decline
// of Fig. 10a's right half.
func (a *App) TileCost(g int) device.KernelCost {
	n, bs := float64(a.p.N), float64(a.p.N/g)
	return device.KernelCost{
		Name:           "mm.tile",
		Flops:          2 * bs * bs * n,
		Bytes:          (2*bs*n + bs*bs) * 4,
		Efficiency:     Efficiency * bs / (bs + 10),
		ScalingPenalty: 0.10,
	}
}

// Run executes the workload on rig with C tiled into grid×grid tasks on
// partitions streams; grid = 1, partitions = 1 is the non-streamed
// baseline. grid must divide N.
func (a *App) Run(rig *core.Rig, partitions, grid int) (core.Result, error) {
	if grid < 1 || a.p.N%grid != 0 {
		return core.Result{}, fmt.Errorf("mm: tile grid %d must divide N=%d", grid, a.p.N)
	}
	ctx, ph, err := rig.Reset(hstreams.Config{
		Partitions:     partitions,
		ExecuteKernels: a.p.Functional,
		Stages:         true,
	})
	if err != nil {
		return core.Result{}, err
	}
	n, bs := a.p.N, a.p.N/grid
	bufA := hstreams.Alloc(ctx, "A", a.a, n*n)
	bufBt := hstreams.Alloc(ctx, "Bt", a.bt, n*n)
	bufC := hstreams.Alloc(ctx, "C", a.c, n*n)

	cost := a.TileCost(grid)
	// Each A row-panel and B column-panel is shipped exactly once as
	// a transfer-only task; the grid² compute tasks gate on the two
	// panels they consume. Total H2D traffic therefore equals the
	// matrix sizes — the same bytes the non-streamed version moves —
	// and overlap, not transfer avoidance, is what streams buy.
	// ph enqueues each task as it is built and keeps neither the task
	// nor its lists, so one task variable, xfer and deps serve every
	// panel and tile.
	start := ctx.Now()
	ph.Reset(ctx, grid*(grid+2))
	var xfer [1]core.TransferSpec
	var deps [2]int
	panelA := func(i int) int { return i }
	panelB := func(j int) int { return grid + j }
	// Interleave the A and B panel shipments so the first compute
	// task (which needs A₀ and B₀) unlocks after two transfers, not
	// after the entire A matrix has crossed the link.
	for i := 0; i < grid; i++ {
		xfer[0] = core.Xfer(bufA, i*bs*n, bs*n)
		task := core.Task{ID: panelA(i), H2D: xfer[:], StreamHint: -1, TransferOnly: true}
		if err := ph.Add(&task); err != nil {
			return core.Result{}, err
		}
		xfer[0] = core.Xfer(bufBt, i*bs*n, bs*n)
		task = core.Task{ID: panelB(i), H2D: xfer[:], StreamHint: -1, TransferOnly: true}
		if err := ph.Add(&task); err != nil {
			return core.Result{}, err
		}
	}
	for ti := 0; ti < grid; ti++ {
		for tj := 0; tj < grid; tj++ {
			tile := ti*grid + tj
			deps = [2]int{panelA(ti), panelB(tj)}
			xfer[0] = core.Xfer(bufC, tile*bs*bs, bs*bs)
			task := core.Task{
				ID:         2*grid + tile,
				DependsOn:  deps[:],
				Cost:       cost,
				D2H:        xfer[:],
				StreamHint: -1,
			}
			if a.p.Functional {
				ti, tj := ti, tj
				task.Body = func(k *hstreams.KernelCtx) {
					a.multiplyTile(k, bufA, bufBt, bufC, ti, tj, bs)
				}
			}
			if err := ph.Add(&task); err != nil {
				return core.Result{}, err
			}
		}
	}
	return core.Summarize(ctx, a.TotalFlops(), ctx.Barrier().Sub(start)), nil
}

// multiplyTile computes C tile (ti, tj) = A panel × B panel on the
// device shadows. C is tile-blocked: tile (ti,tj) occupies the
// contiguous range [(ti·g+tj)·bs², ...).
func (a *App) multiplyTile(k *hstreams.KernelCtx, bufA, bufBt, bufC *hstreams.Buffer, ti, tj, bs int) {
	n := a.p.N
	grid := n / bs
	av := hstreams.DeviceSlice[float32](bufA, k.DeviceIndex)
	btv := hstreams.DeviceSlice[float32](bufBt, k.DeviceIndex)
	cv := hstreams.DeviceSlice[float32](bufC, k.DeviceIndex)
	cbase := (ti*grid + tj) * bs * bs
	for r := 0; r < bs; r++ {
		arow := av[(ti*bs+r)*n : (ti*bs+r+1)*n]
		for c := 0; c < bs; c++ {
			btrow := btv[(tj*bs+c)*n : (tj*bs+c+1)*n]
			var sum float32
			for x := range arow {
				sum += arow[x] * btrow[x]
			}
			cv[cbase+r*bs+c] = sum
		}
	}
}

// VerifyGrid recomputes C on the host for the tile grid used in the
// last Run and compares it with the device result (functional mode
// only; C's blocked layout depends on the grid). Tolerance covers
// float32 accumulation-order differences.
func (a *App) VerifyGrid(grid int) error {
	if !a.p.Functional {
		return fmt.Errorf("mm: VerifyGrid requires functional mode")
	}
	if grid < 1 || a.p.N%grid != 0 {
		return fmt.Errorf("mm: bad grid %d", grid)
	}
	n, bs := a.p.N, a.p.N/grid
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var want float64
			for x := 0; x < n; x++ {
				want += float64(a.a[i*n+x]) * float64(a.bt[j*n+x])
			}
			ti, tj := i/bs, j/bs
			got := float64(a.c[(ti*grid+tj)*bs*bs+(i%bs)*bs+(j%bs)])
			if diff := got - want; diff > tol(n) || diff < -tol(n) {
				return fmt.Errorf("mm: C[%d,%d] = %g, want %g", i, j, got, want)
			}
		}
	}
	return nil
}

func tol(n int) float64 { return 1e-4 * float64(n) }
