// Package srad is the paper's SRAD application (Rodinia): Speckle
// Reducing Anisotropic Diffusion, a PDE-based denoiser for ultrasonic
// and radar images. Every iteration runs three device phases with
// explicit synchronization between them — a statistics reduction that
// yields the speckle scale q0², a diffusion-coefficient stencil, and an
// image-update stencil — so transfers (tiny per-iteration partials)
// cannot overlap kernels and streams provide only spatial sharing
// (Fig. 4(f), §V-B).
//
// The paper observes that streamed SRAD loses on small images yet —
// unexpectedly, for a non-overlappable code — wins on large ones
// (§V-A, "the reason is still under investigation"). In this model the
// win emerges from L2 residency: the coefficient grid a tile wrote in
// phase 2 is re-read in phase 3, so tiles small enough to sit in a
// partition's aggregate L2 (KernelCost.FitBonus) run the second stencil
// faster, while the non-streamed whole-image kernels never hit. SRAD
// drives Figs. 8f, 9f and 10f.
package srad

import (
	"fmt"
	"math"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/sim"
	"micstream/internal/workload"
)

// BytesPerCell is the effective memory traffic per cell of each stencil
// phase (image + coefficient reads with 4-neighbour misses, one write).
const BytesPerCell = 160

// FlopsPerCell approximates each stencil phase's arithmetic including
// the divisions in the diffusion coefficient.
const FlopsPerCell = 30

// Efficiency is the stencil phases' arithmetic efficiency.
const Efficiency = 0.05

// FitBonus is the speedup of a stencil phase whose tile stayed resident
// in the partition's L2 since the previous phase of the same iteration.
const FitBonus = 0.3

// HostStatsNs is the host-side combination of per-task statistics
// partials into q0² each iteration.
const HostStatsNs = 30_000

// Params configures the application.
type Params struct {
	// Dim is the square image edge length.
	Dim int
	// Iterations is the diffusion step count (the paper runs 100).
	Iterations int
	// Lambda is the update weight (the paper uses 0.5).
	Lambda float64
	// Functional enables real data and kernels.
	Functional bool
	// Seed seeds the speckled-image generator.
	Seed uint64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.Dim <= 0:
		return fmt.Errorf("srad: dim must be positive, got %d", p.Dim)
	case p.Iterations <= 0:
		return fmt.Errorf("srad: iterations must be positive, got %d", p.Iterations)
	case p.Lambda <= 0 || p.Lambda > 1:
		return fmt.Errorf("srad: lambda %g out of (0,1]", p.Lambda)
	}
	return nil
}

// App is an instantiated denoising workload.
type App struct {
	p   Params
	img []float64 // current image, functional only
	c   []float64 // diffusion coefficients, functional only
}

// New builds the workload.
func New(p Params) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	app := &App{p: p}
	if p.Functional {
		app.img = workload.UltrasoundImage(p.Seed, p.Dim, p.Dim)
		app.c = make([]float64, p.Dim*p.Dim)
	}
	return app, nil
}

// Params returns the workload parameters.
func (a *App) Params() Params { return a.p }

// Image returns the image after the last functional Run.
func (a *App) Image() []float64 { return a.img }

// reduceCost models the per-task statistics reduction over n cells.
func reduceCost(n int) device.KernelCost {
	c := device.KernelCost{Name: "srad.reduce", Efficiency: Efficiency}
	sizeReduce(&c, n)
	return c
}

// sizeReduce sets the fields of a reduction cost that depend on its n
// cells.
func sizeReduce(c *device.KernelCost, n int) {
	c.Flops = 2 * float64(n)
	c.Bytes = 8 * float64(n)
}

// stencilCost models one diffusion stencil phase over n cells; ws is
// the tile working set carried between the two phases.
func stencilCost(name string, n int, ws int64) device.KernelCost {
	c := device.KernelCost{Name: name, CacheSensitive: true, FitBonus: FitBonus, Efficiency: Efficiency}
	sizeStencil(&c, n, ws)
	return c
}

// sizeStencil sets the fields of a stencil cost that depend on its
// tile: n cells and working set ws.
func sizeStencil(c *device.KernelCost, n int, ws int64) {
	c.Flops = FlopsPerCell * float64(n)
	c.Bytes = BytesPerCell * float64(n)
	c.WorkingSetBytes = ws
}

// Run denoises on rig with the image split into tasks horizontal
// stripes on partitions partitions. partitions=1, tasks=1 is the
// non-streamed baseline.
func (a *App) Run(rig *core.Rig, partitions, tasks int) (core.Result, error) {
	if tasks < 1 || tasks > a.p.Dim {
		return core.Result{}, fmt.Errorf("srad: task count %d out of range [1,%d]", tasks, a.p.Dim)
	}
	ctx, ph, err := rig.Reset(hstreams.Config{
		Partitions:     partitions,
		ExecuteKernels: a.p.Functional,
		Stages:         true,
	})
	if err != nil {
		return core.Result{}, err
	}
	d := a.p.Dim
	// deriv holds the directional derivatives dN,dS,dW,dE stored by
	// phase 2 and consumed by phase 3, exactly as Rodinia's srad
	// kernels do; device-resident, never transferred.
	var deriv, statsHost []float64
	if a.p.Functional {
		deriv, statsHost = make([]float64, 4*d*d), make([]float64, 2*tasks)
	}
	bufImg := hstreams.Alloc(ctx, "img", a.img, d*d)
	bufC := hstreams.Alloc(ctx, "c", a.c, d*d)
	bufDeriv := hstreams.Alloc(ctx, "deriv", deriv, 4*d*d)
	bufStats := hstreams.Alloc(ctx, "stats", statsHost, 2*tasks)

	start := ctx.Now()
	// The image is extracted to the device once and stays resident.
	if _, err := ctx.Stream(0).EnqueueH2D(bufImg, 0, d*d, -1); err != nil {
		return core.Result{}, err
	}
	ctx.Barrier()

	rowOf := func(t int) (lo, hi int) { return t * d / tasks, (t + 1) * d / tasks }
	cells := func(lo, hi int) int { return (hi - lo) * d }
	tileWS := func(lo, hi int) int64 { return int64(cells(lo, hi)) * 16 } // img + c

	// ph enqueues each task as it is built and keeps neither the task
	// nor its lists, so each phase's task is built once, and a stripe
	// sets only its ID, its cost's size and its stats slot.
	var stats [1]core.TransferSpec
	reduce := core.Task{Cost: reduceCost(0), D2H: stats[:], StreamHint: -1}
	coeff := core.Task{Cost: stencilCost("srad.coeff", 0, 0), StreamHint: -1}
	update := core.Task{Cost: stencilCost("srad.update", 0, 0), StreamHint: -1}
	q0sqr := 0.0
	for iter := 0; iter < a.p.Iterations; iter++ {
		// Phase 1: statistics reduction; D2H per-task partials; sync.
		ph.Reset(ctx, tasks)
		for t := 0; t < tasks; t++ {
			lo, hi := rowOf(t)
			stats[0] = core.Xfer(bufStats, 2*t, 2)
			reduce.ID = t
			sizeReduce(&reduce.Cost, cells(lo, hi))
			if a.p.Functional {
				t, lo, hi := t, lo, hi
				reduce.Body = func(k *hstreams.KernelCtx) { a.reduce(k, bufImg, bufStats, t, lo, hi) }
			}
			if err := ph.Add(&reduce); err != nil {
				return core.Result{}, err
			}
		}
		ctx.Barrier()
		// Host combines partials into the speckle scale q0².
		if a.p.Functional {
			var sum, sum2 float64
			for t := 0; t < tasks; t++ {
				sum += statsHost[2*t]
				sum2 += statsHost[2*t+1]
			}
			n := float64(d * d)
			mean := sum / n
			variance := sum2/n - mean*mean
			q0sqr = variance / (mean * mean)
		}
		ctx.HostWork(sim.Duration(HostStatsNs), "srad.stats")

		// Phase 2: diffusion-coefficient stencil; sync (halo).
		ph.Reset(ctx, tasks)
		for t := 0; t < tasks; t++ {
			lo, hi := rowOf(t)
			coeff.ID = t
			sizeStencil(&coeff.Cost, cells(lo, hi), tileWS(lo, hi))
			if a.p.Functional {
				lo, hi := lo, hi
				q := q0sqr
				coeff.Body = func(k *hstreams.KernelCtx) { a.coefficients(k, bufImg, bufC, bufDeriv, q, lo, hi) }
			}
			if err := ph.Add(&coeff); err != nil {
				return core.Result{}, err
			}
		}
		ctx.Barrier()

		// Phase 3: image update stencil; sync.
		ph.Reset(ctx, tasks)
		for t := 0; t < tasks; t++ {
			lo, hi := rowOf(t)
			update.ID = t
			sizeStencil(&update.Cost, cells(lo, hi), tileWS(lo, hi))
			if a.p.Functional {
				lo, hi := lo, hi
				update.Body = func(k *hstreams.KernelCtx) { a.update(k, bufImg, bufC, bufDeriv, lo, hi) }
			}
			if err := ph.Add(&update); err != nil {
				return core.Result{}, err
			}
		}
		ctx.Barrier()
	}

	// Image compression: the result returns to the host once.
	if _, err := ctx.Stream(0).EnqueueD2H(bufImg, 0, d*d, -1); err != nil {
		return core.Result{}, err
	}
	ctx.Barrier()
	wall := ctx.Now().Sub(start)
	flops := float64(a.p.Iterations) * float64(d) * float64(d) * (2 + 2*FlopsPerCell)
	return core.Summarize(ctx, flops, wall), nil
}

// reduce computes per-task sum and sum of squares.
func (a *App) reduce(k *hstreams.KernelCtx, bufImg, bufStats *hstreams.Buffer, task, lo, hi int) {
	d := a.p.Dim
	img := hstreams.DeviceSlice[float64](bufImg, k.DeviceIndex)
	st := hstreams.DeviceSlice[float64](bufStats, k.DeviceIndex)
	var sum, sum2 float64
	for i := lo * d; i < hi*d; i++ {
		sum += img[i]
		sum2 += img[i] * img[i]
	}
	st[2*task] = sum
	st[2*task+1] = sum2
}

// coefficients computes the diffusion coefficient and stores the four
// directional derivatives for rows [lo, hi) — Rodinia's first SRAD
// kernel. Storing the derivatives is what makes the in-place phase-3
// update safe and deterministic: phase 3 never re-reads image halos.
func (a *App) coefficients(k *hstreams.KernelCtx, bufImg, bufC, bufDeriv *hstreams.Buffer, q0sqr float64, lo, hi int) {
	d := a.p.Dim
	img := hstreams.DeviceSlice[float64](bufImg, k.DeviceIndex)
	cv := hstreams.DeviceSlice[float64](bufC, k.DeviceIndex)
	dv := hstreams.DeviceSlice[float64](bufDeriv, k.DeviceIndex)
	at := func(r, c int) float64 {
		if r < 0 {
			r = 0
		}
		if r >= d {
			r = d - 1
		}
		if c < 0 {
			c = 0
		}
		if c >= d {
			c = d - 1
		}
		return img[r*d+c]
	}
	nn := d * d
	for r := lo; r < hi; r++ {
		for c := 0; c < d; c++ {
			i := r*d + c
			j := img[i]
			dN := at(r-1, c) - j
			dS := at(r+1, c) - j
			dW := at(r, c-1) - j
			dE := at(r, c+1) - j
			dv[i] = dN
			dv[nn+i] = dS
			dv[2*nn+i] = dW
			dv[3*nn+i] = dE
			g2 := (dN*dN + dS*dS + dW*dW + dE*dE) / (j * j)
			l := (dN + dS + dW + dE) / j
			num := 0.5*g2 - (1.0/16.0)*l*l
			den := 1 + 0.25*l
			qsqr := num / (den * den)
			den = (qsqr - q0sqr) / (q0sqr * (1 + q0sqr))
			coeff := 1.0 / (1.0 + den)
			if coeff < 0 {
				coeff = 0
			}
			if coeff > 1 {
				coeff = 1
			}
			cv[i] = coeff
		}
	}
}

// update applies the diffusion step to rows [lo, hi) — Rodinia's second
// SRAD kernel. It reads the coefficient grid (south/east halos, stable
// since the phase-2 barrier) and the stored derivatives of its own
// cells, then updates the image in place; tasks write disjoint rows.
func (a *App) update(k *hstreams.KernelCtx, bufImg, bufC, bufDeriv *hstreams.Buffer, lo, hi int) {
	d := a.p.Dim
	img := hstreams.DeviceSlice[float64](bufImg, k.DeviceIndex)
	cv := hstreams.DeviceSlice[float64](bufC, k.DeviceIndex)
	dv := hstreams.DeviceSlice[float64](bufDeriv, k.DeviceIndex)
	cAt := func(r, c int) float64 {
		if r >= d {
			r = d - 1
		}
		if c >= d {
			c = d - 1
		}
		return cv[r*d+c]
	}
	lambda := a.p.Lambda
	nn := d * d
	for r := lo; r < hi; r++ {
		for c := 0; c < d; c++ {
			i := r*d + c
			cN := cv[i]
			cS := cAt(r+1, c)
			cW := cv[i]
			cE := cAt(r, c+1)
			div := cN*dv[i] + cS*dv[nn+i] + cW*dv[2*nn+i] + cE*dv[3*nn+i]
			img[i] += (lambda / 4) * div
		}
	}
}

// Reference runs the same diffusion on the host for verification.
func (a *App) Reference() ([]float64, error) {
	if !a.p.Functional {
		return nil, fmt.Errorf("srad: Reference requires functional mode")
	}
	ref, err := New(Params{Dim: a.p.Dim, Iterations: a.p.Iterations, Lambda: a.p.Lambda, Functional: true, Seed: a.p.Seed})
	if err != nil {
		return nil, err
	}
	// Single task, single partition: the same kernels, no tiling.
	if _, err := ref.Run(new(core.Rig), 1, 1); err != nil {
		return nil, err
	}
	return ref.img, nil
}

// Verify checks that the tiled result matches the single-task result
// and that speckle actually decreased.
func (a *App) Verify() error {
	if !a.p.Functional {
		return fmt.Errorf("srad: Verify requires functional mode")
	}
	want, err := a.Reference()
	if err != nil {
		return err
	}
	for i := range want {
		if math.Abs(a.img[i]-want[i]) > 1e-9 {
			return fmt.Errorf("srad: img[%d] = %g, want %g", i, a.img[i], want[i])
		}
	}
	return nil
}

// SpeckleIndex reports variance/mean² of an image — the noise measure
// SRAD reduces.
func SpeckleIndex(img []float64) float64 {
	n := float64(len(img))
	var sum, sum2 float64
	for _, v := range img {
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	return (sum2/n - mean*mean) / (mean * mean)
}
