// Package hotspot is the paper's Hotspot application (Rodinia): a 2D
// transient thermal simulation that iteratively solves the block-
// temperature differential equations with a 5-point stencil over the
// chip grid, given per-cell power dissipation.
//
// The hStreams port follows Fig. 4(c): every iteration ships the
// temperature grid to the device, runs the stencil, and ships the
// result back, with explicit synchronization between the stages
// (iteration k+1's halo cells require every tile of iteration k).
// The application is therefore non-overlappable: streams provide only
// spatial sharing, and the paper measures no benefit from streaming
// (Fig. 8d) with a slight loss on small grids from stream-management
// overhead. Hotspot drives Figs. 8d, 9d and 10d.
package hotspot

import (
	"fmt"
	"math"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/workload"
)

// Stencil physics constants (Rodinia's defaults, simplified to a fixed
// explicit update).
const (
	stepWeight = 0.1  // integration factor for the power term
	diffWeight = 0.25 // conduction averaging weight
	ambient    = 80.0 // sink temperature pull, scaled
)

// BytesPerCell is the effective memory traffic of one stencil update:
// temperature in/out, power, and halo/conflict-miss overhead on the
// 31SP's ring.
const BytesPerCell = 48

// FlopsPerCell counts the stencil arithmetic (adds, multiplies).
const FlopsPerCell = 10

// Efficiency is the stencil's arithmetic efficiency; the kernel is
// memory-bound, so this only matters for tiny grids.
const Efficiency = 0.15

// Params configures the application.
type Params struct {
	// Dim is the square grid edge length.
	Dim int
	// Iterations is the simulation step count (the paper runs 50).
	Iterations int
	// Functional enables real data and kernels.
	Functional bool
	// Seed seeds the thermal grid generator.
	Seed uint64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Dim <= 0 {
		return fmt.Errorf("hotspot: dim must be positive, got %d", p.Dim)
	}
	if p.Iterations <= 0 {
		return fmt.Errorf("hotspot: iterations must be positive, got %d", p.Iterations)
	}
	return nil
}

// App is an instantiated thermal simulation.
type App struct {
	p     Params
	temp  []float64 // current temperature, functional only
	power []float64 // per-cell power, functional only
	out   []float64 // scratch output grid, functional only
}

// New builds the workload.
func New(p Params) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	app := &App{p: p}
	if p.Functional {
		app.temp, app.power = workload.ThermalGrid(p.Seed, p.Dim, p.Dim)
		app.out = make([]float64, p.Dim*p.Dim)
	}
	return app, nil
}

// Params returns the workload parameters.
func (a *App) Params() Params { return a.p }

// Temperature returns the final grid of the last functional Run.
func (a *App) Temperature() []float64 { return a.temp }

// taskCost models one stencil kernel over rows [lo, hi) of the grid.
func (a *App) taskCost(rows int) device.KernelCost {
	c := device.KernelCost{Name: "hotspot.stencil", CacheSensitive: true, Efficiency: Efficiency}
	a.size(&c, rows)
	return c
}

// size sets the fields of a stencil cost that depend on its stripe of
// rows rows.
func (a *App) size(c *device.KernelCost, rows int) {
	cells := float64(rows) * float64(a.p.Dim)
	c.Flops = FlopsPerCell * cells
	c.Bytes = BytesPerCell * cells
	c.WorkingSetBytes = int64(cells) * 16
}

// Run simulates on rig with the grid split into tasks horizontal
// stripes on partitions partitions. partitions=1, tasks=1 is the
// non-streamed baseline. Each iteration performs the paper's
// synchronized H2D→EXE→D2H sequence.
func (a *App) Run(rig *core.Rig, partitions, tasks int) (core.Result, error) {
	if tasks < 1 || tasks > a.p.Dim {
		return core.Result{}, fmt.Errorf("hotspot: task count %d out of range [1,%d]", tasks, a.p.Dim)
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
	bufIn := hstreams.Alloc(ctx, "temp", a.temp, d*d)
	bufOut := hstreams.Alloc(ctx, "tempOut", a.out, d*d)
	bufPower := hstreams.Alloc(ctx, "power", a.power, d*d)

	start := ctx.Now()
	// Power is shipped once and stays resident.
	if _, err := ctx.Stream(0).EnqueueH2D(bufPower, 0, d*d, -1); err != nil {
		return core.Result{}, err
	}
	ctx.Barrier()

	rowOf := func(t int) (lo, hi int) { return t * d / tasks, (t + 1) * d / tasks }

	// ph enqueues each task as it is built and keeps neither the task
	// nor its lists, so each stage's task is built once, and a tile
	// sets only its ID and its transfer or its cost's size.
	var xfer [1]core.TransferSpec
	ship := core.Task{H2D: xfer[:], StreamHint: -1, TransferOnly: true}
	stencil := core.Task{Cost: a.taskCost(0), StreamHint: -1}
	back := core.Task{D2H: xfer[:], StreamHint: -1, TransferOnly: true}
	for iter := 0; iter < a.p.Iterations; iter++ {
		// Stage 1: ship the current grid, tiled; synchronize.
		ph.Reset(ctx, tasks)
		for t := 0; t < tasks; t++ {
			lo, hi := rowOf(t)
			xfer[0] = core.Xfer(bufIn, lo*d, (hi-lo)*d)
			ship.ID = t
			if err := ph.Add(&ship); err != nil {
				return core.Result{}, err
			}
		}
		ctx.Barrier()

		// Stage 2: stencil kernels; synchronize (halo dependency).
		ph.Reset(ctx, tasks)
		for t := 0; t < tasks; t++ {
			lo, hi := rowOf(t)
			stencil.ID = t
			a.size(&stencil.Cost, hi-lo)
			if a.p.Functional {
				lo, hi := lo, hi
				stencil.Body = func(k *hstreams.KernelCtx) {
					a.stencil(k, bufIn, bufOut, bufPower, lo, hi)
				}
			}
			if err := ph.Add(&stencil); err != nil {
				return core.Result{}, err
			}
		}
		ctx.Barrier()

		// Stage 3: ship the result back, tiled; synchronize.
		ph.Reset(ctx, tasks)
		for t := 0; t < tasks; t++ {
			lo, hi := rowOf(t)
			xfer[0] = core.Xfer(bufOut, lo*d, (hi-lo)*d)
			back.ID = t
			if err := ph.Add(&back); err != nil {
				return core.Result{}, err
			}
		}
		ctx.Barrier()

		// Host swaps the buffers for the next iteration.
		if a.p.Functional {
			a.temp, a.out = a.out, a.temp
			bufIn, bufOut = bufOut, bufIn
		} else {
			bufIn, bufOut = bufOut, bufIn
		}
	}
	wall := ctx.Now().Sub(start)
	flops := FlopsPerCell * float64(d) * float64(d) * float64(a.p.Iterations)
	return core.Summarize(ctx, flops, wall), nil
}

// stencil is the functional kernel: explicit 5-point thermal update
// over rows [lo, hi), reading the full input grid (halo rows included).
func (a *App) stencil(k *hstreams.KernelCtx, bufIn, bufOut, bufPower *hstreams.Buffer, lo, hi int) {
	d := a.p.Dim
	in := hstreams.DeviceSlice[float64](bufIn, k.DeviceIndex)
	out := hstreams.DeviceSlice[float64](bufOut, k.DeviceIndex)
	pw := hstreams.DeviceSlice[float64](bufPower, k.DeviceIndex)
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
		return in[r*d+c]
	}
	for r := lo; r < hi; r++ {
		for c := 0; c < d; c++ {
			center := in[r*d+c]
			conduction := diffWeight * (at(r-1, c) + at(r+1, c) + at(r, c-1) + at(r, c+1) - 4*center)
			out[r*d+c] = center + stepWeight*pw[r*d+c] + conduction - stepWeight*(center-ambient)/1000
		}
	}
}

// Reference runs the same simulation on the host for verification.
func (a *App) Reference() ([]float64, error) {
	if !a.p.Functional {
		return nil, fmt.Errorf("hotspot: Reference requires functional mode")
	}
	d := a.p.Dim
	temp, power := workload.ThermalGrid(a.p.Seed, d, d)
	next := make([]float64, d*d)
	at := func(g []float64, r, c int) float64 {
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
		return g[r*d+c]
	}
	for iter := 0; iter < a.p.Iterations; iter++ {
		for r := 0; r < d; r++ {
			for c := 0; c < d; c++ {
				center := temp[r*d+c]
				conduction := diffWeight * (at(temp, r-1, c) + at(temp, r+1, c) + at(temp, r, c-1) + at(temp, r, c+1) - 4*center)
				next[r*d+c] = center + stepWeight*power[r*d+c] + conduction - stepWeight*(center-ambient)/1000
			}
		}
		temp, next = next, temp
	}
	return temp, nil
}

// Verify compares the device result with the host reference.
func (a *App) Verify() error {
	want, err := a.Reference()
	if err != nil {
		return err
	}
	if a.temp == nil {
		return fmt.Errorf("hotspot: Verify before Run")
	}
	for i := range want {
		if math.Abs(a.temp[i]-want[i]) > 1e-9 {
			return fmt.Errorf("hotspot: temp[%d] = %g, want %g", i, a.temp[i], want[i])
		}
	}
	return nil
}
