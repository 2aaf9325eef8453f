// Package hbench is the paper's microbenchmark (§III-B-1): the kernel
// B[i] = A[i] + α whose compute intensity is dialed by repeating the
// addition for a configurable number of iterations. It drives the three
// microbenchmark experiments:
//
//   - Fig. 5: overlap of H2D and D2H transfers (patterns CC/IC/CD/ID);
//   - Fig. 6: overlap of transfers with kernel execution, sweeping the
//     iteration count through the transfer/compute crossover;
//   - Fig. 7: spatial sharing — kernel-only time across partition
//     counts with the array pre-split into 128 blocks.
package hbench

import (
	"fmt"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/sim"
	"micstream/internal/workload"
)

// Efficiency is the kernel's arithmetic efficiency relative to device
// peak. B[i] = A[i] + α is a scalar, memory-latency-bound loop; the
// calibrated value reproduces the paper's ≈40-iteration crossover in
// Fig. 6: kernel time equals the ≈5 ms transfer time of the two 16 MB
// arrays at 40 iterations, i.e. 1.68e8 element-ops in 5 ms on 224
// threads ≈ 3.6% of the 31SP's peak.
const Efficiency = 0.0364

// Params configures the microbenchmark.
type Params struct {
	// Elements is the length of arrays A and B (float32).
	Elements int
	// Iterations is the number of times the addition is repeated —
	// the compute-intensity dial.
	Iterations int
	// Alpha is the added constant.
	Alpha float32
	// Functional enables real data and kernel execution.
	Functional bool
	// Seed seeds the input generator in functional mode.
	Seed uint64
}

// DefaultParams returns the paper's Fig. 6 setup: 16 MB arrays.
func DefaultParams() Params {
	return Params{Elements: 4 << 20, Iterations: 40, Alpha: 1.5}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Elements <= 0 {
		return fmt.Errorf("hbench: elements must be positive, got %d", p.Elements)
	}
	if p.Iterations < 1 {
		return fmt.Errorf("hbench: iterations must be ≥ 1, got %d", p.Iterations)
	}
	return nil
}

// Cost returns the timing-model cost of one kernel invocation covering
// n elements for the given iteration count.
func Cost(n, iterations int) device.KernelCost {
	return device.KernelCost{
		Name:       "hbench",
		Flops:      float64(n) * float64(iterations),
		Bytes:      float64(n) * 8, // read A, write B, float32 each
		Efficiency: Efficiency,
	}
}

// App is an instantiated microbenchmark.
type App struct {
	p Params
	a []float32 // input, functional mode only
	b []float32 // output, functional mode only
}

// New builds the microbenchmark.
func New(p Params) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	app := &App{p: p}
	if p.Functional {
		rng := workload.NewRNG(p.Seed)
		app.a = make([]float32, p.Elements)
		for i := range app.a {
			app.a[i] = rng.Float32()
		}
		app.b = make([]float32, p.Elements)
	}
	return app, nil
}

// Params returns the benchmark's parameters.
func (a *App) Params() Params { return a.p }

func (a *App) newContext(partitions int) (*hstreams.Context, error) {
	return hstreams.Init(hstreams.Config{
		Partitions:     partitions,
		ExecuteKernels: a.p.Functional,
		Stages:         true,
	})
}

func (a *App) buffers(ctx *hstreams.Context) (bufA, bufB *hstreams.Buffer) {
	if a.p.Functional {
		return hstreams.Alloc1D(ctx, "A", a.a), hstreams.Alloc1D(ctx, "B", a.b)
	}
	return hstreams.AllocVirtual(ctx, "A", a.p.Elements, 4),
		hstreams.AllocVirtual(ctx, "B", a.p.Elements, 4)
}

// body returns the functional kernel over [off, off+n).
func (a *App) body(bufA, bufB *hstreams.Buffer, off, n int) func(*hstreams.KernelCtx) {
	if !a.p.Functional {
		return nil
	}
	alpha := a.p.Alpha
	return func(k *hstreams.KernelCtx) {
		src := hstreams.DeviceSlice[float32](bufA, k.DeviceIndex)
		dst := hstreams.DeviceSlice[float32](bufB, k.DeviceIndex)
		for i := off; i < off+n; i++ {
			dst[i] = src[i] + alpha
		}
	}
}

// TransferPattern measures Fig. 5's transfer scenarios: hd blocks move
// host→device followed by dh blocks device→host, each of blockBytes
// bytes, all enqueued at time zero on one stream pair. It returns the
// total transfer time.
func TransferPattern(hd, dh int, blockBytes int64) (sim.Duration, error) {
	if hd < 0 || dh < 0 || blockBytes <= 0 {
		return 0, fmt.Errorf("hbench: invalid transfer pattern hd=%d dh=%d block=%d", hd, dh, blockBytes)
	}
	ctx, err := hstreams.Init(hstreams.Config{Partitions: 2})
	if err != nil {
		return 0, err
	}
	defer ctx.Close()
	elems := int(blockBytes) // 1-byte elements
	buf := hstreams.AllocVirtual(ctx, "blocks", elems, 1)
	// Two streams so that the H2D and D2H queues are independent:
	// any serialization observed comes from the link, not FIFO order.
	s0, s1 := ctx.Stream(0), ctx.Stream(1)
	for i := 0; i < hd; i++ {
		if _, err := s0.EnqueueH2D(buf, 0, elems, i); err != nil {
			return 0, err
		}
	}
	for i := 0; i < dh; i++ {
		if _, err := s1.EnqueueD2H(buf, 0, elems, hd+i); err != nil {
			return 0, err
		}
	}
	return ctx.Barrier().Sub(0), nil
}

// DataTime measures the pure transfer time of the benchmark's arrays:
// A host→device plus B device→host, no kernel (Fig. 6's "Data" line).
func (a *App) DataTime() (sim.Duration, error) {
	ctx, err := a.newContext(1)
	if err != nil {
		return 0, err
	}
	defer ctx.Close()
	bufA, bufB := a.buffers(ctx)
	s := ctx.Stream(0)
	if _, err := s.EnqueueH2D(bufA, 0, a.p.Elements, 0); err != nil {
		return 0, err
	}
	if _, err := s.EnqueueD2H(bufB, 0, a.p.Elements, 0); err != nil {
		return 0, err
	}
	return ctx.Barrier().Sub(0), nil
}

// KernelTime measures the pure kernel time on the whole device
// (Fig. 6's "Kernel" line).
func (a *App) KernelTime() (sim.Duration, error) {
	ctx, err := a.newContext(1)
	if err != nil {
		return 0, err
	}
	defer ctx.Close()
	bufA, bufB := a.buffers(ctx)
	s := ctx.Stream(0)
	s.EnqueueKernel(Cost(a.p.Elements, a.p.Iterations), 0, a.body(bufA, bufB, 0, a.p.Elements))
	return ctx.Barrier().Sub(0), nil
}

// RunSerial measures the non-streamed, non-tiled offload: H2D, one
// kernel, D2H, strictly sequential (Fig. 6's "Data+Kernel" expectation
// and Fig. 7's "ref" bar).
func (a *App) RunSerial() (core.Result, error) {
	ctx, err := a.newContext(1)
	if err != nil {
		return core.Result{}, err
	}
	defer ctx.Close()
	bufA, bufB := a.buffers(ctx)
	tasks := []*core.Task{{
		ID:         0,
		H2D:        []core.TransferSpec{core.Xfer(bufA, 0, a.p.Elements)},
		Cost:       Cost(a.p.Elements, a.p.Iterations),
		Body:       a.body(bufA, bufB, 0, a.p.Elements),
		D2H:        []core.TransferSpec{core.Xfer(bufB, 0, a.p.Elements)},
		StreamHint: -1,
	}}
	return core.Run(ctx, tasks, float64(a.p.Elements)*float64(a.p.Iterations))
}

// RunStreamed measures the tiled, multi-stream offload: the arrays are
// split into tiles tasks pipelined over partitions streams — Fig. 6's
// "Streamed" line.
func (a *App) RunStreamed(partitions, tiles int) (core.Result, error) {
	if tiles < 1 || tiles > a.p.Elements {
		return core.Result{}, fmt.Errorf("hbench: tile count %d out of range", tiles)
	}
	ctx, err := a.newContext(partitions)
	if err != nil {
		return core.Result{}, err
	}
	defer ctx.Close()
	bufA, bufB := a.buffers(ctx)
	// ph enqueues each task as it is built and keeps neither the task
	// nor its lists, so one task variable and in/out serve every tile.
	var ph core.Phase
	defer ph.Close()
	ph.Reset(ctx, tiles)
	var in, out [1]core.TransferSpec
	for i := 0; i < tiles; i++ {
		off := i * a.p.Elements / tiles
		end := (i + 1) * a.p.Elements / tiles
		n := end - off
		in[0], out[0] = core.Xfer(bufA, off, n), core.Xfer(bufB, off, n)
		task := core.Task{
			ID:         i,
			H2D:        in[:],
			Cost:       Cost(n, a.p.Iterations),
			Body:       a.body(bufA, bufB, off, n),
			D2H:        out[:],
			StreamHint: -1,
		}
		if err := ph.Add(&task); err != nil {
			return core.Result{}, err
		}
	}
	return core.Summarize(ctx, float64(a.p.Elements)*float64(a.p.Iterations), ctx.Barrier().Sub(0)), nil
}

// KernelPhase measures only the kernel phase of a tiled run at the
// given resource granularity, with transfers fully synchronized before
// the kernels start — the paper's Fig. 7 protocol ("we explicitly make
// a synchronization between data transfers and kernel execution", so
// the application is non-overlappable by construction).
func (a *App) KernelPhase(partitions, tiles int) (sim.Duration, error) {
	if tiles < 1 {
		return 0, fmt.Errorf("hbench: tile count %d out of range", tiles)
	}
	ctx, err := a.newContext(partitions)
	if err != nil {
		return 0, err
	}
	defer ctx.Close()
	bufA, bufB := a.buffers(ctx)
	// Phase 1: ship the whole input, then synchronize.
	if _, err := ctx.Stream(0).EnqueueH2D(bufA, 0, a.p.Elements, -1); err != nil {
		return 0, err
	}
	start := ctx.Barrier()
	// Phase 2: tiled kernels across all streams.
	var ph core.Phase
	defer ph.Close()
	ph.Reset(ctx, tiles)
	for i := 0; i < tiles; i++ {
		off := i * a.p.Elements / tiles
		n := (i+1)*a.p.Elements/tiles - off
		task := core.Task{ID: i, Cost: Cost(n, a.p.Iterations), Body: a.body(bufA, bufB, off, n), StreamHint: -1}
		if err := ph.Add(&task); err != nil {
			return 0, err
		}
	}
	return ctx.Barrier().Sub(start), nil
}

// Verify checks the functional output B == A + α. It fails in
// timing-only mode.
func (a *App) Verify() error {
	if !a.p.Functional {
		return fmt.Errorf("hbench: Verify requires functional mode")
	}
	for i := range a.b {
		want := a.a[i] + a.p.Alpha
		if a.b[i] != want {
			return fmt.Errorf("hbench: b[%d] = %v, want %v", i, a.b[i], want)
		}
	}
	return nil
}
