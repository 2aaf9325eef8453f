package hotspot

import (
	"fmt"

	"micstream/internal/core"
	"micstream/internal/hstreams"
)

// RunPipelined is the paper's §VII future-work item made concrete:
// "transform the non-overlappable applications to overlappable
// applications". The barrier version (Run) synchronizes the whole
// device between the H2D, EXE and D2H stages of every iteration, so
// nothing overlaps. But the stencil's true dependency is local: tile t
// of iteration k+1 needs only tiles t-1, t, t+1 of iteration k. This
// variant builds the complete cross-iteration task graph with exactly
// those dependencies, so iteration k+1's transfers ride the link while
// iteration k's kernels still run — a software-pipelined wavefront.
//
// Per-tile chains keep the double-buffer reuse safe without any global
// barrier: tile t's iteration-k+1 H2D gates on its iteration-k D2H
// (host swap), and the same-tile chain orders any write against the
// transfers that read the previous contents. Like Run, it runs on rig.
func (a *App) RunPipelined(rig *core.Rig, partitions, tasks int) (core.Result, error) {
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
	bufA := hstreams.Alloc(ctx, "temp", a.temp, d*d)
	bufB := hstreams.Alloc(ctx, "tempOut", a.out, d*d)
	bufPower := hstreams.Alloc(ctx, "power", a.power, d*d)

	start := ctx.Now()
	if _, err := ctx.Stream(0).EnqueueH2D(bufPower, 0, d*d, -1); err != nil {
		return core.Result{}, err
	}
	ctx.Barrier()

	rowOf := func(t int) (lo, hi int) { return t * d / tasks, (t + 1) * d / tasks }
	// Task ids: iteration-major. Per iteration and tile there are two
	// tasks: an input-shipping task and a compute(+writeback) task.
	inID := func(iter, t int) int { return iter*2*tasks + t }
	exID := func(iter, t int) int { return iter*2*tasks + tasks + t }

	// ph enqueues each task as it is built and keeps neither the task
	// nor its lists, so one task variable, xfer and deps serve the
	// whole graph.
	iters := a.p.Iterations
	ph.Reset(ctx, 2*tasks*iters)
	var xfer [1]core.TransferSpec
	var deps [3]int
	for iter := 0; iter < iters; iter++ {
		// Double buffers alternate by iteration parity.
		in, out := bufA, bufB
		if iter%2 == 1 {
			in, out = bufB, bufA
		}
		for t := 0; t < tasks; t++ {
			lo, hi := rowOf(t)
			if iter == 0 {
				xfer[0] = core.Xfer(in, lo*d, (hi-lo)*d)
			} else {
				// This iteration's input is the previous
				// iteration's output: gate the shipment on the
				// producing tile's writeback.
				xfer[0] = core.XferAfter(in, lo*d, (hi-lo)*d, exID(iter-1, t))
			}
			task := core.Task{ID: inID(iter, t), H2D: xfer[:], StreamHint: t % ctx.NumStreams(), TransferOnly: true}
			if err := ph.Add(&task); err != nil {
				return core.Result{}, err
			}
		}
		for t := 0; t < tasks; t++ {
			lo, hi := rowOf(t)
			dep := append(deps[:0], inID(iter, t))
			if t > 0 {
				dep = append(dep, inID(iter, t-1))
			}
			if t < tasks-1 {
				dep = append(dep, inID(iter, t+1))
			}
			xfer[0] = core.Xfer(out, lo*d, (hi-lo)*d)
			task := core.Task{
				ID:         exID(iter, t),
				DependsOn:  dep,
				Cost:       a.taskCost(hi - lo),
				D2H:        xfer[:],
				StreamHint: t % ctx.NumStreams(),
			}
			if a.p.Functional {
				in, out, lo, hi := in, out, lo, hi
				task.Body = func(k *hstreams.KernelCtx) {
					a.stencil(k, in, out, bufPower, lo, hi)
				}
			}
			if err := ph.Add(&task); err != nil {
				return core.Result{}, err
			}
		}
	}
	ctx.Barrier()
	wall := ctx.Now().Sub(start)

	if a.p.Functional && iters%2 == 1 {
		// The final temperature landed in the out-parity host
		// buffer; keep a.temp pointing at it, as Run does.
		a.temp, a.out = a.out, a.temp
	}
	flops := FlopsPerCell * float64(d) * float64(d) * float64(iters)
	return core.Summarize(ctx, flops, wall), nil
}
