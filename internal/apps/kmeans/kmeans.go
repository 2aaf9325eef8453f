// Package kmeans is the paper's Kmeans clustering application (ported
// from Northwestern MineBench via Rodinia): iterative Lloyd's algorithm
// where each iteration ships the current centroids to the device,
// assigns every point to its nearest centroid in parallel tasks,
// returns per-task partial sums, and recomputes centroids on the host.
//
// Kmeans is non-overlappable — the host must reduce the partials of
// iteration k before the centroids of iteration k+1 can be shipped —
// yet the paper measures a ≈24% gain from multiple streams (§V-A,
// Fig. 8c). The cause (§V-B-1) is the per-launch temporary-memory
// allocation whose cost grows with the partition's thread count:
// narrower partitions allocate less per launch, and partitions allocate
// in parallel. The model reproduces this through
// KernelCost.AllocBytesPerThread. Kmeans drives Figs. 8c, 9c and 10c.
package kmeans

import (
	"fmt"
	"math"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/sim"
	"micstream/internal/workload"
)

// Efficiency is the assignment kernel's arithmetic efficiency: scalar,
// branch-heavy distance comparisons, latency-bound on the 31SP.
const Efficiency = 0.0465

// AllocBytesPerThread is the per-thread scratch the MineBench port
// allocates (and first-touches) at every kernel launch: private
// centroid partial arrays, membership staging, and alignment padding.
// Calibrated so the non-streamed run loses ≈24% to allocation, as the
// paper reports.
const AllocBytesPerThread = 128 << 10

// HostUpdateNs is the host-side centroid recomputation time per
// iteration (tiny: K·F accumulations over T partials).
const HostUpdateNs = 50_000

// Params configures the application.
type Params struct {
	// N is the number of points.
	N int
	// Features is the dimensionality (MineBench uses 34).
	Features int
	// K is the number of centroids (the paper uses 8).
	K int
	// Iterations is the fixed iteration count (the paper runs 100).
	Iterations int
	// Functional enables real data and kernels.
	Functional bool
	// Seed seeds the point generator.
	Seed uint64
}

// DefaultParams returns the paper's Fig. 9c configuration.
func DefaultParams() Params {
	return Params{N: 1_120_000, Features: 34, K: 8, Iterations: 100}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.N <= 0:
		return fmt.Errorf("kmeans: N must be positive, got %d", p.N)
	case p.Features <= 0:
		return fmt.Errorf("kmeans: features must be positive, got %d", p.Features)
	case p.K <= 0 || p.K > p.N:
		return fmt.Errorf("kmeans: K=%d out of range (N=%d)", p.K, p.N)
	case p.Iterations <= 0:
		return fmt.Errorf("kmeans: iterations must be positive, got %d", p.Iterations)
	}
	return nil
}

// App is an instantiated clustering workload.
type App struct {
	p         Params
	points    []float64 // N×F row-major, functional only
	centroids []float64 // K×F, final result, functional only
}

// New builds the workload.
func New(p Params) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	app := &App{p: p}
	if p.Functional {
		app.points, _ = workload.ClusteredPoints(p.Seed, p.N, p.Features, p.K)
	}
	return app, nil
}

// Params returns the workload parameters.
func (a *App) Params() Params { return a.p }

// Centroids returns the final centroids of the last functional Run.
func (a *App) Centroids() []float64 { return a.centroids }

// TotalFlops reports the assignment work: 3·N·K·F per iteration.
func (a *App) TotalFlops() float64 {
	return 3 * float64(a.p.N) * float64(a.p.K) * float64(a.p.Features) * float64(a.p.Iterations)
}

// taskCost models one assignment kernel over n points.
func (a *App) taskCost(n int) device.KernelCost {
	return device.KernelCost{
		Name:                "kmeans.assign",
		Flops:               3 * float64(n) * float64(a.p.K) * float64(a.p.Features),
		Bytes:               float64(n) * float64(a.p.Features) * 8,
		AllocBytesPerThread: AllocBytesPerThread,
		Efficiency:          Efficiency,
	}
}

// Run clusters on rig with the points split into tasks tiles on
// partitions partitions. partitions=1, tasks=1 is the non-streamed
// baseline.
func (a *App) Run(rig *core.Rig, partitions, tasks int) (core.Result, error) {
	if tasks < 1 || tasks > a.p.N {
		return core.Result{}, fmt.Errorf("kmeans: task count %d out of range", tasks)
	}
	ctx, ph, err := rig.Reset(hstreams.Config{
		Partitions:     partitions,
		ExecuteKernels: a.p.Functional,
		Stages:         true,
	})
	if err != nil {
		return core.Result{}, err
	}
	p := a.p
	kf := p.K * p.Features
	// Partials per task: K×F sums followed by K counts.
	partialLen := kf + p.K

	var centroids, partials []float64
	if p.Functional {
		centroids = make([]float64, kf)
		copy(centroids, a.points[:kf]) // standard first-K init
		partials = make([]float64, tasks*partialLen)
	}
	bufPoints := hstreams.Alloc(ctx, "points", a.points, p.N*p.Features)
	bufCentroids := hstreams.Alloc(ctx, "centroids", centroids, kf)
	bufPartials := hstreams.Alloc(ctx, "partials", partials, tasks*partialLen)

	start := ctx.Now()
	// Ship the points once; they stay resident.
	if _, err := ctx.Stream(0).EnqueueH2D(bufPoints, 0, p.N*p.Features, -1); err != nil {
		return core.Result{}, err
	}
	ctx.Barrier()

	// ph enqueues each task as it is built and keeps neither the task
	// nor its lists, so one task variable, xfer and gate serve every
	// tile.
	var xfer [1]core.TransferSpec
	const centroidTask = 0
	gate := [1]int{centroidTask}
	for iter := 0; iter < p.Iterations; iter++ {
		ph.Reset(ctx, tasks+1)
		// Broadcast the centroids (one transfer; kernels gate on it).
		xfer[0] = core.Xfer(bufCentroids, 0, kf)
		task := core.Task{ID: centroidTask, H2D: xfer[:], StreamHint: -1, TransferOnly: true}
		if err := ph.Add(&task); err != nil {
			return core.Result{}, err
		}
		for t := 0; t < tasks; t++ {
			lo := t * p.N / tasks
			hi := (t + 1) * p.N / tasks
			xfer[0] = core.Xfer(bufPartials, t*partialLen, partialLen)
			task := core.Task{
				ID:         t + 1,
				Cost:       a.taskCost(hi - lo),
				D2H:        xfer[:],
				DependsOn:  gate[:],
				StreamHint: -1,
			}
			if p.Functional {
				t, lo, hi := t, lo, hi
				task.Body = func(k *hstreams.KernelCtx) {
					a.assign(k, bufPoints, bufCentroids, bufPartials, t, lo, hi, partialLen)
				}
			}
			if err := ph.Add(&task); err != nil {
				return core.Result{}, err
			}
		}
		ctx.Barrier()
		// Host: reduce partials into new centroids.
		if p.Functional {
			reduce(centroids, partials, tasks, p.K, p.Features)
		}
		ctx.HostWork(sim.Duration(HostUpdateNs), "kmeans.update")
	}
	wall := ctx.Now().Sub(start)
	if p.Functional {
		a.centroids = centroids
	}
	return core.Summarize(ctx, a.TotalFlops(), wall), nil
}

// assign is the functional kernel: for points [lo, hi), find the
// nearest centroid and accumulate per-task partial sums and counts.
func (a *App) assign(k *hstreams.KernelCtx, bufPoints, bufCentroids, bufPartials *hstreams.Buffer, task, lo, hi, partialLen int) {
	p := a.p
	pts := hstreams.DeviceSlice[float64](bufPoints, k.DeviceIndex)
	cs := hstreams.DeviceSlice[float64](bufCentroids, k.DeviceIndex)
	out := hstreams.DeviceSlice[float64](bufPartials, k.DeviceIndex)
	base := task * partialLen
	for i := base; i < base+partialLen; i++ {
		out[i] = 0
	}
	f := p.Features
	for i := lo; i < hi; i++ {
		pt := pts[i*f : (i+1)*f]
		best, bestD := 0, math.Inf(1)
		for c := 0; c < p.K; c++ {
			cen := cs[c*f : (c+1)*f]
			d := 0.0
			for x := 0; x < f; x++ {
				diff := pt[x] - cen[x]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		for x := 0; x < f; x++ {
			out[base+best*f+x] += pt[x]
		}
		out[base+p.K*f+best]++
	}
}

// reduce folds the per-task partials into new centroids; empty clusters
// keep their previous centroid (MineBench behaviour).
func reduce(centroids, partials []float64, tasks, k, f int) {
	kf := k * f
	partialLen := kf + k
	for c := 0; c < k; c++ {
		count := 0.0
		sum := make([]float64, f)
		for t := 0; t < tasks; t++ {
			base := t * partialLen
			count += partials[base+kf+c]
			for x := 0; x < f; x++ {
				sum[x] += partials[base+c*f+x]
			}
		}
		if count == 0 {
			continue
		}
		for x := 0; x < f; x++ {
			centroids[c*f+x] = sum[x] / count
		}
	}
}

// Reference runs the same fixed-iteration Lloyd's algorithm entirely on
// the host, for verification.
func (a *App) Reference() ([]float64, error) {
	if !a.p.Functional {
		return nil, fmt.Errorf("kmeans: Reference requires functional mode")
	}
	p := a.p
	f := p.Features
	centroids := make([]float64, p.K*f)
	copy(centroids, a.points[:p.K*f])
	sum := make([]float64, p.K*f)
	count := make([]float64, p.K)
	for iter := 0; iter < p.Iterations; iter++ {
		for i := range sum {
			sum[i] = 0
		}
		for i := range count {
			count[i] = 0
		}
		for i := 0; i < p.N; i++ {
			pt := a.points[i*f : (i+1)*f]
			best, bestD := 0, math.Inf(1)
			for c := 0; c < p.K; c++ {
				cen := centroids[c*f : (c+1)*f]
				d := 0.0
				for x := 0; x < f; x++ {
					diff := pt[x] - cen[x]
					d += diff * diff
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			count[best]++
			for x := 0; x < f; x++ {
				sum[best*f+x] += pt[x]
			}
		}
		for c := 0; c < p.K; c++ {
			if count[c] == 0 {
				continue
			}
			for x := 0; x < f; x++ {
				centroids[c*f+x] = sum[c*f+x] / count[c]
			}
		}
	}
	return centroids, nil
}

// Verify compares the device-computed centroids with the host
// reference.
func (a *App) Verify() error {
	if a.centroids == nil {
		return fmt.Errorf("kmeans: Verify before functional Run")
	}
	want, err := a.Reference()
	if err != nil {
		return err
	}
	for i := range want {
		if math.Abs(a.centroids[i]-want[i]) > 1e-9 {
			return fmt.Errorf("kmeans: centroid[%d] = %g, want %g", i, a.centroids[i], want[i])
		}
	}
	return nil
}
