// Package nn is the paper's Nearest Neighbor application (Rodinia):
// find the k records closest to a target coordinate in an unstructured
// set of (latitude, longitude) records. The device computes Euclidean
// distances for a chunk of records per task; the host maintains the
// running k-nearest list as task results arrive.
//
// NN streams chunks through the device with the same flow as MM
// (Fig. 4(e)): fully overlappable, and — because the distance kernel is
// trivial — bounded by data transfers, which is why the paper sees the
// execution time flatten once P ≥ 4 (Fig. 9e) and only a 9.2% average
// gain from streams (§V-A). NN drives Figs. 8e, 9e and 10e.
package nn

import (
	"fmt"
	"math"
	"sort"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/workload"
)

// FlopsPerRecord counts the distance arithmetic: two subtractions, two
// multiplies, one add, one square root.
const FlopsPerRecord = 6

// Efficiency is the kernel's arithmetic efficiency: a short
// memory-streaming loop.
const Efficiency = 0.035

// Params configures the application.
type Params struct {
	// N is the record count.
	N int
	// K is the number of nearest neighbours to find (paper: 10).
	K int
	// TargetLat and TargetLon are the query point (paper: 40, 120).
	TargetLat, TargetLon float32
	// Functional enables real data and kernels.
	Functional bool
	// Seed seeds the record generator.
	Seed uint64
}

// DefaultParams returns the paper's Fig. 9e configuration.
func DefaultParams() Params {
	return Params{N: 5_242_880, K: 10, TargetLat: 40, TargetLon: 120}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("nn: N must be positive, got %d", p.N)
	}
	if p.K <= 0 || p.K > p.N {
		return fmt.Errorf("nn: K=%d out of range (N=%d)", p.K, p.N)
	}
	return nil
}

// Neighbor is one query result.
type Neighbor struct {
	// Index is the record's position in the input.
	Index int
	// Distance is the Euclidean distance to the target.
	Distance float32
}

// App is an instantiated nearest-neighbour search.
type App struct {
	p        Params
	lat, lon []float32 // records, functional only
	dist     []float32 // computed distances, functional only
	nearest  []Neighbor
}

// New builds the workload.
func New(p Params) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	app := &App{p: p}
	if p.Functional {
		app.lat, app.lon = workload.Records(p.Seed, p.N)
		app.dist = make([]float32, p.N)
	}
	return app, nil
}

// Params returns the workload parameters.
func (a *App) Params() Params { return a.p }

// Nearest returns the k-nearest list of the last functional Run.
func (a *App) Nearest() []Neighbor { return a.nearest }

// taskCost models one distance kernel over n records.
func taskCost(n int) device.KernelCost {
	return device.KernelCost{
		Name:       "nn.dist",
		Flops:      FlopsPerRecord * float64(n),
		Bytes:      12 * float64(n), // read 8 B, write 4 B
		Efficiency: Efficiency,
	}
}

// Run searches on rig with the records split into tasks chunks on
// partitions partitions. partitions=1, tasks=1 is the non-streamed
// baseline.
func (a *App) Run(rig *core.Rig, partitions, tasks int) (core.Result, error) {
	if tasks < 1 || tasks > a.p.N {
		return core.Result{}, fmt.Errorf("nn: task count %d out of range", tasks)
	}
	ctx, ph, err := rig.Reset(hstreams.Config{
		Partitions:     partitions,
		ExecuteKernels: a.p.Functional,
		Stages:         true,
	})
	if err != nil {
		return core.Result{}, err
	}
	bufLat := hstreams.Alloc(ctx, "lat", a.lat, a.p.N)
	bufLon := hstreams.Alloc(ctx, "lon", a.lon, a.p.N)
	bufDist := hstreams.Alloc(ctx, "dist", a.dist, a.p.N)

	// ph enqueues each task as it is built and keeps neither the task
	// nor its lists, so one task variable and in/out serve every chunk.
	start := ctx.Now()
	ph.Reset(ctx, tasks)
	var in [2]core.TransferSpec
	var out [1]core.TransferSpec
	for t := 0; t < tasks; t++ {
		lo := t * a.p.N / tasks
		hi := (t + 1) * a.p.N / tasks
		in = [2]core.TransferSpec{core.Xfer(bufLat, lo, hi-lo), core.Xfer(bufLon, lo, hi-lo)}
		out[0] = core.Xfer(bufDist, lo, hi-lo)
		task := core.Task{ID: t, H2D: in[:], Cost: taskCost(hi - lo), D2H: out[:], StreamHint: -1}
		if a.p.Functional {
			lo, hi := lo, hi
			task.Body = func(k *hstreams.KernelCtx) {
				a.distances(k, bufLat, bufLon, bufDist, lo, hi)
			}
		}
		if err := ph.Add(&task); err != nil {
			return core.Result{}, err
		}
	}
	res := core.Summarize(ctx, FlopsPerRecord*float64(a.p.N), ctx.Barrier().Sub(start))
	if a.p.Functional {
		a.nearest = topK(a.dist, a.p.K)
	}
	return res, nil
}

// distances is the functional kernel over records [lo, hi).
func (a *App) distances(k *hstreams.KernelCtx, bufLat, bufLon, bufDist *hstreams.Buffer, lo, hi int) {
	lat := hstreams.DeviceSlice[float32](bufLat, k.DeviceIndex)
	lon := hstreams.DeviceSlice[float32](bufLon, k.DeviceIndex)
	dst := hstreams.DeviceSlice[float32](bufDist, k.DeviceIndex)
	tla, tlo := a.p.TargetLat, a.p.TargetLon
	for i := lo; i < hi; i++ {
		dla := lat[i] - tla
		dlo := lon[i] - tlo
		dst[i] = float32(math.Sqrt(float64(dla*dla + dlo*dlo)))
	}
}

// topK selects the k smallest distances (host-side master merge).
func topK(dist []float32, k int) []Neighbor {
	all := make([]Neighbor, len(dist))
	for i, d := range dist {
		all[i] = Neighbor{Index: i, Distance: d}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Distance != all[j].Distance {
			return all[i].Distance < all[j].Distance
		}
		return all[i].Index < all[j].Index
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// Reference computes the k-nearest list entirely on the host.
func (a *App) Reference() ([]Neighbor, error) {
	if !a.p.Functional {
		return nil, fmt.Errorf("nn: Reference requires functional mode")
	}
	dist := make([]float32, a.p.N)
	for i := range dist {
		dla := a.lat[i] - a.p.TargetLat
		dlo := a.lon[i] - a.p.TargetLon
		dist[i] = float32(math.Sqrt(float64(dla*dla + dlo*dlo)))
	}
	return topK(dist, a.p.K), nil
}

// Verify compares the device-computed k-nearest list with the host
// reference.
func (a *App) Verify() error {
	if a.nearest == nil {
		return fmt.Errorf("nn: Verify before functional Run")
	}
	want, err := a.Reference()
	if err != nil {
		return err
	}
	if len(a.nearest) != len(want) {
		return fmt.Errorf("nn: got %d neighbours, want %d", len(a.nearest), len(want))
	}
	for i := range want {
		if a.nearest[i] != want[i] {
			return fmt.Errorf("nn: neighbour %d = %+v, want %+v", i, a.nearest[i], want[i])
		}
	}
	return nil
}
