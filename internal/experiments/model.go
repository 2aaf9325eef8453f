package experiments

import (
	"fmt"
	"math"

	"micstream/internal/apps/cf"
	"micstream/internal/apps/hbench"
	"micstream/internal/apps/hotspot"
	"micstream/internal/apps/kmeans"
	"micstream/internal/apps/mm"
	"micstream/internal/apps/nn"
	"micstream/internal/apps/srad"
	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/model"
	"micstream/internal/pcie"
)

func init() {
	register("modelval", ModelVal)
	register("guided", Guided)
}

// ModelApp couples one application's analytic description with its
// simulated evaluation, so validation sweeps and CLIs compare the two
// over the same (P, T) points.
type ModelApp struct {
	// Name labels the application.
	Name string
	// Workload is the application's analytic self-description.
	Workload model.Workload
	// Eval runs the simulation at one configuration.
	Eval core.EvalFunc
	// Partitions lists the validation sweep's partition counts.
	Partitions []int
	// TilesFor lists the sweep's tile axis for a partition count; the
	// values carry each app's own tile meaning (task count for the
	// stripe/chunk apps, grid edge for MM and CF).
	TilesFor func(p int) []int
}

// resultEval adapts an application Run method to core.EvalFunc.
func resultEval(run func(p, t int) (core.Result, error)) core.EvalFunc {
	return func(p, t int) (float64, error) {
		res, err := run(p, t)
		if err != nil {
			return 0, err
		}
		return res.Wall.Seconds(), nil
	}
}

// tileList returns the stripe/chunk apps' shared tile axis.
func tileList(p int) []int { return []int{p, 4 * p, 8 * p} }

// gridList returns the tile-grid apps' sweep axis (grid edges that
// divide the validation problem sizes).
func gridList(int) []int { return []int{2, 4, 8} }

// ModelApps instantiates every application of the suite at validation
// scale — small enough that the full predicted-vs-simulated sweep
// regenerates in seconds, large enough that both transfer-bound
// (hbench, nn) and compute-bound (mm, cf, srad) regimes appear.
func ModelApps() ([]ModelApp, error) {
	divisors := []int{2, 4, 8, 14, 28, 56}

	hb, err := hbench.New(hbench.DefaultParams())
	if err != nil {
		return nil, err
	}
	mmApp, err := mm.New(mm.Params{N: 2048})
	if err != nil {
		return nil, err
	}
	nnApp, err := nn.New(nn.DefaultParams())
	if err != nil {
		return nil, err
	}
	kmParams := kmeans.DefaultParams()
	kmParams.Iterations = 5
	km, err := kmeans.New(kmParams)
	if err != nil {
		return nil, err
	}
	hs, err := hotspot.New(hotspot.Params{Dim: 2048, Iterations: 5})
	if err != nil {
		return nil, err
	}
	sr, err := srad.New(srad.Params{Dim: 2048, Iterations: 3, Lambda: 0.5})
	if err != nil {
		return nil, err
	}
	cfApp, err := cf.New(cf.Params{N: 2048})
	if err != nil {
		return nil, err
	}

	return []ModelApp{
		{
			Name: "hbench", Workload: hb.Model(),
			Eval:       resultEval(hb.RunStreamed),
			Partitions: divisors, TilesFor: tileList,
		},
		{
			Name: "mm", Workload: mmApp.Model(),
			Eval:       resultEval(mmApp.Run),
			Partitions: divisors, TilesFor: gridList,
		},
		{
			Name: "nn", Workload: nnApp.Model(),
			Eval:       resultEval(nnApp.Run),
			Partitions: divisors, TilesFor: tileList,
		},
		{
			Name: "kmeans", Workload: km.Model(),
			Eval:       resultEval(km.Run),
			Partitions: divisors, TilesFor: tileList,
		},
		{
			Name: "hotspot", Workload: hs.Model(),
			Eval:       resultEval(hs.Run),
			Partitions: divisors, TilesFor: tileList,
		},
		{
			Name: "srad", Workload: sr.Model(),
			Eval:       resultEval(sr.Run),
			Partitions: divisors, TilesFor: tileList,
		},
		{
			Name: "cf", Workload: cfApp.Model(),
			Eval: resultEval(func(p, g int) (core.Result, error) {
				return cfApp.Run(1, p, g)
			}),
			Partitions: divisors, TilesFor: gridList,
		},
	}, nil
}

// SweepModel compares prediction against simulation over one app's
// validation plane and reports per-point relative errors.
func SweepModel(m *model.Model, app ModelApp) (points int, meanErr, maxErr float64, err error) {
	var sum float64
	for _, p := range app.Partitions {
		for _, t := range app.TilesFor(p) {
			pred, perr := m.Predict(app.Workload, p, t)
			if perr != nil {
				return 0, 0, 0, perr
			}
			meas, merr := app.Eval(p, t)
			if merr != nil {
				return 0, 0, 0, merr
			}
			if meas <= 0 {
				continue
			}
			e := math.Abs(pred.Seconds()-meas) / meas
			sum += e
			if e > maxErr {
				maxErr = e
			}
			points++
		}
	}
	if points > 0 {
		meanErr = sum / float64(points)
	}
	return points, meanErr, maxErr, nil
}

// ModelVal regenerates the performance-model validation study: for
// every application, the mean and maximum relative error of the
// analytic prediction against full simulation across the (P, T)
// validation plane (DESIGN.md §8).
func ModelVal() (*Table, error) {
	apps, err := ModelApps()
	if err != nil {
		return nil, err
	}
	m := model.New(device.Xeon31SP(), pcie.DefaultConfig())
	t := &Table{
		ID:      "modelval",
		Title:   "Analytic model vs simulation: relative prediction error per app",
		Columns: []string{"app", "points", "mean err[%]", "max err[%]"},
	}
	for _, app := range apps {
		points, meanErr, maxErr, err := SweepModel(m, app)
		if err != nil {
			return nil, fmt.Errorf("modelval %s: %w", app.Name, err)
		}
		t.Rows = append(t.Rows, []string{
			app.Name,
			fmt.Sprintf("%d", points),
			fmt.Sprintf("%.1f", meanErr*100),
			fmt.Sprintf("%.1f", maxErr*100),
		})
	}
	t.Notes = append(t.Notes,
		"uncalibrated model (TransferScale = ComputeScale = 1); Fit against probe runs tightens per-workload bias",
		"CF's right-looking DAG overlaps across steps the model serializes, so its error bound is the loosest")
	return t, nil
}

// SynthWorkload is the generic overlappable workload of cmd/mictune:
// flops of kernel work and bytes/2 in each transfer direction, split
// evenly over tiles.
func SynthWorkload(flops float64, bytes int64) model.Workload {
	return model.Uniform("synthetic", bytes/2, bytes/2,
		device.KernelCost{Name: "work", Flops: flops})
}

// SynthEval simulates the synthetic workload at one configuration —
// the measurement the model-guided search tries to avoid.
func SynthEval(flops float64, bytes int64) core.EvalFunc {
	return func(partitions, tiles int) (float64, error) {
		ctx, err := hstreams.Init(hstreams.Config{Partitions: partitions})
		if err != nil {
			return 0, err
		}
		elems := int(bytes / 2)
		if elems < 1 {
			elems = 1 // a 1-byte workload still needs a non-empty buffer
		}
		buf := hstreams.AllocVirtual(ctx, "data", elems, 1)
		per := buf.Len() / tiles
		if per == 0 {
			per = 1
		}
		tasks := make([]*core.Task, 0, tiles)
		for i := 0; i < tiles; i++ {
			off := (i * per) % buf.Len()
			n := per
			if off+n > buf.Len() {
				n = buf.Len() - off
			}
			tasks = append(tasks, &core.Task{
				ID:         i,
				H2D:        []core.TransferSpec{core.Xfer(buf, off, n)},
				Cost:       device.KernelCost{Name: "work", Flops: flops / float64(tiles)},
				D2H:        []core.TransferSpec{core.Xfer(buf, off, n)},
				StreamHint: -1,
			})
		}
		res, err := core.Run(ctx, tasks, 0)
		if err != nil {
			return 0, err
		}
		return res.Wall.Seconds(), nil
	}
}

// Guided regenerates the search-cost study: exhaustive, pruned,
// coordinate-descent and model-guided searches of the synthetic
// (P, T) plane, with each method's evaluation count and its optimum's
// gap to the exhaustive one.
func Guided() (*Table, error) {
	const (
		flops = 4e10
		bytes = int64(256 << 20)
		maxP  = 56
		maxT  = 128
		topK  = 16
	)
	eval := SynthEval(flops, bytes)
	exhaustive := core.ExhaustiveSpace(maxP, maxT)
	pruned := core.HeuristicSpace(56, maxT)

	ex, err := core.Tune(exhaustive, eval)
	if err != nil {
		return nil, err
	}
	pr, err := core.Tune(pruned, eval)
	if err != nil {
		return nil, err
	}
	cd, err := core.TuneCoordinateDescent(pruned, eval, 3)
	if err != nil {
		return nil, err
	}
	m := model.New(device.Xeon31SP(), pcie.DefaultConfig())
	gd, err := core.TuneGuided(exhaustive, m.EvalFunc(SynthWorkload(flops, bytes)), eval, topK)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "guided",
		Title:   "Search cost vs optimum quality: exhaustive, pruned, descent, model-guided",
		Columns: []string{"method", "evaluations", "best P", "best T", "time[ms]", "gap[%]"},
	}
	row := func(name string, r core.TuneResult) {
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", r.Evaluations),
			fmt.Sprintf("%d", r.Partitions),
			fmt.Sprintf("%d", r.Tiles),
			fmtMS(r.Seconds * 1e3),
			fmt.Sprintf("%.2f", (r.Seconds/ex.Seconds-1)*100),
		})
	}
	row("exhaustive", ex)
	row("pruned", pr)
	row("descent", cd)
	row(fmt.Sprintf("guided k=%d", topK), gd)
	t.Notes = append(t.Notes,
		"the model ranks all points analytically; only its top k are simulated (core.TuneGuided)")
	return t, nil
}
