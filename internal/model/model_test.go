package model_test

import (
	"math"
	"reflect"
	"testing"

	"micstream/internal/apps/hbench"
	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/experiments"
	"micstream/internal/hstreams"
	"micstream/internal/model"
	"micstream/internal/pcie"
)

const (
	synthFlops = 4e10
	synthBytes = int64(256 << 20)
)

func synthModel() (*model.Model, model.Workload, core.EvalFunc) {
	m := model.New(device.Xeon31SP(), pcie.DefaultConfig())
	return m, experiments.SynthWorkload(synthFlops, synthBytes),
		experiments.SynthEval(synthFlops, synthBytes)
}

// With one stream the pipeline degenerates to a serial chain the model
// reproduces exactly: FIFO order leaves nothing to approximate.
func TestPredictSerialExact(t *testing.T) {
	m, w, eval := synthModel()
	for _, tiles := range []int{1, 2, 8, 32, 128} {
		pred, err := m.Predict(w, 1, tiles)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := eval(1, tiles)
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(pred.Seconds()-meas) / meas; e > 1e-9 {
			t.Errorf("P=1 T=%d: predicted %.6fms, simulated %.6fms (err %.3g) — serial case must be exact",
				tiles, pred.Seconds()*1e3, meas*1e3, e)
		}
	}
}

// Across the streamed (P, T) plane the closed forms stay within a
// stated bound of full simulation on the synthetic workload.
func TestPredictAccuracySynthetic(t *testing.T) {
	m, w, eval := synthModel()
	var sum, worst float64
	n := 0
	for _, p := range []int{2, 4, 8, 14, 28, 56} {
		for _, tiles := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
			pred, err := m.Predict(w, p, tiles)
			if err != nil {
				t.Fatal(err)
			}
			meas, err := eval(p, tiles)
			if err != nil {
				t.Fatal(err)
			}
			e := math.Abs(pred.Seconds()-meas) / meas
			sum += e
			if e > worst {
				worst = e
			}
			n++
			if e > 0.15 {
				t.Errorf("P=%d T=%d: err %.1f%% exceeds 15%%", p, tiles, e*100)
			}
		}
	}
	if mean := sum / float64(n); mean > 0.05 {
		t.Errorf("mean error %.1f%% exceeds 5%% over %d points (worst %.1f%%)", mean*100, n, worst*100)
	}
}

// Every application's analytic self-description stays within its
// stated error bound of full simulation across the validation plane —
// including the transfer-bound (hbench short-iteration, nn) and
// compute-bound (hbench long-iteration, mm, srad) regimes.
func TestPredictAccuracyApps(t *testing.T) {
	apps, err := experiments.ModelApps()
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string]struct{ mean, max float64 }{
		"hbench":  {0.06, 0.16},
		"mm":      {0.08, 0.15},
		"nn":      {0.09, 0.16},
		"kmeans":  {0.03, 0.06},
		"hotspot": {0.04, 0.10},
		"srad":    {0.05, 0.12},
		// CF's right-looking DAG overlaps across steps the model
		// serializes; the bound records that known pessimism.
		"cf": {0.40, 0.70},
	}
	m := model.New(device.Xeon31SP(), pcie.DefaultConfig())
	for _, app := range apps {
		b, ok := bounds[app.Name]
		if !ok {
			t.Errorf("app %s has no stated error bound — add one", app.Name)
			continue
		}
		points, meanErr, maxErr, err := experiments.SweepModel(m, app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if points == 0 {
			t.Errorf("%s: empty validation plane", app.Name)
		}
		if meanErr > b.mean {
			t.Errorf("%s: mean error %.1f%% exceeds stated bound %.0f%%", app.Name, meanErr*100, b.mean*100)
		}
		if maxErr > b.max {
			t.Errorf("%s: max error %.1f%% exceeds stated bound %.0f%%", app.Name, maxErr*100, b.max*100)
		}
	}
}

// The hbench iteration dial moves the workload across the
// transfer/compute crossover; the model must hold up in both regimes,
// not just at the calibrated default.
func TestPredictAccuracyRegimes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		iters int
	}{
		{"transfer-bound", 5},
		{"compute-bound", 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hb := newHBench(t, tc.iters)
			m := model.New(device.Xeon31SP(), pcie.DefaultConfig())
			w := hb.workload
			for _, p := range []int{4, 14, 56} {
				for _, tiles := range []int{p, 8 * p} {
					pred, err := m.Predict(w, p, tiles)
					if err != nil {
						t.Fatal(err)
					}
					meas, err := hb.eval(p, tiles)
					if err != nil {
						t.Fatal(err)
					}
					if e := math.Abs(pred.Seconds()-meas) / meas; e > 0.16 {
						t.Errorf("%s P=%d T=%d: err %.1f%% exceeds 16%%", tc.name, p, tiles, e*100)
					}
				}
			}
		})
	}
}

// Model-guided tuning must land within 5% of the exhaustive optimum on
// the synthetic mictune workload while simulating at most 25% of the
// (P, T) points — the search-cost contract of the model layer.
func TestGuidedWithinFiveRercentOfExhaustive(t *testing.T) {
	m, w, eval := synthModel()
	space := core.ExhaustiveSpace(56, 128)
	ex, err := core.Tune(space, eval)
	if err != nil {
		t.Fatal(err)
	}
	guided, err := core.TuneGuided(space, m.EvalFunc(w), eval, 16)
	if err != nil {
		t.Fatal(err)
	}
	if limit := space.Size() / 4; guided.Evaluations > limit {
		t.Errorf("guided search simulated %d of %d points (> 25%%)", guided.Evaluations, space.Size())
	}
	if gap := guided.Seconds/ex.Seconds - 1; gap > 0.05 {
		t.Errorf("guided optimum %.3fms is %.1f%% above exhaustive %.3fms (> 5%%)",
			guided.Seconds*1e3, gap*100, ex.Seconds*1e3)
	}
}

// Fit recovers a deliberate miscalibration: a model whose device is
// declared twice as fast predicts compute-bound configurations at half
// their simulated time until calibration scales them back.
func TestFitRecoversMiscalibration(t *testing.T) {
	dev := device.Xeon31SP()
	dev.FlopsPerCyclePerThread *= 2
	m := model.New(dev, pcie.DefaultConfig())
	w := experiments.SynthWorkload(4e11, 16<<20) // heavily compute-bound
	eval := experiments.SynthEval(4e11, 16<<20)
	space := core.HeuristicSpace(56, 64)

	errAt := func() float64 {
		var sum float64
		n := 0
		for _, p := range []int{2, 8, 56} {
			pred, err := m.Predict(w, p, 4*p)
			if err != nil {
				t.Fatal(err)
			}
			meas, err := eval(p, 4*p)
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Abs(pred.Seconds()-meas) / meas
			n++
		}
		return sum / float64(n)
	}
	before := errAt()
	probes, err := m.Fit(w, space, eval, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) == 0 {
		t.Fatal("Fit returned no probes")
	}
	if m.ComputeScale < 1.5 || m.ComputeScale > 2.8 {
		t.Errorf("ComputeScale %.2f should recover the ~2x miscalibration", m.ComputeScale)
	}
	after := errAt()
	if after >= before {
		t.Errorf("calibration did not help: mean error %.1f%% before, %.1f%% after", before*100, after*100)
	}
	if after > 0.10 {
		t.Errorf("calibrated mean error %.1f%% exceeds 10%%", after*100)
	}
}

// Rank is a pure function: identical inputs give identical orderings,
// and TopK(1) agrees with BestConfig.
func TestRankDeterministic(t *testing.T) {
	m, w, _ := synthModel()
	space := core.HeuristicSpace(56, 128)
	a, err := m.Rank(w, space)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Rank(w, space)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Rank is not deterministic")
	}
	best, err := m.BestConfig(w, space)
	if err != nil {
		t.Fatal(err)
	}
	if best != a[0] {
		t.Fatalf("BestConfig %+v disagrees with Rank[0] %+v", best, a[0])
	}
	for i := 1; i < len(a); i++ {
		if a[i].Pred.Wall < a[i-1].Pred.Wall {
			t.Fatalf("Rank not sorted at %d", i)
		}
	}
}

// ServiceTime's serial chain matches a one-stream simulation of the
// same task list: with no concurrency there is nothing to approximate.
func TestServiceTimeMatchesSerialRun(t *testing.T) {
	ctx, err := hstreams.Init(hstreams.Config{Partitions: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	buf := hstreams.AllocVirtual(ctx, "data", 8<<20, 1)
	var tasks []*core.Task
	for i := 0; i < 4; i++ {
		off := i * buf.Len() / 4
		tasks = append(tasks, &core.Task{
			ID:         i,
			H2D:        []core.TransferSpec{core.Xfer(buf, off, buf.Len()/4)},
			Cost:       device.KernelCost{Name: "k", Flops: 1e9},
			D2H:        []core.TransferSpec{core.Xfer(buf, off, buf.Len()/4)},
			StreamHint: -1,
		})
	}
	m := model.New(device.Xeon31SP(), pcie.DefaultConfig())
	est := m.ServiceTime(tasks, 1)
	res, err := core.Run(ctx, tasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(est.Seconds()-res.Wall.Seconds()) / res.Wall.Seconds(); e > 0.005 {
		t.Errorf("ServiceTime %.3fms vs serial run %.3fms (err %.2f%%)",
			est.Seconds()*1e3, res.Wall.Milliseconds(), e*100)
	}
}

// hbenchCase adapts one hbench instance for the regime tests.
type hbenchCase struct {
	workload model.Workload
	eval     core.EvalFunc
}

func newHBench(t *testing.T, iters int) hbenchCase {
	t.Helper()
	p := hbench.DefaultParams()
	p.Iterations = iters
	app, err := hbench.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return hbenchCase{
		workload: app.Model(),
		eval: func(partitions, tiles int) (float64, error) {
			res, err := app.RunStreamed(partitions, tiles)
			if err != nil {
				return 0, err
			}
			return res.Wall.Seconds(), nil
		},
	}
}

// The memoized partition layouts change no prediction: a model built by
// New (layouts cached per partition count) and a Model literal (no
// cache) agree bit for bit, also after the cached model's Dev changes
// and while several goroutines predict on the cached model at once.
func TestLayoutCacheBitIdentical(t *testing.T) {
	cached, w, _ := synthModel()
	plain := &model.Model{Dev: cached.Dev, Link: cached.Link}
	points := []struct{ p, tiles int }{{1, 8}, {4, 16}, {7, 32}, {56, 64}, {4, 4}, {120, 1}}
	check := func(t *testing.T) {
		for _, pt := range points {
			got, err := cached.Predict(w, pt.p, pt.tiles)
			if err != nil {
				t.Error(err)
				return
			}
			want, err := plain.Predict(w, pt.p, pt.tiles)
			if err != nil {
				t.Error(err)
				return
			}
			if got != want {
				t.Errorf("P=%d T=%d: cached %+v, uncached %+v", pt.p, pt.tiles, got, want)
			}
		}
	}
	check(t)
	cached.Dev.Cores, plain.Dev.Cores = 31, 31
	check(t)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			check(t)
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
