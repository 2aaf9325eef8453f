package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"micstream/internal/apps/cf"
	"micstream/internal/apps/hotspot"
	"micstream/internal/apps/kmeans"
	"micstream/internal/apps/mm"
	"micstream/internal/apps/nn"
	"micstream/internal/apps/srad"
	"micstream/internal/core"
)

// Figs. 8–10 ask one question of the paper's six applications: which
// (partitions P, granularity T) point is fastest? Fig. 8 compares the
// single-stream run with the best of a few streamed candidates per
// dataset, Fig. 9 sweeps P at a fixed T, and Fig. 10 sweeps T at P=4.
// Each application is one appSpec below; the three generators read it
// and measure every point through sweep, which runs the points in
// parallel and returns them in order.

// runner measures an application instance at P partitions and
// granularity T: a square grid's edge for MM and CF, a task count for
// the others.
type runner func(p, t int) (core.Result, error)

// appSpec is one application: its panel (a–f) of each of Figs. 8–10.
type appSpec struct {
	name string
	// fig is the app's panel letter, "a".."f" in paperApps order.
	fig string
	// open builds the application at a dataset size running iters
	// iterations (ignored by the apps that do not iterate).
	open func(size, iters int) (runner, error)
	// metric is the figures' y axis.
	metric metric
	// iters and paperIters are the iteration counts of the Fig. 9/10
	// runs and of the paper. Fig. 8 runs paperIters; Figs. 9/10 run
	// iters and scale the times to paperIters, which leaves their
	// shape unchanged because every iteration costs the same.
	iters, paperIters int

	// Fig. 8: one row per dataset, the single-stream run (1, 1)
	// against the fastest of configs.
	datasets []int
	label    func(size int) string
	configs  [][2]int
	// avgNote formats the average gain as a note. Apps without one
	// report a signed "change", since the paper finds no gain.
	avgNote string
	notes8  []string

	// Figs. 9/10 run the reference dataset ref.
	ref int
	// Fig. 9: P = 1..56 at granularity fixedT.
	title9 string
	fixedT int
	notes9 []string
	// Fig. 10: T over tiles at P = 4. square marks a grid-edge
	// runner, whose tile counts are the squares of its grid edges.
	title10 string
	tiles   []int
	square  bool
	notes10 []string
}

// metric is a figure's y axis: GFLOPS, or execution time in seconds
// or milliseconds.
type metric int

const (
	gflops metric = iota
	seconds
	millis
)

// unit labels the Fig. 8 columns.
func (m metric) unit() string { return [...]string{"GFLOPS", "s", "ms"}[m] }

// axis labels the Fig. 9/10 value column.
func (m metric) axis() string {
	if m == gflops {
		return "GFLOPS"
	}
	return "time[" + m.unit() + "]"
}

// cell formats r, its time scaled by scale.
func (m metric) cell(r core.Result, scale float64) string {
	switch m {
	case gflops:
		return fmtGF(r.GFlops)
	case seconds:
		return fmtS(r.Wall.Seconds() * scale)
	}
	return fmtMS(r.Wall.Milliseconds() * scale)
}

// gain is the streamed run's relative improvement over base.
func (m metric) gain(base, streamed core.Result) float64 {
	if m == gflops {
		return streamed.GFlops/base.GFlops - 1
	}
	return base.Wall.Seconds()/streamed.Wall.Seconds() - 1
}

// runnerOf returns a freshly built app's Run as its runner.
func runnerOf[A interface {
	Run(p, t int) (core.Result, error)
}](app A, err error) (runner, error) {
	if err != nil {
		return nil, err
	}
	return app.Run, nil
}

func squareLabel(d int) string { return fmt.Sprintf("%d^2", d) }

// squares lists the tile counts T = g² of square tile grids g.
func squares(grids ...int) []int {
	tiles := make([]int, len(grids))
	for i, g := range grids {
		tiles[i] = g * g
	}
	return tiles
}

var paperApps = []appSpec{{
	name: "MM",
	open: func(n, _ int) (runner, error) {
		return runnerOf(mm.New(mm.Params{N: n}))
	},
	metric:   gflops,
	datasets: []int{2000, 4000, 6000, 8000, 10000, 12000},
	label:    squareLabel,
	configs:  [][2]int{{2, 2}, {4, 2}, {4, 4}, {8, 4}, {4, 8}},
	avgNote:  "average gain %.1f%% (paper: 8.3%%)",
	ref:      6000,
	// 500x500 tiles on a 6000² matrix: a 12×12 grid.
	title9: "MM GFLOPS vs partitions (D=6000, 500x500 tiles)",
	fixedT: 12,
	notes9: []string{"peaks at P ∈ {2,4,7,8,14,28,56}: divisors of 56 avoid splitting a core's threads across streams"},
	// The paper's x axis is T = grid² ∈ {1,4,9,...,400}.
	title10: "MM GFLOPS vs tiles (D=6000, P=4)",
	tiles:   squares(1, 2, 3, 4, 5, 6, 10, 12, 15, 20),
	square:  true,
	notes10: []string{"T=1 wastes 3 of 4 partitions; the optimum is T=4; finer grids decline gently"},
}, {
	name: "CF",
	open: func(n, _ int) (runner, error) {
		app, err := cf.New(cf.Params{N: n})
		if err != nil {
			return nil, err
		}
		return func(p, grid int) (core.Result, error) { return app.Run(1, p, grid) }, nil
	},
	metric:   gflops,
	datasets: []int{7200, 9600, 12000, 14400, 16800, 19200},
	label:    squareLabel,
	configs:  [][2]int{{4, 8}, {4, 12}, {8, 12}, {4, 24}},
	avgNote:  "average gain %.1f%% (paper: 24.1%%)",
	ref:      9600,
	// 800x800 tiles on a 9600² matrix: a 12×12 grid.
	title9:  "CF GFLOPS vs partitions (D=9600, 800x800 tiles)",
	fixedT:  12,
	notes9:  []string{"same divisor-of-56 spikes as MM"},
	title10: "CF GFLOPS vs tiles (D=9600, P=4)",
	tiles:   squares(2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20),
	square:  true,
	notes10: []string{"optimum at an intermediate grid (paper: T=100): the DAG needs enough tiles for parallelism, small tiles lose efficiency"},
}, {
	name: "Kmeans",
	open: func(n, iters int) (runner, error) {
		return runnerOf(kmeans.New(kmeans.Params{N: n, Features: 34, K: 8, Iterations: iters}))
	},
	metric:     seconds,
	iters:      100,
	paperIters: 100,
	datasets:   []int{140_000, 280_000, 560_000, 1_120_000, 2_240_000},
	label:      func(n int) string { return fmt.Sprintf("%dK", n/1000) },
	configs:    [][2]int{{4, 4}, {8, 8}, {28, 28}, {56, 56}},
	avgNote:    "average speedup %.1f%% (paper: 24.1%%) — from reduced per-launch allocation, not overlap",
	notes8:     []string{"model limitation: the per-launch allocation term is fixed, so gains shrink with dataset size; at the reference 1120K dataset (Figs. 9c/10c) the gain matches the paper"},
	ref:        1_120_000,
	// T=20000 points per task: 56 tasks.
	title9:  "Kmeans time vs partitions (D=1120000, T=56 tasks, 100 iters)",
	fixedT:  56,
	notes9:  []string{"monotone improvement: per-launch allocation cost shrinks with partition width"},
	title10: "Kmeans time vs tasks (D=1120000, P=4, 100 iters)",
	tiles:   []int{1, 2, 4, 8, 16, 20, 28, 32, 56, 112, 224},
	notes10: []string{"optimum at small T (paper: 4); fine tasks multiply per-launch allocation"},
}, {
	name: "Hotspot",
	open: func(d, iters int) (runner, error) {
		return runnerOf(hotspot.New(hotspot.Params{Dim: d, Iterations: iters}))
	},
	metric:     seconds,
	iters:      5,
	paperIters: 50,
	datasets:   []int{1024, 2048, 4096, 8192, 16384},
	label:      squareLabel,
	// Like SRAD, the streamed port runs its production tiling rather
	// than degenerating to near-non-streamed shapes, which is what
	// exposes the small-grid overhead loss.
	configs: [][2]int{{4, 16}, {8, 16}},
	notes8:  []string{"no benefit from streams (paper: no change; slightly slower on small grids)"},
	ref:     16384,
	// 1024² tiles on the 16384² grid: 256 tasks.
	title9: "Hotspot time vs partitions (16384^2, 256 tasks, 50 iters)",
	fixedT: 256,
	notes9: []string{"lowest region at P≈33-37: ≤2 cores per partition (cache locality) with balanced task waves"},
	// The paper's x axis is 1²..256².
	title10: "Hotspot time vs tiles (16384^2, P=4, 50 iters)",
	tiles:   []int{1, 4, 16, 64, 256, 1024, 4096, 16384},
	notes10: []string{"T=1 leaves partitions idle; optimum at small T (paper: 4); very fine tiles drown in launches"},
}, {
	name: "NN",
	open: func(n, _ int) (runner, error) {
		return runnerOf(nn.New(nn.Params{N: n, K: 10, TargetLat: 40, TargetLon: 120}))
	},
	metric:   millis,
	datasets: []int{131072, 262144, 524288, 1048576, 2097152},
	label:    func(n int) string { return fmt.Sprintf("%dk", n/1024) },
	configs:  [][2]int{{4, 4}, {4, 8}, {8, 8}, {4, 16}},
	avgNote:  "average gain %.1f%% (paper: 9.2%%); NN is transfer-bound, so the hideable fraction is small",
	ref:      nn.DefaultParams().N,
	title9:   "NN time vs partitions (D=5242880, T=512)",
	fixedT:   512,
	notes9:   []string{"drops sharply until P=4, then flat ≈25ms: the PCIe link is the bottleneck"},
	// The paper's caption says "P = 512", which cannot be a partition
	// count on a 224-thread device; it is read as a typo for the
	// Fig. 9(e) task granularity, and T is swept at P=4 over 2⁰..2¹¹.
	title10: "NN time vs tiles (D=5242880, P=4)",
	tiles:   []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048},
	notes10: []string{"T=1 and T=4 perform similarly (transfer-bound); fine tiles pay per-transfer latency"},
}, {
	name: "SRAD",
	open: func(d, iters int) (runner, error) {
		return runnerOf(srad.New(srad.Params{Dim: d, Iterations: iters, Lambda: 0.5}))
	},
	metric:     seconds,
	iters:      5,
	paperIters: 100,
	datasets:   []int{1000, 2000, 4000, 5000, 10000},
	label:      squareLabel,
	// The streamed SRAD port uses its production tiling (the fine
	// grids that win on large images, cf. Fig. 10f); it is not
	// re-degenerated to near-non-streamed shapes per dataset, which
	// is why small images lose.
	configs: [][2]int{{4, 100}, {4, 400}, {8, 400}},
	notes8:  []string{"streamed loses on small images (overheads) and wins on large ones (L2-resident tiles across the two stencil phases) — the paper's 'under investigation' case"},
	ref:     10000,
	// A 20×20 task grid: 400 tasks.
	title9: "SRAD time vs partitions (10000^2, 400 tasks, 100 iters)",
	fixedT: 400,
	notes9: []string{"spatial sharing only: time falls to an interior optimum, then management overhead wins"},
	// The paper's x axis is 1²..100².
	title10: "SRAD time vs tiles (10000^2, P=4, 100 iters)",
	tiles:   []int{1, 4, 9, 16, 25, 100, 169, 400, 625, 2500, 10000},
	notes10: []string{"optimum at large T (paper: 400): tiles must shrink until they fit the partition L2 across the two stencil phases"},
}}

func init() {
	for i := range paperApps {
		s := &paperApps[i]
		s.fig = string(rune('a' + i))
		register("fig8"+s.fig, s.fig8)
		register("fig9"+s.fig, s.fig9)
		register("fig10"+s.fig, s.fig10)
	}
}

// sweep measures n points, point i by at(i), on min(GOMAXPROCS, n)
// workers that take the points in index order. Each result lands in
// slot i, so the slice is in point order whatever order the points
// finish in, and of the points that fail, the first in point order
// gives the error. A point must share nothing mutable with another:
// every app run builds its own hstreams context.
func sweep(n int, at func(i int) (core.Result, error)) ([]core.Result, error) {
	out := make([]core.Result, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				out[i], errs[i] = at(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fig8 regenerates Fig. 8 for the app: per dataset, the single-stream
// run against the fastest streamed candidate — the paper's protocol
// ("we empirically enumerate all the possible values of task
// granularity and resource granularity to obtain the optimal
// performance"), restricted to the §V-C pruned candidates to keep
// regeneration quick.
func (s *appSpec) fig8() (*Table, error) {
	what, change := "execution time", "change"
	if s.metric == gflops {
		what = "GFLOPS"
	}
	if s.avgNote != "" {
		change = "gain"
	}
	u := s.metric.unit()
	t := &Table{
		ID:      "fig8" + s.fig,
		Title:   s.name + ": single stream vs multiple streams (" + what + ")",
		Columns: []string{"dataset", "w/o[" + u + "]", "w/[" + u + "]", change},
	}
	// One sweep over datasets × points, so the workers share the
	// whole figure rather than one dataset's handful of points.
	points := append([][2]int{{1, 1}}, s.configs...)
	runs := make([]runner, len(s.datasets))
	for i, size := range s.datasets {
		run, err := s.open(size, s.paperIters)
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	all, err := sweep(len(runs)*len(points), func(i int) (core.Result, error) {
		pt := points[i%len(points)]
		return runs[i/len(points)](pt[0], pt[1])
	})
	if err != nil {
		return nil, err
	}
	sumGain := 0.0
	for di, size := range s.datasets {
		rs := all[di*len(points) : (di+1)*len(points)]
		base, best := rs[0], rs[1]
		for _, r := range rs[2:] {
			if r.Wall < best.Wall {
				best = r
			}
		}
		gain := s.metric.gain(base, best)
		sumGain += gain
		t.Rows = append(t.Rows, []string{
			s.label(size), s.metric.cell(base, 1), s.metric.cell(best, 1),
			fmt.Sprintf("%+.1f%%", gain*100),
		})
	}
	if s.avgNote != "" {
		t.Notes = append(t.Notes, fmt.Sprintf(s.avgNote, sumGain/float64(len(s.datasets))*100))
	}
	t.Notes = append(t.Notes, s.notes8...)
	return t, nil
}

// fig9 regenerates Fig. 9 for the app: P = 1..56 at its fixed T.
func (s *appSpec) fig9() (*Table, error) {
	ps := make([]int, 56)
	points := make([][2]int, len(ps))
	for i := range points {
		ps[i] = i + 1
		points[i] = [2]int{ps[i], s.fixedT}
	}
	return s.axisSweep("fig9", s.title9, "partitions", ps, points, s.notes9)
}

// fig10 regenerates Fig. 10 for the app: its tile axis at P = 4.
func (s *appSpec) fig10() (*Table, error) {
	points := make([][2]int, len(s.tiles))
	for i, n := range s.tiles {
		if s.square {
			// math.Sqrt is exact on perfect squares.
			n = int(math.Sqrt(float64(n)))
		}
		points[i] = [2]int{4, n}
	}
	return s.axisSweep("fig10", s.title10, "tiles", s.tiles, points, s.notes10)
}

// axisSweep renders a Fig. 9/10 sweep on the reference dataset: one
// row per point, labelled by its value xs[i] on the x axis.
func (s *appSpec) axisSweep(figure, title, x string, xs []int, points [][2]int, notes []string) (*Table, error) {
	run, err := s.open(s.ref, s.iters)
	if err != nil {
		return nil, err
	}
	rs, err := sweep(len(points), func(i int) (core.Result, error) { return run(points[i][0], points[i][1]) })
	if err != nil {
		return nil, err
	}
	t := &Table{ID: figure + s.fig, Title: title, Columns: []string{x, s.metric.axis()}}
	scale := 1.0
	if s.iters != s.paperIters {
		scale = float64(s.paperIters) / float64(s.iters)
		t.Notes = append(t.Notes, fmt.Sprintf("run with %d iterations, scaled ×%.0f to the paper's %d", s.iters, scale, s.paperIters))
	}
	t.Notes = append(t.Notes, notes...)
	for i, r := range rs {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", xs[i]), s.metric.cell(r, scale)})
	}
	return t, nil
}
