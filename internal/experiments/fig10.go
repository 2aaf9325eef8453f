package experiments

import (
	"fmt"
	"math"

	"micstream/internal/apps/cf"
	"micstream/internal/apps/hotspot"
	"micstream/internal/apps/kmeans"
	"micstream/internal/apps/mm"
	"micstream/internal/apps/nn"
	"micstream/internal/apps/srad"
	"micstream/internal/core"
)

func init() {
	register("fig10a", Fig10aMM)
	register("fig10b", Fig10bCF)
	register("fig10c", Fig10cKmeans)
	register("fig10d", Fig10dHotspot)
	register("fig10e", Fig10eNN)
	register("fig10f", Fig10fSRAD)
}

// tileSweep drives one application across task counts with P fixed.
func tileSweep(id, title, metric string, tiles []int, run func(tiles int) (core.Result, error), format func(core.Result) string, notes ...string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"tiles", metric},
		Notes:   notes,
	}
	for _, n := range tiles {
		r, err := run(n)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), format(r)})
	}
	return t, nil
}

// squares lists the tile counts T = g² of square tile grids g.
func squares(grids ...int) []int {
	tiles := make([]int, len(grids))
	for i, g := range grids {
		tiles[i] = g * g
	}
	return tiles
}

// gridOf inverts squares: the edge g of a grid of T = g² tiles
// (math.Sqrt is exact on perfect squares).
func gridOf(tiles int) int { return int(math.Sqrt(float64(tiles))) }

// Fig10aMM regenerates Fig. 10(a): MM GFLOPS vs tiles (D=6000, P=4);
// the paper's x axis is T = grid² ∈ {1,4,9,...,400}.
func Fig10aMM() (*Table, error) {
	app, err := mm.New(mm.Params{N: 6000})
	if err != nil {
		return nil, err
	}
	return tileSweep("fig10a", "MM GFLOPS vs tiles (D=6000, P=4)", "GFLOPS",
		squares(1, 2, 3, 4, 5, 6, 10, 12, 15, 20),
		func(tiles int) (core.Result, error) { return app.Run(4, gridOf(tiles)) }, asGF,
		"T=1 wastes 3 of 4 partitions; the optimum is T=4; finer grids decline gently")
}

// Fig10bCF regenerates Fig. 10(b): CF GFLOPS vs tiles (D=9600, P=4).
func Fig10bCF() (*Table, error) {
	app, err := cf.New(cf.Params{N: 9600})
	if err != nil {
		return nil, err
	}
	return tileSweep("fig10b", "CF GFLOPS vs tiles (D=9600, P=4)", "GFLOPS",
		squares(2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20),
		func(tiles int) (core.Result, error) { return app.Run(1, 4, gridOf(tiles)) }, asGF,
		"optimum at an intermediate grid (paper: T=100): the DAG needs enough tiles for parallelism, small tiles lose efficiency")
}

// Fig10cKmeans regenerates Fig. 10(c): Kmeans time vs tasks
// (D=1120000, P=4, 100 iterations).
func Fig10cKmeans() (*Table, error) {
	app, err := kmeans.New(kmeans.Params{N: 1_120_000, Features: 34, K: 8, Iterations: 100})
	if err != nil {
		return nil, err
	}
	return tileSweep("fig10c", "Kmeans time vs tasks (D=1120000, P=4, 100 iters)", "time[s]",
		[]int{1, 2, 4, 8, 16, 20, 28, 32, 56, 112, 224},
		func(n int) (core.Result, error) { return app.Run(4, n) }, asS,
		"optimum at small T (paper: 4); fine tasks multiply per-launch allocation")
}

// Fig10dHotspot regenerates Fig. 10(d): Hotspot time vs tiles
// (16384², P=4, 50 iterations; paper x axis 1²..256²). Iterations
// reduced to 5 and scaled as in Fig. 9(d).
func Fig10dHotspot() (*Table, error) {
	const iters, paperIters = 5, 50
	app, err := hotspot.New(hotspot.Params{Dim: 16384, Iterations: iters})
	if err != nil {
		return nil, err
	}
	scale := float64(paperIters) / float64(iters)
	return tileSweep("fig10d", "Hotspot time vs tiles (16384^2, P=4, 50 iters)", "time[s]",
		[]int{1, 4, 16, 64, 256, 1024, 4096, 16384},
		func(n int) (core.Result, error) { return app.Run(4, n) },
		func(r core.Result) string { return fmtS(r.Wall.Seconds() * scale) },
		fmt.Sprintf("run with %d iterations, scaled ×%.0f to the paper's %d", iters, scale, paperIters),
		"T=1 leaves partitions idle; optimum at small T (paper: 4); very fine tiles drown in launches")
}

// Fig10eNN regenerates Fig. 10(e): NN time vs tiles (D=5242880,
// P=4, T ∈ 2⁰..2¹¹). The paper's caption says "P = 512", which cannot
// be a partition count on a 224-thread device; we read it as a typo
// for the Fig. 9(e) task granularity and sweep T at P=4.
func Fig10eNN() (*Table, error) {
	app, err := nn.New(nn.DefaultParams())
	if err != nil {
		return nil, err
	}
	var tiles []int
	for e := 0; e <= 11; e++ {
		tiles = append(tiles, 1<<e)
	}
	return tileSweep("fig10e", "NN time vs tiles (D=5242880, P=4)", "time[ms]", tiles,
		func(n int) (core.Result, error) { return app.Run(4, n) }, asMS,
		"T=1 and T=4 perform similarly (transfer-bound); fine tiles pay per-transfer latency")
}

// Fig10fSRAD regenerates Fig. 10(f): SRAD time vs tiles (10000²,
// P=4, λ=0.5, 100 iterations; paper x axis 1²..100²). Iterations
// reduced to 5 and scaled.
func Fig10fSRAD() (*Table, error) {
	const iters, paperIters = 5, 100
	app, err := srad.New(srad.Params{Dim: 10000, Iterations: iters, Lambda: 0.5})
	if err != nil {
		return nil, err
	}
	scale := float64(paperIters) / float64(iters)
	return tileSweep("fig10f", "SRAD time vs tiles (10000^2, P=4, 100 iters)", "time[s]",
		[]int{1, 4, 9, 16, 25, 100, 169, 400, 625, 2500, 10000},
		func(n int) (core.Result, error) { return app.Run(4, n) },
		func(r core.Result) string { return fmtS(r.Wall.Seconds() * scale) },
		fmt.Sprintf("run with %d iterations, scaled ×%.0f to the paper's %d", iters, scale, paperIters),
		"optimum at large T (paper: 400): tiles must shrink until they fit the partition L2 across the two stencil phases")
}
