package experiments

import (
	"fmt"
	"slices"

	"micstream/internal/apps/cf"
	"micstream/internal/apps/mm"
	"micstream/internal/core"
)

func init() {
	register("fig11", Fig11)
	register("heuristics", Heuristics)
}

// Fig11 regenerates Fig. 11: Cholesky Factorization on one and two
// MICs against the projected 2× for datasets 14000² and 16000²
// (§VI). The 2-MIC run pays cross-device tile staging and extra
// intermediate write-backs, which is why it lands below the projection.
func Fig11() (*Table, error) {
	t := &Table{
		ID:      "fig11",
		Title:   "CF on multiple MICs (GFLOPS)",
		Columns: []string{"dataset", "1-mic", "2-mics", "projected"},
	}
	for _, d := range []int{14000, 16000} {
		app, err := cf.New(cf.Params{N: d})
		if err != nil {
			return nil, err
		}
		grid := d / 1000 // ≈1000×1000 tiles
		one, err := app.Run(1, 4, grid)
		if err != nil {
			return nil, err
		}
		two, err := app.Run(2, 4, grid)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d), fmtGF(one.GFlops), fmtGF(two.GFlops), fmtGF(2 * one.GFlops),
		})
	}
	t.Notes = append(t.Notes,
		"2 MICs beat 1 but fall short of 2×: partitioned workloads move more tiles and synchronize across devices (paper §VI)")
	return t, nil
}

// Heuristics regenerates the §V-C search-space study: the exhaustive
// (P, T) space against the paper's pruned space (P a divisor of 56,
// T a multiple of P), and the quality of the pruned optimum, using MM
// at D = 6000 as the workload.
func Heuristics() (*Table, error) {
	app, err := mm.New(mm.Params{N: 6000})
	if err != nil {
		return nil, err
	}
	// The tuner works on (P, grid) where T = grid²; grid must divide
	// 6000. Grids up to 40 approximate the paper's T ≤ 400·4.
	divGrids := []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24, 25, 30, 40}
	exhaustive := core.SearchSpace{
		Partitions: core.FullPartitionSpace(56),
		TilesFor:   func(int) []int { return divGrids },
	}
	// Every point the three searches evaluate lies in the exhaustive
	// grid, so the grid is measured once, in parallel, and the
	// searches look their points up. Each still counts a lookup as an
	// evaluation, so the table reports the searches' own costs.
	grid, err := sweep(56*len(divGrids), func(i int) (core.Result, error) {
		return app.Run(i/len(divGrids)+1, divGrids[i%len(divGrids)])
	})
	if err != nil {
		return nil, err
	}
	eval := func(p, g int) (float64, error) {
		gi := slices.Index(divGrids, g)
		if p < 1 || p > 56 || gi < 0 {
			return 0, fmt.Errorf("heuristics: (P=%d, grid=%d) is outside the measured grid", p, g)
		}
		return grid[(p-1)*len(divGrids)+gi].Wall.Seconds(), nil
	}

	exBest, err := core.Tune(exhaustive, eval)
	if err != nil {
		return nil, err
	}

	var prunedP []int
	for p := 2; p <= 56; p++ {
		if 56%p == 0 {
			prunedP = append(prunedP, p)
		}
	}
	pruned := core.SearchSpace{
		Partitions: prunedP,
		TilesFor: func(p int) []int {
			// T = m·P ⇒ grid² multiple of P, approximated by
			// grids whose square is divisible by p.
			var out []int
			for _, g := range divGrids {
				if (g*g)%p == 0 {
					out = append(out, g)
				}
			}
			if len(out) == 0 {
				// No grid satisfies T = m·P exactly (e.g. P=7
				// with grids dividing 6000); fall back to a
				// balanced small grid.
				out = []int{4}
			}
			return out
		},
	}
	prBest, err := core.Tune(pruned, eval)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "heuristics",
		Title:   "§V-C search-space reduction (MM, D=6000)",
		Columns: []string{"space", "points", "best P", "best T", "best time[ms]"},
	}
	t.Rows = append(t.Rows, []string{
		"exhaustive", fmt.Sprintf("%d", exBest.Evaluations),
		fmt.Sprintf("%d", exBest.Partitions), fmt.Sprintf("%d", exBest.Tiles*exBest.Tiles),
		fmtMS(exBest.Seconds * 1000),
	})
	t.Rows = append(t.Rows, []string{
		"pruned", fmt.Sprintf("%d", prBest.Evaluations),
		fmt.Sprintf("%d", prBest.Partitions), fmt.Sprintf("%d", prBest.Tiles*prBest.Tiles),
		fmtMS(prBest.Seconds * 1000),
	})
	// The paper's future-work direction: search the pruned space one
	// axis at a time instead of exhaustively.
	cdBest, err := core.TuneCoordinateDescent(pruned, eval, 3)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"descent", fmt.Sprintf("%d", cdBest.Evaluations),
		fmt.Sprintf("%d", cdBest.Partitions), fmt.Sprintf("%d", cdBest.Tiles*cdBest.Tiles),
		fmtMS(cdBest.Seconds * 1000),
	})
	t.Notes = append(t.Notes, fmt.Sprintf(
		"pruning cuts the space %.1f× and keeps the optimum within %.1f%%; coordinate descent needs only %d evaluations (within %.1f%%)",
		float64(exBest.Evaluations)/float64(prBest.Evaluations),
		(prBest.Seconds/exBest.Seconds-1)*100,
		cdBest.Evaluations,
		(cdBest.Seconds/exBest.Seconds-1)*100))
	return t, nil
}
