package experiments

import (
	"fmt"

	"micstream/internal/cluster"
)

func init() {
	register("stealing", Stealing)
}

// stealingScenarios extends the placement study's moderate and severe
// mixes with the "stranded" mix — the Fig. 11 shape pushed to where
// eager commitment visibly hurts: every job's inputs live on device 0,
// staging is expensive, and a deep committed queue (depth 16) freezes
// placement decisions long before the mix's imbalance has played out.
var stealingScenarios = []imbalanceMix{
	placementScenarios[2],
	placementScenarios[3],
	{"stranded", 4, 1, []int{0}, 8 << 20, 10_000_000, 16},
}

// stealingRow is one scenario's seed-averaged measurements.
type stealingRow struct {
	name                  string
	pred, steal, static2x float64 // mean makespan [ms]
	steals                float64 // mean steals per run
	projected             float64 // static-best / devices: the linear projection
	gapClosed             float64 // share of (pred − projected) recovered; −1 (printed "—") when pred ≤ projected
}

// runStealingStudy measures every scenario, seed-averaged; the
// experiments tests assert the acceptance contract on these rows.
func runStealingStudy() ([]stealingRow, error) {
	rows := make([]stealingRow, 0, len(stealingScenarios))
	for _, sc := range stealingScenarios {
		m, err := seedMeans(func(seed uint64) ([]float64, error) {
			cell := sc.cell(cluster.Predicted)
			rp, err := cell.run(seed)
			if err != nil {
				return nil, err
			}
			rs, err := cell.run(seed, cluster.WithStealing(0))
			if err != nil {
				return nil, err
			}
			best, err := staticBest(cell, seed)
			return []float64{rp.Makespan.Milliseconds(), rs.Makespan.Milliseconds(),
				best.Milliseconds(), float64(rs.Steals)}, err
		})
		if err != nil {
			return nil, err
		}
		row := stealingRow{name: sc.name, pred: m[0], steal: m[1], static2x: m[2], steals: m[3]}
		row.projected = row.static2x / 2
		if gap := row.pred - row.projected; gap > 0 {
			row.gapClosed = (row.pred - row.steal) / gap
		} else {
			row.gapClosed = -1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Stealing regenerates the work-stealing study: predicted placement
// with drain-instant re-binding against predicted-only and the best
// static single-device pinning, on the placement study's imbalanced
// mixes plus the stranded Fig. 11 mix. "projected" is the best static
// pinning's linear two-device projection — the scaling the paper's §VI
// would predict without staging or placement mistakes — and
// "gap-closed" is the share of predicted placement's remaining
// distance to that projection which stealing recovers. On the
// stranded mix, commitment freezes work behind device 0's queue while
// device 1 drains, and re-binding at drain instants (with the staging
// term re-charged on the new link) closes over half the remaining gap;
// on the milder mixes predicted placement already beats the projection
// and stealing safely idles (the ROADMAP's "gap placement mistakes
// leave", measured).
func Stealing() (*Table, error) {
	rows, err := runStealingStudy()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "stealing",
		Title:   "Work stealing: mean makespan [ms] with drain-instant re-binding of committed jobs",
		Columns: []string{"scenario", "predicted", "+stealing", "steals/run", "static-best", "projected", "gap-closed"},
		Notes: []string{
			"2 MICs × 2 partitions × 2 streams, bursty arrivals; moderate/severe use queue depth 8, stranded (all inputs on device 0, 8 MiB staging) depth 16",
			"projected = best static single-device pinning / 2 devices (the linear Fig. 11 projection); gap-closed = (predicted − stealing) / (predicted − projected)",
			"— means predicted placement already beats the projection, so there is no gap left to close",
		},
	}
	for _, r := range rows {
		closed := "—"
		if r.gapClosed >= 0 {
			closed = fmt.Sprintf("%.0f%%", r.gapClosed*100)
		}
		t.Rows = append(t.Rows, []string{
			r.name, fmtMS(r.pred), fmtMS(r.steal), fmt.Sprintf("%.1f", r.steals),
			fmtMS(r.static2x), fmtMS(r.projected), closed,
		})
	}
	t.Notes = append(t.Notes, seedNote+"; repeats are bit-identical")
	return t, nil
}
