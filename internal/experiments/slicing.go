package experiments

import (
	"fmt"

	"micstream/internal/cluster"
	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/sched"
	"micstream/internal/sim"
	"micstream/internal/workload"
)

func init() {
	register("slicing", Slicing)
}

// The convoy mix: a batch tenant's long multi-task jobs land first and
// monopolize both devices, then an interactive tenant's one-task jobs
// trickle in behind them. Without slicing a light job can only start
// when a whole heavy job drains; with slicing it wins the next slice
// boundary. The study compares whole-job stealing against stealing
// with slicing enabled, both under the size-aware (SJF) device policy,
// and reports the interactive tenant's p95 response time.
const (
	convoyHeavies    = 12   // batch jobs
	convoyHeavyTasks = 16   // tasks per batch job
	convoyHeavyFlops = 5e8  // flops per batch task
	convoyLights     = 40   // interactive jobs
	convoyLightFlops = 1e8  // flops per interactive job
	convoySliceCap   = 2    // tasks per stream grant under slicing
	convoyGapNs      = 1e6  // mean interactive inter-arrival [ns]
	convoyStaggerNs  = 5e05 // batch arrival stagger [ns]
)

// convoyJobs builds one seeded convoy instance: the batch jobs arrive
// in a tight stagger from t=0, the interactive jobs as a Poisson
// process across the batch service window.
func convoyJobs(seed uint64) ([]cluster.Job, error) {
	mk := func(id int, tenant string, arrival sim.Time, tasks int, flops float64) cluster.Job {
		ts := make([]*core.Task, tasks)
		for i := range ts {
			ts[i] = &core.Task{
				ID:         i,
				Cost:       device.KernelCost{Name: "synthetic", Flops: flops},
				StreamHint: -1,
			}
		}
		return cluster.Job{ID: id, Tenant: tenant, Arrival: arrival, Tasks: ts, Origin: -1}
	}
	jobs := make([]cluster.Job, 0, convoyHeavies+convoyLights)
	for i := 0; i < convoyHeavies; i++ {
		jobs = append(jobs, mk(i, "batch",
			sim.Time(int64(i)*int64(convoyStaggerNs)), convoyHeavyTasks, convoyHeavyFlops))
	}
	gaps, err := workload.Arrivals("poisson", seed, convoyLights, convoyGapNs)
	if err != nil {
		return nil, err
	}
	for i, at := range gaps {
		jobs = append(jobs, mk(convoyHeavies+i, "interactive", sim.Time(at), 1, convoyLightFlops))
	}
	return jobs, nil
}

// convoy is the 2-MIC convoy cell: whole-job stealing under predicted
// placement and the SJF device policy, queue depth 16. The slicing
// arm adds WithSlicing(convoySliceCap).
var convoy = clusterCell{
	platform: twoMICs,
	place:    cluster.Predicted,
	mix:      convoyJobs,
	opts: []cluster.Option{
		cluster.WithQueueDepth(16),
		cluster.WithStealing(0),
		cluster.WithDevicePolicy(func() sched.Policy { return sched.SJF() }),
	},
}

// slicingGuards re-runs earlier studies' mixes with slicing toggled
// on: the no-regression half of the slicing contract. Each keeps its
// study's contention shape, placement, depth and options (FIFO device
// policy) but carries 4-tile jobs sliced at cap 2, so every job truly
// splits in half while each slice still pipelines two tiles' H2D and
// kernel phases — cap 1 on the studies' 2-tile default would measure
// the lost intra-job overlap, not the slicing machinery.
var slicingGuards = []struct {
	name string
	cell clusterCell
}{
	{"placement-moderate", fourTiles(placementScenarios[2].cell(cluster.Predicted))},
	{"placement-severe", fourTiles(placementScenarios[3].cell(cluster.Predicted))},
	{"stealing-stranded", fourTiles(stealingScenarios[2].cell(cluster.Predicted, cluster.WithStealing(0)))},
	{"residency-affinity", fourTiles(residencyCell(cluster.Affinity, cluster.WithResidency(0)))},
}

// fourTiles gives a guard cell's jobs 4 tiles.
func fourTiles(c clusterCell) clusterCell {
	c.scenario.TilesPerJob = 4
	return c
}

// slicingRow is one (scenario, metric) comparison, seed-averaged.
type slicingRow struct {
	scenario, metric string
	base, sliced     float64 // mean metric value [ms]
	delta            float64 // (sliced − base) / base; negative is an improvement
	preempts         float64 // mean mid-job migrations per sliced run
}

// newSlicingRow derives a row's delta.
func newSlicingRow(scenario, metric string, base, sliced, preempts float64) slicingRow {
	r := slicingRow{scenario: scenario, metric: metric, base: base, sliced: sliced, preempts: preempts}
	if r.base > 0 {
		r.delta = (r.sliced - r.base) / r.base
	}
	return r
}

// runSlicingStudy measures the convoy mix (response time and makespan)
// and every guard mix (makespan only), seed-averaged; the experiments
// tests assert the acceptance contract on these rows.
func runSlicingStudy() ([]slicingRow, error) {
	cv, err := seedMeans(func(seed uint64) ([]float64, error) {
		rb, err := convoy.run(seed)
		if err != nil {
			return nil, err
		}
		rs, err := convoy.run(seed, cluster.WithSlicing(convoySliceCap))
		if err != nil {
			return nil, err
		}
		tb, ts := rb.Tenant("interactive"), rs.Tenant("interactive")
		if tb == nil || ts == nil {
			return nil, fmt.Errorf("convoy run lost the interactive tenant")
		}
		return []float64{tb.P95.Milliseconds(), ts.P95.Milliseconds(),
			rb.Makespan.Milliseconds(), rs.Makespan.Milliseconds(), float64(rs.Preempts)}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := []slicingRow{
		newSlicingRow("convoy", "interactive p95", cv[0], cv[1], cv[4]),
		newSlicingRow("convoy", "makespan", cv[2], cv[3], cv[4]),
	}
	for _, g := range slicingGuards {
		m, err := seedMeans(func(seed uint64) ([]float64, error) {
			rb, err := g.cell.run(seed)
			if err != nil {
				return nil, err
			}
			rs, err := g.cell.run(seed, cluster.WithSlicing(2))
			if err != nil {
				return nil, err
			}
			return []float64{rb.Makespan.Milliseconds(), rs.Makespan.Milliseconds(), float64(rs.Preempts)}, nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, newSlicingRow(g.name, "makespan", m[0], m[1], m[2]))
	}
	return rows, nil
}

// Slicing regenerates the preemptive-slicing study: the convoy mix
// where slicing exists to win (an interactive tenant's p95 response
// time trapped behind a batch tenant's multi-task jobs), plus the
// earlier placement/stealing/residency mixes re-run with slicing
// toggled on to show it never costs more than noise when it has
// nothing to win. Mid-job migrations (Preempts) only fire where a
// parked remainder meets another device's drain instant — the convoy
// mix under the SJF device policy; the guard mixes re-dispatch
// remainders immediately and stay preempt-free.
func Slicing() (*Table, error) {
	rows, err := runSlicingStudy()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "slicing",
		Title:   "Preemptive job slicing: tenant response times and makespan with task-granularity stealing",
		Columns: []string{"scenario", "metric", "whole-job", "+slicing", "delta", "preempts/run"},
		Notes: []string{
			fmt.Sprintf("convoy: 2 MICs × 2 partitions × 2 streams, %d batch jobs (%d tasks × %.0e flops) vs %d interactive 1-task jobs (poisson), predicted placement, stealing, SJF device policy; slicing cap %d tasks/grant",
				convoyHeavies, convoyHeavyTasks, convoyHeavyFlops, convoyLights, convoySliceCap),
			"guard rows re-run the placement (moderate/severe), stranded-stealing and residency (affinity+cache, 4 MICs) mixes with 4-tile jobs sliced at cap 2: every job splits in half, each slice still pipelines two tiles",
			"delta = (sliced − whole-job) / whole-job: negative improves; the contract is ≥20% p95 relief on the convoy and ≤1% makespan drift on every guard row",
			seedNote + "; repeats are bit-identical",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.scenario, r.metric + " [ms]", fmtMS(r.base), fmtMS(r.sliced),
			fmt.Sprintf("%+.1f%%", r.delta*100), fmt.Sprintf("%.1f", r.preempts),
		})
	}
	return t, nil
}
