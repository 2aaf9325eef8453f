package experiments

import (
	"fmt"

	"micstream/internal/cluster"
	"micstream/internal/hstreams"
)

func init() {
	register("residency", Residency)
}

// residencyCell is the repeated-dataset version of the Fig. 11 shape:
// every job's inputs are device-resident and cycle through four shared
// datasets homed on device 0, so most of the staging traffic a
// cache-less cluster pays re-ships bytes an earlier job already moved.
// The study runs it on a 4-MIC platform at queue depth 8: with three
// off-origin devices to choose from, where a dataset's readers land is
// a real decision — the dimension the affinity tie-break exists to win.
func residencyCell(place func() cluster.Policy, opts ...cluster.Option) clusterCell {
	return clusterCell{
		platform: hstreams.Config{Devices: 4, Partitions: 2, StreamsPerPartition: 2},
		place:    place,
		scenario: cluster.ScenarioConfig{
			Arrival:          "bursty",
			SizeSpread:       4,
			AffinityFraction: 1,
			Origins:          []int{0},
			Datasets:         4,
			XferBytes:        8 << 20,
			WindowNs:         10_000_000,
		},
		opts: append([]cluster.Option{cluster.WithQueueDepth(8)}, opts...),
	}
}

// residencyRow is one configuration's seed-averaged measurements.
type residencyRow struct {
	name       string
	makespan   float64 // mean makespan [ms]
	stagedMB   float64 // mean staged (charged) volume [MiB]
	hitMB      float64 // mean demand served resident [MiB]
	missMB     float64 // mean demand staged cold [MiB]
	vsBaseline float64 // makespan improvement over the cache-less baseline
}

// runResidencyStudy measures the three configurations the experiment
// compares, seed-averaged; the experiments tests assert the acceptance
// contract on these rows.
func runResidencyStudy() ([]residencyRow, error) {
	configs := []struct {
		name string
		cell clusterCell
	}{
		{"predicted (no cache)", residencyCell(cluster.Predicted)},
		{"predicted + cache", residencyCell(cluster.Predicted, cluster.WithResidency(0))},
		{"affinity + cache", residencyCell(cluster.Affinity, cluster.WithResidency(0))},
	}
	const mib = float64(1 << 20)
	rows := make([]residencyRow, 0, len(configs))
	for _, cfg := range configs {
		m, err := seedMeans(func(seed uint64) ([]float64, error) {
			r, err := cfg.cell.run(seed)
			if err != nil {
				return nil, err
			}
			return []float64{r.Makespan.Milliseconds(), float64(r.StagedBytes) / mib,
				float64(r.HitBytes) / mib, float64(r.MissBytes) / mib}, nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, residencyRow{name: cfg.name, makespan: m[0], stagedMB: m[1], hitMB: m[2], missMB: m[3]})
	}
	base := rows[0].makespan
	for i := range rows {
		if base > 0 {
			rows[i].vsBaseline = 1 - rows[i].makespan/base
		}
	}
	return rows, nil
}

// Residency regenerates the staging-cache study: the repeated-dataset
// Fig. 11 mix under cache-less predicted placement, residency-enabled
// predicted (cold-miss-only staging, residual-priced scores), and the
// affinity policy (near-ties broken toward the device holding the
// job's tiles). The cache-less row re-stages every off-origin job in
// full; the cached rows' staged volume collapses to the cold misses —
// each (dataset, device) pair ships at most once — and affinity herds
// each dataset's readers onto one device, cutting the cold misses and
// the makespan further. This is the ROADMAP's "cross-job staging
// reuse" item measured end to end: the Fig. 11 staging charge priced
// as a cache, not a tax.
func Residency() (*Table, error) {
	rows, err := runResidencyStudy()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "residency",
		Title:   "Device-resident staging cache: mean makespan and staging traffic on the repeated-dataset mix",
		Columns: []string{"configuration", "makespan", "staged[MiB]", "hit[MiB]", "cold-miss[MiB]", "vs-no-cache"},
		Notes: []string{
			"4 MICs × 2 partitions × 2 streams, queue depth 8, bursty arrivals; 48 jobs cycle through 4 shared 8 MiB datasets homed on device 0",
			"staged = charged transfer volume (2× the cold misses); hit/cold-miss split the off-origin staging demand against the residency cache",
			"affinity scores like predicted but breaks near-ties toward the device holding the largest resident fraction of the job's tiles",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.name, fmtMS(r.makespan), fmt.Sprintf("%.0f", r.stagedMB),
			fmt.Sprintf("%.0f", r.hitMB), fmt.Sprintf("%.0f", r.missMB),
			fmt.Sprintf("%.0f%%", r.vsBaseline*100),
		})
	}
	t.Notes = append(t.Notes, seedNote+"; repeats are bit-identical")
	return t, nil
}
