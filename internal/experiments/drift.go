package experiments

import (
	"fmt"

	"micstream/internal/cluster"
	"micstream/internal/obs"
	"micstream/internal/telemetry"
)

func init() {
	register("drift", Drift)
}

// driftMix names one telemetry-recorded workload whose predictions the
// audit scores. The three mixes cover the decision regimes with
// distinct drift signatures: pure placement (the model's latency score
// is the whole decision), slicing+stealing (migration invalidates the
// admission-time estimate), and residency (staging charges the model
// priced may be served from cache).
type driftMix struct {
	name string
	cell clusterCell
}

var driftMixes = []driftMix{
	{"placement", clusterCell{
		platform: twoMICs,
		place:    cluster.Predicted,
		scenario: cluster.ScenarioConfig{SizeSpread: 4, AffinityFraction: 0.5, Origins: []int{0, 1}},
	}},
	{"sliced-stealing", clusterCell{
		platform: twoMICs,
		place:    cluster.Predicted,
		scenario: cluster.ScenarioConfig{SizeSpread: 6, TilesPerJob: 4, AffinityFraction: 0.5, Origins: []int{0}},
		opts:     []cluster.Option{cluster.WithStealing(1), cluster.WithSlicing(1), cluster.WithQueueDepth(16)},
	}},
	{"residency", clusterCell{
		platform: twoMICs,
		place:    cluster.Affinity,
		scenario: cluster.ScenarioConfig{Arrival: "bursty", Datasets: 4, WriteFraction: 0.25,
			XferBytes: 8 << 20, AffinityFraction: 0.75, Origins: []int{0, 1}},
		opts: []cluster.Option{cluster.WithResidency(12 << 20)},
	}},
}

// Drift regenerates the model-drift audit table: each mix's event log
// is replayed through obs.AuditDrift and summarised per sample kind —
// placement samples score the admission-time completion estimate for
// the chosen device against the job's realised latency; service
// samples score each grant's slice estimate against the span the
// grant actually held the stream. Columns report the population, the
// error distribution (mean |err|, signed bias, p50/p95 |err|), and
// the share of samples inside 10% — the calibration headline. Large
// migrated-regime error with small resident-regime error is expected:
// the admission estimate cannot see future steals.
func Drift() (*Table, error) {
	const seeds = 3
	t := &Table{
		ID:    "drift",
		Title: "model-drift audit: predicted vs realised, by mix and sample kind",
		Columns: []string{"mix", "kind", "samples",
			"mean|err|%", "bias%", "p50|err|%", "p95|err|%", "<10%"},
		Notes: []string{
			fmt.Sprintf("%d seeds per mix; errors pooled across seeds before summarising", seeds),
			"placement: admission completion estimate vs realised latency; service: per-grant slice estimate vs realised stream span",
		},
	}
	for _, m := range driftMixes {
		var pooled []obs.DriftSample
		for s := uint64(0); s < seeds; s++ {
			rec := telemetry.NewRecorder()
			if _, err := m.cell.run(clusterSeed+s, cluster.WithTelemetry(rec)); err != nil {
				return nil, err
			}
			rep := obs.AuditDrift(rec.Events())
			pooled = append(pooled, rep.Samples...)
		}
		rep := obs.Summarize(pooled)
		for _, g := range []*obs.DriftGroup{&rep.Placement, &rep.Service} {
			if g.Count == 0 {
				return nil, fmt.Errorf("drift: mix %q produced no %s samples", m.name, g.Key)
			}
			within := g.Buckets[0] + g.Buckets[1]
			t.Rows = append(t.Rows, []string{
				m.name, g.Key, fmt.Sprintf("%d", g.Count),
				fmt.Sprintf("%.1f", g.MeanAbsPct),
				fmt.Sprintf("%+.1f", g.BiasPct),
				fmt.Sprintf("%.1f", g.P50AbsPct),
				fmt.Sprintf("%.1f", g.P95AbsPct),
				fmt.Sprintf("%.0f%%", 100*float64(within)/float64(g.Count)),
			})
		}
	}
	return t, nil
}
