package obs_test

// Integration properties of the explanation layer against real
// cluster runs, driven through the micstream facade (the external
// test package breaks the import cycle: micstream re-exports obs).
// The load-bearing one is the folding identity — for every completed
// job the five attributed phases sum exactly to the observed latency,
// so `-explain` is an accounting identity, not an estimate.

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	micstream "micstream"
	"micstream/internal/obs"
	"micstream/internal/telemetry"
)

type mix struct {
	name string
	cfg  micstream.ClusterScenarioConfig
	opts func(rec *micstream.Telemetry) []micstream.ClusterOption
}

// obsMixes covers the three decision regimes: plain placement,
// slicing+stealing (Slice/Requeue/Preempt events), and residency
// (Hit/Stage with affinity placement).
func obsMixes() []mix {
	return []mix{
		{
			name: "placement",
			cfg: micstream.ClusterScenarioConfig{
				Jobs: 24, Seed: 7, SizeSpread: 4,
				AffinityFraction: 0.5, Origins: []int{0, 1},
			},
			opts: func(rec *micstream.Telemetry) []micstream.ClusterOption {
				return []micstream.ClusterOption{
					micstream.WithPlacement(micstream.PredictedPlacement()),
					micstream.WithClusterTelemetry(rec),
				}
			},
		},
		{
			name: "sliced-stealing",
			cfg: micstream.ClusterScenarioConfig{
				Jobs: 24, Seed: 11, SizeSpread: 6, TilesPerJob: 4,
				AffinityFraction: 0.5, Origins: []int{0},
			},
			opts: func(rec *micstream.Telemetry) []micstream.ClusterOption {
				return []micstream.ClusterOption{
					micstream.WithPlacement(micstream.PredictedPlacement()),
					micstream.WithClusterStealing(time.Nanosecond),
					micstream.WithClusterSlicing(1),
					micstream.WithClusterQueueDepth(16),
					micstream.WithClusterTelemetry(rec),
				}
			},
		},
		{
			name: "residency",
			cfg: micstream.ClusterScenarioConfig{
				Jobs: 24, Seed: 5, Arrival: "bursty", Datasets: 4,
				WriteFraction: 0.25, XferBytes: 8 << 20,
				AffinityFraction: 0.75, Origins: []int{0, 1},
			},
			opts: func(rec *micstream.Telemetry) []micstream.ClusterOption {
				return []micstream.ClusterOption{
					micstream.WithPlacement(micstream.AffinityPlacement()),
					micstream.WithResidency(12 << 20),
					micstream.WithClusterTelemetry(rec),
				}
			},
		},
	}
}

func runMix(t *testing.T, m mix, rec *micstream.Telemetry) *micstream.ClusterResult {
	t.Helper()
	var opts []micstream.ClusterOption
	if m.opts != nil {
		opts = m.opts(rec)
	}
	opts = append(opts, micstream.WithClusterDevices(2), micstream.WithClusterPartitions(2), micstream.WithClusterStreams(2))
	c, err := micstream.NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := micstream.BuildClusterScenario(c, m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTimelinePhaseSumIsExact is the acceptance property: for every
// completed job across every mix, the folded phases partition the
// job's latency exactly, and the folded instants agree with the
// cluster's own Outcome record.
func TestTimelinePhaseSumIsExact(t *testing.T) {
	for _, m := range obsMixes() {
		t.Run(m.name, func(t *testing.T) {
			rec := micstream.NewTelemetry()
			r := runMix(t, m, rec)
			ts := obs.Fold(rec.Events())
			if len(ts) != len(r.Jobs) {
				t.Fatalf("folded %d timelines for %d jobs", len(ts), len(r.Jobs))
			}
			completed := 0
			for i := range ts {
				tl := &ts[i]
				o := &r.Jobs[tl.Job]
				if tl.Failed || o.Failed {
					continue
				}
				completed++
				if tl.PhaseSum() != tl.Latency() {
					t.Errorf("job %d: phase sum %v != latency %v (%+v)", tl.Job, tl.PhaseSum(), tl.Latency(), *tl)
				}
				if tl.Admitted != o.Arrival || tl.Done != o.Done {
					t.Errorf("job %d: folded instants [%v,%v] disagree with outcome [%v,%v]",
						tl.Job, tl.Admitted, tl.Done, o.Arrival, o.Done)
				}
				if got, want := tl.Latency(), o.Done.Sub(o.Arrival); got != want {
					t.Errorf("job %d: folded latency %v != outcome latency %v", tl.Job, got, want)
				}
				if tl.Slices != o.Slices {
					t.Errorf("job %d: folded %d slices, outcome says %d", tl.Job, tl.Slices, o.Slices)
				}
			}
			if completed == 0 {
				t.Fatal("mix completed no jobs; property vacuous")
			}
			// The aggregates carry the same identity: summed latency ==
			// summed phases per group.
			for _, b := range append(obs.ByTenant(ts), obs.ByDevice(ts)...) {
				if sum := b.PlaceWait + b.CommitWait + b.Exec + b.SliceWait + b.Migration; sum != b.Latency {
					t.Errorf("group %s: phase totals %v != latency total %v", b.Key, sum, b.Latency)
				}
			}
		})
	}
}

// TestGrantClosure checks the Requeue contract: on a clean run every
// stream grant (Dispatch or Slice) is closed by exactly one Requeue
// or Complete.
func TestGrantClosure(t *testing.T) {
	for _, m := range obsMixes() {
		t.Run(m.name, func(t *testing.T) {
			rec := micstream.NewTelemetry()
			runMix(t, m, rec)
			grants := rec.Count(telemetry.Dispatch) + rec.Count(telemetry.Slice)
			closes := rec.Count(telemetry.Requeue) + rec.Count(telemetry.Complete)
			if grants == 0 || grants != closes {
				t.Errorf("%d grants, %d closes — every grant must close with one Requeue or Complete", grants, closes)
			}
			if m.name == "sliced-stealing" && rec.Count(telemetry.Requeue) == 0 {
				t.Error("sliced mix emitted no Requeue events; slicing coverage vacuous")
			}
		})
	}
}

// TestObserversNeverPerturbResult is the acceptance bit-identity: a
// run observed by telemetry + a live OpenMetrics exporter + a flight
// recorder (one observer stack) yields a Result deeply equal to a
// bare run of the same scenario.
func TestObserversNeverPerturbResult(t *testing.T) {
	for _, m := range obsMixes() {
		t.Run(m.name, func(t *testing.T) {
			// A nil recorder through WithClusterTelemetry is the
			// disabled idiom, so this is the bare run.
			bare := runMix(t, m, nil)

			rec := micstream.NewTelemetry()
			exp := micstream.NewOpenMetricsExporter()
			fl := micstream.NewFlightRecorder(64)
			fl.SetP95Threshold(micstream.Duration(1)) // trips on every snapshot's first breach
			(&micstream.Observers{Exporter: exp, Flight: fl}).Attach(rec)
			observed := runMix(t, m, rec)

			if !reflect.DeepEqual(bare, observed) {
				t.Errorf("observed run's Result differs from bare run")
			}
			if rec.Len() == 0 {
				t.Fatal("observed run recorded nothing; comparison vacuous")
			}
			var buf bytes.Buffer
			if err := exp.Render(&buf); err != nil || !bytes.Contains(buf.Bytes(), []byte("micstream_jobs_done_total")) {
				t.Errorf("exporter saw no snapshots (err %v):\n%s", err, buf.String())
			}
			if len(fl.Dumps()) == 0 && fl.Pending() == 0 {
				t.Error("flight recorder observed nothing")
			}
		})
	}
}

// TestDriftAuditOnClusterRuns checks the audit extracts the expected
// sample population and that the artifact renders byte-identically
// across repeated identical runs.
func TestDriftAuditOnClusterRuns(t *testing.T) {
	for _, m := range obsMixes() {
		t.Run(m.name, func(t *testing.T) {
			rec := micstream.NewTelemetry()
			r := runMix(t, m, rec)
			report := micstream.AuditDrift(rec.Events())
			if report.Placement.Count == 0 {
				t.Error("predicted/affinity run yielded no placement samples")
			}
			if report.Service.Count == 0 {
				t.Error("no service samples")
			}
			done := 0
			for i := range r.Jobs {
				if !r.Jobs[i].Failed {
					done++
				}
			}
			if report.Placement.Count > done {
				t.Errorf("%d placement samples exceed %d completions", report.Placement.Count, done)
			}
			var hist int
			for _, n := range report.Placement.Buckets {
				hist += n
			}
			if hist != report.Placement.Count {
				t.Errorf("histogram total %d != count %d", hist, report.Placement.Count)
			}

			meta := micstream.DriftMeta{Run: "test", Seed: int64(m.cfg.Seed), Placement: "predicted", TransferScale: 1, ComputeScale: 1}
			var first bytes.Buffer
			if err := micstream.WriteDriftJSON(&first, report, meta); err != nil {
				t.Fatal(err)
			}
			rec2 := micstream.NewTelemetry()
			runMix(t, m, rec2)
			var second bytes.Buffer
			if err := micstream.WriteDriftJSON(&second, micstream.AuditDrift(rec2.Events()), meta); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("drift artifact not byte-deterministic across identical runs:\n%s\n---\n%s", first.String(), second.String())
			}
		})
	}
}
