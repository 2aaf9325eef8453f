package micstream

import "testing"

// TestEventCountsPinned pins exact event counts on fixed scenarios.
// Everything below admission
// runs in virtual time, so the number of engine events a scenario
// takes and the number of telemetry events it records are the same on
// every run and every host: a change that adds per-job work to the
// dispatch path shows here as a different integer, where a wall-clock
// reading would hide it in noise. Wall time is measured by the paired
// runs of bench/ledger, not here.
func TestEventCountsPinned(t *testing.T) {
	cases := []struct {
		name string
		// run runs the scenario on a fresh cluster, traced when tel is
		// non-nil, and returns the engine steps taken and the job count.
		run    func(t *testing.T, tel *Telemetry) (steps uint64, jobs int)
		steps  uint64 // engine events, traced or not
		events int    // telemetry events of the traced run
	}{
		{"cluster-batch", clusterAdmissionRun, 673, 481},
		{"session-epochs", sessionIngestRun, 128, 320},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			steps, jobs := tc.run(t, nil)
			tel := NewTelemetry()
			traced, _ := tc.run(t, tel)
			if steps != tc.steps {
				t.Errorf("untraced run took %d engine steps (%.3f/job), want %d (%.3f/job)",
					steps, float64(steps)/float64(jobs), tc.steps, float64(tc.steps)/float64(jobs))
			}
			if traced != steps {
				t.Errorf("traced run took %d engine steps, untraced %d: recording must not schedule events", traced, steps)
			}
			if n := tel.Len(); n != tc.events {
				t.Errorf("traced run recorded %d telemetry events (%.3f/job), want %d (%.3f/job)",
					n, float64(n)/float64(jobs), tc.events, float64(tc.events)/float64(jobs))
			}
		})
	}
}

// clusterAdmissionRun is BenchmarkClusterAdmission's batch Cluster.Run:
// 2×2×2 devices, queue depth 8, 96 bursty jobs, seed 7.
func clusterAdmissionRun(t *testing.T, tel *Telemetry) (uint64, int) {
	opts := []ClusterOption{
		WithClusterDevices(2),
		WithClusterPartitions(2),
		WithClusterStreams(2),
		WithClusterQueueDepth(8),
	}
	if tel != nil {
		opts = append(opts, WithClusterTelemetry(tel))
	}
	c, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := BuildClusterScenario(c, ClusterScenarioConfig{
		Jobs: 96, Seed: 7, Arrival: "bursty", AffinityFraction: 0.5, Origins: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := ClusterPlatform(c).Context().Engine()
	r, err := c.Run(scenario)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed > 0 {
		t.Fatalf("%d of %d jobs failed", r.Failed, len(r.Jobs))
	}
	return eng.Steps(), len(r.Jobs)
}

// sessionIngestRun admits one job per epoch through a ClusterSession,
// the way a served cluster ingests under light load: micserve's
// default cluster (2 devices × 4 partitions × 2 streams, predicted
// placement) and its job shape, where every fourth job is pinned to an
// origin device with 4 MiB to stage when it runs elsewhere.
func sessionIngestRun(t *testing.T, tel *Telemetry) (uint64, int) {
	const jobs = 64
	opts := []ClusterOption{
		WithClusterDevices(2),
		WithClusterPartitions(4),
		WithClusterStreams(2),
		WithPlacement(PredictedPlacement()),
	}
	if tel != nil {
		opts = append(opts, WithClusterTelemetry(tel))
	}
	c, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	sess, err := NewClusterSession(c, func(o ClusterOutcome) {
		if o.Failed {
			t.Errorf("job %d failed", o.ID)
		}
		done++
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	eng := ClusterPlatform(c).Context().Engine()
	batch := make([]ClusterJob, 1)
	for id := 0; id < jobs; id++ {
		batch[0] = ClusterJob{
			ID:     id,
			Tenant: "t" + string(rune('0'+id%4)),
			Tasks: []*Task{{
				Cost:       KernelCost{Name: "ingest", Flops: 2e8 + 1e8*float64(id%5)},
				StreamHint: -1,
			}},
			Origin: -1,
		}
		if id%4 == 0 {
			batch[0].Origin = id / 4 % 2
			batch[0].StagingBytes = 4 << 20
		}
		if _, err := sess.Submit(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if done != jobs {
		t.Fatalf("%d outcomes for %d jobs", done, jobs)
	}
	return eng.Steps(), jobs
}
