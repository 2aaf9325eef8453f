package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"micstream/internal/sim"
	"micstream/internal/stats"
	"micstream/internal/telemetry"
)

// telemetryMixes are the PR 3–5 experiment shapes the determinism
// contract is checked against: plain predicted placement, the
// stealing-heavy stranded mix, and the residency mix with shared
// datasets, writes and a tight cache.
func telemetryMixes() map[string]struct {
	cfg  ScenarioConfig
	opts func() []Option
} {
	return map[string]struct {
		cfg  ScenarioConfig
		opts func() []Option
	}{
		"placement": {
			cfg: ScenarioConfig{Seed: 7, SizeSpread: 4, AffinityFraction: 0.5, Origins: []int{0, 1}},
			opts: func() []Option {
				return []Option{WithPlacement(Predicted())}
			},
		},
		"stealing": {
			cfg: strandedMix(3),
			opts: func() []Option {
				return []Option{WithPlacement(Predicted()), WithStealing(0), WithQueueDepth(16)}
			},
		},
		"residency": {
			cfg: ScenarioConfig{
				Seed:             5,
				Arrival:          "bursty",
				SizeSpread:       4,
				AffinityFraction: 1,
				Origins:          []int{0},
				Datasets:         4,
				WriteFraction:    0.25,
				XferBytes:        8 << 20,
				WindowNs:         10_000_000,
			},
			opts: func() []Option {
				return []Option{WithPlacement(Affinity()), WithResidency(12 << 20)}
			},
		},
	}
}

// runMix runs one mix on a fresh platform, optionally telemetered.
func runMix(t *testing.T, cfg ScenarioConfig, opts []Option, rec *telemetry.Recorder) (*Result, *Cluster) {
	t.Helper()
	ctx := newCtx(t, 2, 2, 2)
	jobs, err := BuildScenario(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		opts = append(opts, WithTelemetry(rec))
	}
	c, err := New(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return r, c
}

// TestTelemetryNeverPerturbsResults is the tentpole's core contract:
// with telemetry enabled, every cluster Result on the PR 3–5
// experiment mixes is bit-identical to the untraced run — recording
// observes decisions, it never feeds back into them.
func TestTelemetryNeverPerturbsResults(t *testing.T) {
	for name, mix := range telemetryMixes() {
		t.Run(name, func(t *testing.T) {
			plain, _ := runMix(t, mix.cfg, mix.opts(), nil)
			traced, _ := runMix(t, mix.cfg, mix.opts(), telemetry.NewRecorder())
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("traced Result differs from untraced on mix %q", name)
			}
		})
	}
}

// TestTelemetryDeterministicAcrossRepeats checks the event log and the
// Chrome export are byte-identical across repeated fresh runs of the
// same mix — the DESIGN.md §6 determinism contract extended to the
// observability layer.
func TestTelemetryDeterministicAcrossRepeats(t *testing.T) {
	for name, mix := range telemetryMixes() {
		t.Run(name, func(t *testing.T) {
			recA, recB := telemetry.NewRecorder(), telemetry.NewRecorder()
			_, ca := runMix(t, mix.cfg, mix.opts(), recA)
			_, cb := runMix(t, mix.cfg, mix.opts(), recB)
			if !reflect.DeepEqual(recA.Events(), recB.Events()) {
				t.Fatal("event logs differ across identical fresh runs")
			}
			if !reflect.DeepEqual(recA.Metrics(), recB.Metrics()) {
				t.Fatal("metrics snapshots differ across identical fresh runs")
			}
			var a, b bytes.Buffer
			if err := ca.Trace(&a); err != nil {
				t.Fatal(err)
			}
			if err := cb.Trace(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("Chrome exports differ across identical fresh runs")
			}
		})
	}
}

// TestTelemetryLifecycleEvents checks the event log carries a complete
// job lifecycle: one admit, place, dispatch, complete and drain per
// job, with the cluster-assigned ID threading the layers together.
func TestTelemetryLifecycleEvents(t *testing.T) {
	mix := telemetryMixes()["placement"]
	rec := telemetry.NewRecorder()
	r, _ := runMix(t, mix.cfg, mix.opts(), rec)
	n := len(r.Jobs)
	for _, want := range []struct {
		kind telemetry.Kind
		n    int
	}{
		{telemetry.Admit, n}, {telemetry.Place, n}, {telemetry.Dispatch, n},
		{telemetry.Complete, n}, {telemetry.Drain, n}, {telemetry.Fail, 0},
	} {
		if got := rec.Count(want.kind); got != want.n {
			t.Errorf("%v events: got %d, want %d", want.kind, got, want.n)
		}
	}
	// Place events from the predicted policy must expose per-device
	// scores, and the picked device must hold the minimum score.
	for _, e := range rec.Events() {
		if e.Kind != telemetry.Place {
			continue
		}
		if len(e.Scores) == 0 {
			t.Fatalf("place event for job %d has no scores under predicted placement", e.ID)
		}
		best := e.Scores[0]
		for _, s := range e.Scores[1:] {
			if s.Predicted < best.Predicted {
				best = s
			}
		}
		if best.Device != e.Device {
			t.Errorf("place event for job %d picked device %d but device %d scored best (%v)",
				e.ID, e.Device, best.Device, best.Predicted)
		}
	}
	// Every event stamped inside the run must be chronologically
	// ordered per Seq ties and non-negative.
	events := rec.Events()
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
		if e.At < 0 {
			t.Fatalf("event %d has negative timestamp %v", i, e.At)
		}
	}
}

// TestTelemetryStealAndResidencyEvents checks the decision kinds that
// only fire on the stealing and residency mixes really appear, and
// agree with the Result's aggregate counters.
func TestTelemetryStealAndResidencyEvents(t *testing.T) {
	t.Run("stealing", func(t *testing.T) {
		mix := telemetryMixes()["stealing"]
		rec := telemetry.NewRecorder()
		r, _ := runMix(t, mix.cfg, mix.opts(), rec)
		if r.Steals == 0 {
			t.Fatal("stranded mix produced no steals; the mix no longer exercises stealing")
		}
		if got := rec.Count(telemetry.Steal); got != r.Steals {
			t.Errorf("steal events: got %d, want %d", got, r.Steals)
		}
		for _, e := range rec.Events() {
			if e.Kind != telemetry.Steal {
				continue
			}
			if e.Device == e.From || e.Device < 0 || e.From < 0 {
				t.Errorf("steal event has thief %d victim %d", e.Device, e.From)
			}
			if e.Dur <= 0 {
				t.Errorf("steal event has non-positive predicted gain %v", e.Dur)
			}
			if !r.Jobs[e.Job].Stolen || r.Jobs[e.Job].StolenFrom != e.From {
				t.Errorf("steal event job %d disagrees with outcome %+v", e.Job, r.Jobs[e.Job])
			}
		}
	})
	t.Run("residency", func(t *testing.T) {
		mix := telemetryMixes()["residency"]
		rec := telemetry.NewRecorder()
		r, _ := runMix(t, mix.cfg, mix.opts(), rec)
		if r.HitBytes == 0 || r.EvictedBytes == 0 {
			t.Fatalf("residency mix produced no hits (%d) or evictions (%d); the mix no longer exercises the cache",
				r.HitBytes, r.EvictedBytes)
		}
		var hit, staged, evicted int64
		for _, e := range rec.Events() {
			switch e.Kind {
			case telemetry.Hit:
				hit += e.Bytes
			case telemetry.Stage:
				staged += e.Bytes
			case telemetry.Evict:
				evicted += e.Bytes
			}
		}
		if hit != r.HitBytes {
			t.Errorf("hit events total %d bytes, Result says %d", hit, r.HitBytes)
		}
		if evicted != r.EvictedBytes {
			t.Errorf("evict events total %d bytes, Result says %d", evicted, r.EvictedBytes)
		}
		// Stage events log the charged volume of jobs that completed
		// *and* of withdrawn commitments, so they bound the Result's
		// final accounting from above.
		if staged < r.StagedBytes {
			t.Errorf("stage events total %d bytes, below Result's %d", staged, r.StagedBytes)
		}
	})
}

// TestTelemetryMetricsSnapshots checks each drain instant captures a
// snapshot whose final state agrees with the Result.
func TestTelemetryMetricsSnapshots(t *testing.T) {
	mix := telemetryMixes()["placement"]
	rec := telemetry.NewRecorder()
	r, c := runMix(t, mix.cfg, mix.opts(), rec)
	snaps := c.Metrics()
	if len(snaps) != len(r.Jobs) {
		t.Fatalf("got %d snapshots, want one per completion (%d)", len(snaps), len(r.Jobs))
	}
	prevAt := snaps[0].At
	prevDone := 0
	for i, s := range snaps {
		if s.At < prevAt {
			t.Fatalf("snapshot %d goes back in time (%v < %v)", i, s.At, prevAt)
		}
		if s.Done < prevDone {
			t.Fatalf("snapshot %d done count regressed (%d < %d)", i, s.Done, prevDone)
		}
		prevAt, prevDone = s.At, s.Done
		if len(s.Devices) != c.NumDevices() {
			t.Fatalf("snapshot %d lists %d devices, want %d", i, len(s.Devices), c.NumDevices())
		}
		if s.Fairness < 0 || s.Fairness > 1+1e-9 {
			t.Fatalf("snapshot %d has Jain index %g outside [0,1]", i, s.Fairness)
		}
	}
	last := snaps[len(snaps)-1]
	if last.Done != len(r.Jobs) {
		t.Errorf("final snapshot done %d, want %d", last.Done, len(r.Jobs))
	}
	if last.ClusterQueue != 0 {
		t.Errorf("final snapshot still queues %d jobs", last.ClusterQueue)
	}
	var tenantDone int
	for _, tm := range last.Tenants {
		tenantDone += tm.Done
		if tm.Done > 0 && tm.P95 <= 0 {
			t.Errorf("tenant %s completed %d jobs but has p95 %v", tm.Tenant, tm.Done, tm.P95)
		}
	}
	if tenantDone != len(r.Jobs) {
		t.Errorf("tenant done counts sum to %d, want %d", tenantDone, len(r.Jobs))
	}
	// Per-device utilization in the final snapshot must agree with the
	// Result's kernel utilization direction: devices that ran jobs are
	// non-idle.
	for _, dm := range last.Devices {
		if ds := r.Device(dm.Device); ds.Jobs > 0 && dm.KernelBusy <= 0 {
			t.Errorf("device %d ran %d jobs but snapshot shows no kernel busy time", dm.Device, ds.Jobs)
		}
	}
}

// Without a residency cache nothing is served resident: the last
// snapshot's miss bytes are the run's whole staging demand, steal
// re-bindings un-charged, and its hit bytes are 0.
func TestCachelessSnapshotMissesWholeDemand(t *testing.T) {
	mix := telemetryMixes()["stealing"]
	r, c := runMix(t, mix.cfg, mix.opts(), telemetry.NewRecorder())
	if r.StagedJobs == 0 || r.Steals == 0 {
		t.Fatalf("mix staged %d jobs and stole %d; the check needs both", r.StagedJobs, r.Steals)
	}
	snaps := c.Metrics()
	last := snaps[len(snaps)-1]
	if last.HitBytes != 0 || last.MissBytes != r.MissBytes {
		t.Fatalf("last snapshot hit/miss = %d/%d bytes, want 0/%d", last.HitBytes, last.MissBytes, r.MissBytes)
	}
}

// TestTelemetryRecorderSurvivesRuns checks the recorder accumulates
// across Run calls (one continuous timeline) while Results stay
// per-run.
func TestTelemetryRecorderSurvivesRuns(t *testing.T) {
	ctx := newCtx(t, 2, 2, 1)
	rec := telemetry.NewRecorder()
	c, err := New(ctx, WithTelemetry(rec))
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, syntheticJob(i, "t", 0, 5e8))
	}
	if _, err := c.Run(jobs); err != nil {
		t.Fatal(err)
	}
	n1 := rec.Len()
	if _, err := c.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if rec.Len() <= n1 {
		t.Fatalf("second run did not append events (%d → %d)", n1, rec.Len())
	}
	if got := rec.Count(telemetry.Drain); got != 12 {
		t.Errorf("drain events across two runs: got %d, want 12", got)
	}
}

// TestTelemetryTenantMetricsMatchBatchFormula pins the batch formula
// as the reference for the drain-instant tenant metrics: every
// snapshot's per-tenant Done, MeanLatency and P95 equal stats.Mean and
// stats.Percentiles recomputed from the latencies that tenant had
// completed by then, in drain order, and tenants are listed sorted.
// Covered on a batch Run and on a multi-epoch Session.
func TestTelemetryTenantMetricsMatchBatchFormula(t *testing.T) {
	cfg := ScenarioConfig{Jobs: 400, Seed: 9, Tenants: 5, Arrival: "bursty", WindowNs: 40_000_000,
		AffinityFraction: 0.5, Origins: []int{0, 1}}
	opts := func(rec *telemetry.Recorder) []Option {
		return []Option{WithPlacement(Predicted()), WithStealing(0), WithSlicing(1), WithTelemetry(rec)}
	}
	check := func(t *testing.T, rec *telemetry.Recorder, outcomes []Outcome) {
		t.Helper()
		snaps := rec.Metrics()
		if len(snaps) != len(outcomes) {
			t.Fatalf("got %d snapshots, want one per completion (%d)", len(snaps), len(outcomes))
		}
		lats := map[string][]float64{}
		k := 0
		for _, e := range rec.Events() {
			if e.Kind != telemetry.Drain {
				continue
			}
			o := outcomes[e.Job]
			lats[o.Tenant] = append(lats[o.Tenant], float64(o.Latency()))
			s := snaps[k]
			k++
			if s.At != e.At {
				t.Fatalf("snapshot %d at %v, its drain at %v", k-1, s.At, e.At)
			}
			if len(s.Tenants) != len(lats) {
				t.Fatalf("snapshot %d lists %d tenants, %d have completed", k-1, len(s.Tenants), len(lats))
			}
			for i, tm := range s.Tenants {
				if i > 0 && s.Tenants[i-1].Tenant >= tm.Tenant {
					t.Fatalf("snapshot %d tenants out of order: %q before %q", k-1, s.Tenants[i-1].Tenant, tm.Tenant)
				}
				xs := lats[tm.Tenant]
				_, p95, _ := stats.Percentiles(xs)
				if tm.Done != len(xs) || tm.MeanLatency != sim.Duration(stats.Mean(xs)) || tm.P95 != sim.Duration(p95) {
					t.Fatalf("snapshot %d tenant %s: done/mean/p95 = %d/%v/%v, batch formula gives %d/%v/%v",
						k-1, tm.Tenant, tm.Done, tm.MeanLatency, tm.P95, len(xs), sim.Duration(stats.Mean(xs)), sim.Duration(p95))
				}
			}
		}
		if k != len(snaps) {
			t.Fatalf("%d drain events for %d snapshots", k, len(snaps))
		}
		if len(lats) < 3 {
			t.Fatalf("only %d tenants completed; the mix must cover at least 3", len(lats))
		}
	}
	t.Run("run", func(t *testing.T) {
		ctx := newCtx(t, 2, 2, 2)
		jobs, err := BuildScenario(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := telemetry.NewRecorder()
		c, err := New(ctx, opts(rec)...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		check(t, rec, r.Jobs)
	})
	t.Run("session", func(t *testing.T) {
		ctx := newCtx(t, 2, 2, 2)
		jobs, err := BuildScenario(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := telemetry.NewRecorder()
		c, err := New(ctx, opts(rec)...)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := c.NewSession(nil)
		if err != nil {
			t.Fatal(err)
		}
		for start := 0; start < len(jobs); start += 100 {
			if _, err := sess.Submit(jobs[start : start+100]); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		if sess.Epochs() != 4 {
			t.Fatalf("ran %d epochs, want 4", sess.Epochs())
		}
		check(t, rec, sess.Result().Jobs)
	})
}

// TestTelemetrySessionAfterRunAnchorsElapsed opens a session on a
// cluster that has already run a batch: the session's drain-instant
// snapshots measure Elapsed (and with it utilization and throughput)
// from the session's own start, not from the earlier run's.
func TestTelemetrySessionAfterRunAnchorsElapsed(t *testing.T) {
	rec := telemetry.NewRecorder()
	c, err := New(newCtx(t, 2, 2, 2), WithTelemetry(rec))
	if err != nil {
		t.Fatal(err)
	}
	jobs := sessionWorkload(8)
	if _, err := c.Run(jobs); err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	start := sess.Now()
	if start <= 0 {
		t.Fatalf("session opened at %v; the batch run should have advanced the clock", start)
	}
	n0 := len(rec.Metrics())
	if _, err := sess.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	snaps := rec.Metrics()[n0:]
	if len(snaps) == 0 {
		t.Fatal("session recorded no metrics snapshots")
	}
	for i, s := range snaps {
		if want := s.At.Sub(start); s.Elapsed != want {
			t.Fatalf("session snapshot %d at %v: Elapsed %v, want %v", i, s.At, s.Elapsed, want)
		}
	}
}
