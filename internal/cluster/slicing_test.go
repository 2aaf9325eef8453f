package cluster

import (
	"reflect"
	"strings"
	"testing"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/sched"
	"micstream/internal/schedtest"
	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

// slicedJob builds an n-task host-resident compute job, the shape the
// slicing scheduler cuts at task boundaries.
func slicedJob(id int, tenant string, arrival sim.Time, n int, flopsPerTask float64) Job {
	tasks := make([]*core.Task, n)
	for i := range tasks {
		tasks[i] = &core.Task{
			ID:         i,
			Cost:       device.KernelCost{Name: "synthetic", Flops: flopsPerTask},
			StreamHint: -1,
		}
	}
	return Job{ID: id, Tenant: tenant, Arrival: arrival, Tasks: tasks, Origin: -1}
}

// sjfDevices is the device-policy override the slicing tests use:
// FIFO would re-dispatch a re-queued remainder immediately (it keeps
// the oldest admission sequence), so slice boundaries only matter
// under a size- or share-aware device policy.
func sjfDevices() Option {
	return WithDevicePolicy(func() sched.Policy { return sched.SJF() })
}

func TestSlicingOptionValidation(t *testing.T) {
	ctx := newCtx(t, 2, 1, 1)
	if _, err := New(ctx, WithSlicing(-1)); err == nil {
		t.Error("negative slice cap accepted")
	}
	if _, err := New(ctx, WithSlicing(0)); err != nil {
		t.Errorf("cap 0 (off) rejected: %v", err)
	}
}

func TestSlicingRunRejectsUnsliceableJobs(t *testing.T) {
	ctx := newCtx(t, 2, 1, 1)
	c, err := New(ctx, WithSlicing(2))
	if err != nil {
		t.Fatal(err)
	}
	j := slicedJob(0, "t", 0, 2, 1e8)
	j.Tasks[0].DependsOn = []int{1} // forward reference
	if _, err := c.Run([]Job{j}); err == nil || !strings.Contains(err.Error(), "dependency-ordered") {
		t.Fatalf("cluster Run accepted an unsliceable job under WithSlicing: %v", err)
	}
}

// TestClusterSlicingWholeJobEquivalence asserts the compatibility
// contract at the cluster layer: a cap at least as large as every task
// list must reproduce the unsliced cluster bit for bit, stealing
// included.
func TestClusterSlicingWholeJobEquivalence(t *testing.T) {
	run := func(opts ...Option) *Result {
		cfg := strandedMix(7)
		return stealCluster(t, cfg, append([]Option{WithQueueDepth(16)}, opts...)...)
	}
	plain := run()
	wide := run(WithSlicing(64))
	if !reflect.DeepEqual(plain, wide) {
		t.Error("cap 64 (≥ every task list) diverges from the unsliced cluster")
	}
	if plain.Preempts != 0 || wide.Preempts != 0 {
		t.Errorf("whole-job dispatches counted preempts: %d/%d", plain.Preempts, wide.Preempts)
	}
}

// convoyRun is the scripted convoy the mid-job migration tests share:
// everything is pinned to device 0 (Static placement), a 6-task heavy
// job dispatches alone, and four staggered light jobs arrive inside
// its first slice. Under SJF the lights win every slice boundary, so
// the heavy remainder parks in the pending queue; the idle device 1
// first steals a light pre-dispatch, and at that light's drain instant
// migrates the heavy remainder mid-job.
func convoyRun(t *testing.T, threshold sim.Duration, rec *telemetry.Recorder) *Result {
	t.Helper()
	ctx := newCtx(t, 2, 1, 1)
	opts := []Option{
		WithPlacement(Static(0)), WithQueueDepth(8),
		WithStealing(threshold), WithSlicing(1), sjfDevices(),
	}
	if rec != nil {
		opts = append(opts, WithTelemetry(rec))
	}
	c, err := New(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// U is the measured single-task slice estimate, so arrival offsets
	// stay inside slice boundaries whatever the calibrated model says.
	u := c.Scheduler(0).Estimate(slicedJob(0, "", 0, 1, 2e9).Tasks)
	inSlice1 := sim.Time(0).Add(u / 3)
	jobs := []Job{
		slicedJob(0, "heavy", 0, 6, 2e9),
		slicedJob(1, "light", inSlice1, 1, 2.0e8),
		slicedJob(2, "light", inSlice1, 1, 2.4e8),
		slicedJob(3, "light", inSlice1, 1, 2.8e8),
		slicedJob(4, "light", inSlice1, 1, 3.2e8),
	}
	r, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMidJobStealMigratesRemainder is the tentpole's end-to-end
// scenario: a partially-run job's undispatched remainder, parked at a
// slice boundary behind lighter work, migrates to the drained device
// and completes there, with the migration history recording the cut.
func TestMidJobStealMigratesRemainder(t *testing.T) {
	r := convoyRun(t, 0, nil)
	if r.Preempts == 0 {
		t.Fatal("convoy produced no mid-job migration")
	}
	heavy := r.Jobs[0]
	if !heavy.Stolen || heavy.Device != 1 {
		t.Fatalf("heavy job = %+v, want migrated to device 1", heavy)
	}
	if len(heavy.Migrations) == 0 {
		t.Fatal("migrated job has no migration history")
	}
	m := heavy.Migrations[0]
	if m.From != 0 || m.To != 1 {
		t.Errorf("migration %+v, want 0→1", m)
	}
	if m.NextTask < 1 || m.NextTask >= 6 {
		t.Errorf("migration NextTask %d outside the mid-job range [1,6)", m.NextTask)
	}
	if heavy.Slices != 6 {
		t.Errorf("heavy job took %d slices across devices, want 6 (cap 1, 6 tasks)", heavy.Slices)
	}
	if heavy.Start.Sub(0) >= heavy.Migrations[0].At.Sub(0) {
		t.Errorf("migration at %v not after first dispatch %v", m.At, heavy.Start)
	}
	// The convoy relief: every light job finishes before the heavy job
	// it arrived behind.
	for _, o := range r.Jobs[1:] {
		if o.Done >= heavy.Done {
			t.Errorf("light job %d done %v after the heavy job's %v", o.ID, o.Done, heavy.Done)
		}
	}
	// Device accounting follows the migration: both devices ran slices
	// of the heavy job, but its outcome is attributed to the final
	// device.
	if r.Device(1).Jobs == 0 {
		t.Error("device 1 recorded no jobs despite the migration")
	}
}

// TestStealThresholdReadsRemainingBacklog is the cluster half of the
// backlog regression test: the steal threshold compares against the
// victim's *remaining* backlog. The convoy's heavy job has 2 tasks
// (2 slice-estimates) left when the drain instant fires; pre-fix the
// pending remainder still carried the whole 6-task estimate, so a
// threshold between the two would have stolen a mostly-consumed job.
func TestStealThresholdReadsRemainingBacklog(t *testing.T) {
	ctx := newCtx(t, 2, 1, 1)
	c, err := New(ctx, WithPlacement(Static(0)), WithQueueDepth(8),
		WithStealing(0), WithSlicing(1), sjfDevices())
	if err != nil {
		t.Fatal(err)
	}
	u := c.Scheduler(0).Estimate(slicedJob(0, "", 0, 1, 1e9).Tasks)
	at := func(f float64) sim.Time {
		return sim.Time(0).Add(sim.Duration(f * float64(u)))
	}
	build := func() []Job {
		return []Job{
			// Runs slices back-to-back until the lights arrive: tasks
			// 0-3 consume [0,4u); l0 wins the 4u boundary, parking a
			// 2-task remainder; l1 wins the next dispatch at l0's
			// drain, the instant the steal pass prices the remainder.
			slicedJob(0, "heavy", 0, 6, 1e9),
			slicedJob(1, "light", at(3.2), 1, 3e8),
			slicedJob(2, "light", at(3.9), 1, 2e8),
		}
	}
	run := func(threshold sim.Duration) *Result {
		ctx := newCtx(t, 2, 1, 1)
		c, err := New(ctx, WithPlacement(Static(0)), WithQueueDepth(8),
			WithStealing(threshold), WithSlicing(1), sjfDevices())
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run(build())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Control: with a zero threshold the 2-task remainder is worth
	// stealing at the drain instant.
	control := run(0)
	if control.Preempts == 0 {
		t.Fatal("control run produced no migration; the scripted drain instant no longer fires")
	}
	// A threshold of 3 slice-estimates sits between the true remaining
	// backlog (2u) and the pre-fix whole-job estimate (6u): the fixed
	// accounting must leave the nearly-done job home.
	fixed := run(3 * u)
	if fixed.Preempts != 0 || fixed.Steals != 0 {
		t.Fatalf("threshold 3u still moved work (steals %d, preempts %d): backlog counts consumed slices",
			fixed.Steals, fixed.Preempts)
	}
	if fixed.Jobs[0].Device != 0 || fixed.Jobs[0].Stolen {
		t.Errorf("heavy job left its device despite the gated threshold: %+v", fixed.Jobs[0])
	}
}

// TestSlicingTelemetryEvents checks the observability half of the
// slice protocol on the convoy: every stream grant after a job's first
// emits a Slice event, every mid-job migration a Preempt event, and
// the counts reconcile with the Result's aggregates.
func TestSlicingTelemetryEvents(t *testing.T) {
	rec := telemetry.NewRecorder()
	r := convoyRun(t, 0, rec)
	if r.Preempts == 0 {
		t.Fatal("convoy produced no mid-job migration")
	}
	if got := rec.Count(telemetry.Preempt); got != r.Preempts {
		t.Errorf("preempt events: got %d, want %d", got, r.Preempts)
	}
	if got := rec.Count(telemetry.Steal); got != r.Steals {
		t.Errorf("steal events: got %d, want %d", got, r.Steals)
	}
	var slices int
	for _, o := range r.Jobs {
		slices += o.Slices
	}
	if got := rec.Count(telemetry.Dispatch) + rec.Count(telemetry.Slice); got != slices {
		t.Errorf("dispatch+slice events: got %d, want %d (the jobs' summed slice counts)", got, slices)
	}
	if rec.Count(telemetry.Slice) == 0 {
		t.Error("no Slice events despite cap-1 slicing")
	}
	for _, e := range rec.Events() {
		if e.Kind != telemetry.Preempt {
			continue
		}
		if e.Device == e.From || e.Device < 0 || e.From < 0 {
			t.Errorf("preempt event has thief %d victim %d", e.Device, e.From)
		}
		if e.Dur <= 0 {
			t.Errorf("preempt event has non-positive predicted gain %v", e.Dur)
		}
		if len(r.Jobs[e.Job].Migrations) == 0 {
			t.Errorf("preempt event for job %d but its outcome has no migrations", e.Job)
		}
	}
}

// TestSlicingPropertyInvariants runs the scenario generator under
// slicing + stealing and asserts the cross-cutting invariants through
// the shared harness, plus the migration-history consistency rules.
func TestSlicingPropertyInvariants(t *testing.T) {
	const jobs = 48
	run := func(seed uint64) *Result {
		ctx := newCtx(t, 2, 2, 2)
		cfg := imbalanced(seed)
		cfg.TilesPerJob = 6
		built, err := BuildScenario(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(ctx, WithPlacement(Predicted()), WithQueueDepth(16),
			WithStealing(0), WithSlicing(2), sjfDevices())
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run(built)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	schedtest.BitIdentical(t, "slicing+stealing", func(seed uint64) any {
		return run(seed)
	}, 99, 100)

	preempts := 0
	for _, seed := range []uint64{5, 11, 23, 42} {
		r := run(seed)
		schedtest.UniqueCompletion(t, "slicing", clusterSpans(r), jobs, clusterMarkNames)
		preempts += r.Preempts
		migrations := 0
		for _, o := range r.Jobs {
			migrations += len(o.Migrations)
			if o.Slices < 1 {
				t.Fatalf("job %d completed with %d slices", o.ID, o.Slices)
			}
			if o.Slices < len(o.Migrations)+1 {
				t.Fatalf("job %d: %d slices across %d migrations", o.ID, o.Slices, len(o.Migrations))
			}
			if len(o.Migrations) > 0 && !o.Stolen {
				t.Fatalf("job %d migrated but is not marked stolen", o.ID)
			}
			prev := 0
			prevAt := o.Start
			for _, m := range o.Migrations {
				if m.From == m.To {
					t.Fatalf("job %d migration %+v moves nowhere", o.ID, m)
				}
				if m.NextTask <= prev {
					t.Fatalf("job %d migration NextTask %d did not advance past %d — no slice ran between migrations",
						o.ID, m.NextTask, prev)
				}
				if m.At < prevAt {
					t.Fatalf("job %d migrations go back in time (%v < %v)", o.ID, m.At, prevAt)
				}
				prev, prevAt = m.NextTask, m.At
			}
			if n := len(o.Migrations); n > 0 && o.Migrations[n-1].To != o.Device {
				// A remainder can still be stolen pre-dispatch after a
				// migration, so the final device may differ — but then
				// the job must be marked stolen from that later victim.
				if o.StolenFrom == o.Migrations[n-1].To {
					continue
				}
				if !o.Stolen {
					t.Fatalf("job %d ended on device %d, last migration went to %d, and no steal explains it",
						o.ID, o.Device, o.Migrations[n-1].To)
				}
			}
		}
		if migrations != r.Preempts {
			t.Fatalf("seed %d: outcomes record %d migrations, Result.Preempts says %d", seed, migrations, r.Preempts)
		}
	}
	if preempts == 0 {
		t.Error("no seed produced a mid-job migration; the mix no longer exercises slicing+stealing")
	}
}

// returnTripRun scripts a job that migrates away from a device and
// back: the convoy moves the 8-task heavy job's remainder from device
// 0 to device 1, then two lights pinned to device 1 arrive inside its
// second slice there. SJF parks the remainder behind them at the next
// boundary, and at the first light's drain — the second one running,
// device 0 idle since the convoy — the remainder migrates back to
// device 0, where it completes. onOutcome sees every streamed outcome.
func returnTripRun(t *testing.T, rec *telemetry.Recorder, onOutcome func(Outcome)) *Result {
	t.Helper()
	ctx := newCtx(t, 2, 1, 1)
	opts := []Option{
		WithPlacement(placeByID{m: map[int]int{5: 1, 6: 1}}), WithQueueDepth(8),
		WithStealing(0), WithSlicing(1), sjfDevices(),
	}
	if rec != nil {
		opts = append(opts, WithTelemetry(rec))
	}
	c, err := New(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	u := c.Scheduler(0).Estimate(slicedJob(0, "", 0, 1, 2e9).Tasks)
	inSlice1 := sim.Time(0).Add(u / 3)
	late := sim.Time(0).Add(u * 5 / 2)
	jobs := []Job{
		slicedJob(0, "heavy", 0, 8, 2e9),
		slicedJob(1, "light", inSlice1, 1, 2.0e8),
		slicedJob(2, "light", inSlice1, 1, 2.4e8),
		slicedJob(3, "light", inSlice1, 1, 2.8e8),
		slicedJob(4, "light", inSlice1, 1, 3.2e8),
		slicedJob(5, "late", late, 1, 2.0e8),
		slicedJob(6, "late", late, 1, 2.4e8),
	}
	sess, err := c.NewSession(onOutcome)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	return sess.Result()
}

// TestReturnTripCompletesOnce moves one job A→B→A: the cluster
// submits it to device 0 twice under the same key, withdrawing it in
// between. It must complete exactly once — one streamed outcome, one
// Complete and one Drain event — on device 0, and the run must repeat
// bit for bit: a repeat without a sink keeps exactly the outcomes this
// run streamed.
func TestReturnTripCompletesOnce(t *testing.T) {
	rec := telemetry.NewRecorder()
	streamed := map[int]int{}
	var outs []Outcome
	r := returnTripRun(t, rec, func(o Outcome) {
		streamed[o.Index]++
		outs = append(outs, o)
	})
	// The sink took every outcome; place them by index, as a session
	// without one keeps them.
	r.Jobs = make([]Outcome, len(outs))
	for _, o := range outs {
		r.Jobs[o.Index] = o
	}
	heavy := r.Jobs[0]
	want := []Migration{{From: 0, To: 1}, {From: 1, To: 0}}
	if len(heavy.Migrations) != len(want) {
		t.Fatalf("heavy job migrations %+v, want 0→1 then 1→0", heavy.Migrations)
	}
	for i, m := range heavy.Migrations {
		if m.From != want[i].From || m.To != want[i].To {
			t.Fatalf("heavy job migrations %+v, want 0→1 then 1→0", heavy.Migrations)
		}
	}
	if heavy.Failed || heavy.Device != 0 || heavy.Slices != 8 || heavy.Start != 0 {
		t.Fatalf("heavy job = %+v, want completed on device 0 after 8 slices, started at 0", heavy)
	}
	for i := range r.Jobs {
		if streamed[i] != 1 {
			t.Fatalf("job %d streamed %d times, want once", i, streamed[i])
		}
	}
	var completes, drains int
	for _, e := range rec.Events() {
		if e.Job != 0 {
			continue
		}
		switch e.Kind {
		case telemetry.Complete:
			completes++
			if e.Device != 0 {
				t.Errorf("heavy job completed on device %d", e.Device)
			}
		case telemetry.Drain:
			drains++
		}
	}
	if completes != 1 || drains != 1 {
		t.Fatalf("heavy job logged %d Complete and %d Drain events, want 1 each", completes, drains)
	}
	schedtest.UniqueCompletion(t, "return trip", clusterSpans(r), len(r.Jobs), clusterMarkNames)
	if again := returnTripRun(t, nil, nil); !reflect.DeepEqual(r, again) {
		t.Error("return-trip run is not bit-identical across repeats")
	}
}
