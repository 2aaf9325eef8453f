package cluster

import (
	"testing"

	"micstream/internal/schedtest"
	"micstream/internal/sim"
)

// stealCluster builds a 2×2×2 cluster with stealing enabled.
func stealCluster(t *testing.T, cfg ScenarioConfig, opts ...Option) *Result {
	t.Helper()
	ctx := newCtx(t, 2, 2, 2)
	jobs, err := BuildScenario(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, append([]Option{WithPlacement(Predicted()), WithStealing(0)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// strandedMix is the Fig. 11-shaped scenario where eager commitment
// visibly strands work: every job's inputs live on device 0, staging
// is expensive, and a deep committed queue freezes placement mistakes
// until drain-instant re-binding undoes them.
func strandedMix(seed uint64) ScenarioConfig {
	return ScenarioConfig{
		Seed:             seed,
		Arrival:          "bursty",
		SizeSpread:       4,
		AffinityFraction: 1,
		Origins:          []int{0},
		XferBytes:        8 << 20,
		WindowNs:         10_000_000,
	}
}

func TestStealRechargesStagingOnNewTarget(t *testing.T) {
	// Three device-0-resident jobs pinned to device 0, one stream per
	// device: j0 dispatches, j1 and j2 commit. At j0's drain the idle
	// device 1 steals j2 — its predicted win (skipping j1's long wait)
	// beats the staging re-charge — and must pay the staged transfer
	// on device 1's link. j1's gain is negative (staging with nothing
	// to skip), so it must stay home unstaged.
	ctx := newCtx(t, 2, 1, 1)
	mk := func(id int, flops float64) Job {
		j := syntheticJob(id, "t", 0, flops)
		j.Origin = 0
		j.StagingBytes = 1 << 20
		return j
	}
	c, err := New(ctx, WithPlacement(Static(0)), WithStealing(0), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run([]Job{mk(0, 5e8), mk(1, 8e9), mk(2, 5e8)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Steals != 1 {
		t.Fatalf("got %d steals, want 1", r.Steals)
	}
	j1, j2 := r.Jobs[1], r.Jobs[2]
	if j1.Stolen || j1.Device != 0 || j1.Staged {
		t.Errorf("j1 = %+v, want unstolen and unstaged on device 0", j1)
	}
	if !j2.Stolen || j2.StolenFrom != 0 || j2.Device != 1 {
		t.Fatalf("j2 = %+v, want stolen 0→1", j2)
	}
	if !j2.Staged || j2.StagedBytes != int64(float64(1<<20)*DefaultStagingFactor) {
		t.Errorf("stolen j2 staged=%v bytes=%d, want the re-charged staging transfer", j2.Staged, j2.StagedBytes)
	}
	if j2.Origin != 0 {
		t.Errorf("j2 origin = %d, want 0", j2.Origin)
	}
}

func TestStealUnchargesStagingOnOriginReturn(t *testing.T) {
	// The inverse: device-1-resident jobs pinned off-origin to device 0
	// carry a staging charge; stealing one home to its drained origin
	// must drop the charge (the staged transfer never started).
	ctx := newCtx(t, 2, 1, 1)
	mk := func(id int, flops float64) Job {
		j := syntheticJob(id, "t", 0, flops)
		j.Origin = 1
		j.StagingBytes = 1 << 20
		return j
	}
	c, err := New(ctx, WithPlacement(Static(0)), WithStealing(0), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run([]Job{mk(0, 5e8), mk(1, 8e9), mk(2, 5e8)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Steals < 1 {
		t.Fatal("expected at least one steal back to the origin")
	}
	stolen := 0
	for _, o := range r.Jobs {
		if !o.Stolen {
			continue
		}
		stolen++
		if o.Device != 1 || o.StolenFrom != 0 {
			t.Errorf("job %d stolen %d→%d, want 0→1 (home)", o.ID, o.StolenFrom, o.Device)
		}
		if o.Staged {
			t.Errorf("job %d stolen home still carries a staging charge", o.ID)
		}
	}
	if stolen == 0 {
		t.Fatal("no stolen outcome recorded despite Steals > 0")
	}
}

func TestStealingThresholdGates(t *testing.T) {
	// An absurdly high threshold must disable every steal; the runs
	// must then match plain predicted placement bit for bit.
	cfg := strandedMix(2016)
	low := stealCluster(t, cfg, WithQueueDepth(16))
	high := stealCluster(t, cfg, WithQueueDepth(16), WithStealing(sim.Duration(1e15)))
	ctx := newCtx(t, 2, 2, 2)
	jobs, err := BuildScenario(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, WithPlacement(Predicted()), WithQueueDepth(16))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if low.Steals == 0 {
		t.Error("zero threshold should steal on the stranded mix")
	}
	if high.Steals != 0 {
		t.Errorf("threshold 1e15ns still stole %d jobs", high.Steals)
	}
	if high.Makespan != plain.Makespan {
		t.Errorf("gated stealing makespan %v != plain predicted %v", high.Makespan, plain.Makespan)
	}
	if _, err := New(ctx, WithStealing(-1)); err == nil {
		t.Error("negative steal threshold should be rejected")
	}
}

func TestStealingNoJobLostOrDuplicated(t *testing.T) {
	for _, cfg := range []ScenarioConfig{imbalanced(42), strandedMix(42)} {
		cfg.Jobs = 60
		r := stealCluster(t, cfg, WithQueueDepth(16))
		seen := map[int]bool{}
		for _, o := range r.Jobs {
			if seen[o.Index] {
				t.Fatalf("job index %d appears twice", o.Index)
			}
			seen[o.Index] = true
			if o.Failed {
				t.Fatalf("job %d failed in a healthy run", o.ID)
			}
			if o.Done < o.Start || o.Start < o.Placed || o.Placed < o.Arrival {
				t.Fatalf("job %d has inverted lifecycle %v/%v/%v/%v",
					o.ID, o.Arrival, o.Placed, o.Start, o.Done)
			}
			if o.Stolen && o.StolenFrom == o.Device {
				t.Fatalf("job %d stolen from its own final device %d", o.ID, o.Device)
			}
			if !o.Stolen && o.StolenFrom != -1 {
				t.Fatalf("unstolen job %d has StolenFrom %d", o.ID, o.StolenFrom)
			}
		}
		if len(seen) != 60 {
			t.Fatalf("%d unique jobs completed, want 60", len(seen))
		}
	}
}

func TestStealingWorkConserving(t *testing.T) {
	for _, seed := range []uint64{5, 11, 23} {
		cfg := imbalanced(seed)
		cfg.Jobs = 64
		r := stealCluster(t, cfg)
		schedtest.WorkConserving(t, "predicted+steal", clusterSpans(r), []int{0, 1, 2, 3, 4, 5, 6, 7})
	}
}

// TestStealingNeverLosesOnImbalancedMixes asserts the steal decision's
// safety contract on the placement study's imbalanced mixes: enabling
// stealing never worsens the makespan predicted-only placement
// achieves, across mixes and seeds.
func TestStealingNeverLosesOnImbalancedMixes(t *testing.T) {
	mixes := []struct {
		name             string
		spread, affinity float64
		xfer             int64
		windowNs         int64
	}{
		{"mild", 4, 0.25, 2 << 20, 15_000_000},
		{"moderate", 8, 0.5, 4 << 20, 10_000_000},
		{"severe", 8, 0.7, 8 << 20, 15_000_000},
	}
	for _, mix := range mixes {
		for _, seed := range []uint64{2016, 2017, 2018, 2019, 2020} {
			cfg := ScenarioConfig{
				Seed: seed, Arrival: "bursty", SizeSpread: mix.spread,
				AffinityFraction: mix.affinity, Origins: []int{0, 1},
				XferBytes: mix.xfer, WindowNs: mix.windowNs,
			}
			ctx := newCtx(t, 2, 2, 2)
			jobs, err := BuildScenario(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(ctx, WithPlacement(Predicted()), WithQueueDepth(8))
			if err != nil {
				t.Fatal(err)
			}
			pred, err := c.Run(jobs)
			if err != nil {
				t.Fatal(err)
			}
			st := stealCluster(t, cfg, WithQueueDepth(8))
			if st.Makespan > pred.Makespan {
				t.Errorf("%s seed %d: stealing makespan %v worse than predicted-only %v",
					mix.name, seed, st.Makespan, pred.Makespan)
			}
		}
	}
}

// TestStealingRecoversStrandedWork asserts the headline win: on the
// stranded mix (deep committed queues, all inputs on device 0),
// drain-instant re-binding recovers a large share of the makespan
// eager commitment wastes.
func TestStealingRecoversStrandedWork(t *testing.T) {
	for _, seed := range []uint64{2016, 2017, 2018} {
		cfg := strandedMix(seed)
		ctx := newCtx(t, 2, 2, 2)
		jobs, err := BuildScenario(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(ctx, WithPlacement(Predicted()), WithQueueDepth(16))
		if err != nil {
			t.Fatal(err)
		}
		pred, err := c.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		st := stealCluster(t, cfg, WithQueueDepth(16))
		if st.Steals == 0 {
			t.Fatalf("seed %d: no steals on the stranded mix", seed)
		}
		if float64(st.Makespan) > 0.9*float64(pred.Makespan) {
			t.Errorf("seed %d: stealing makespan %v should beat predicted-only %v by ≥10%%",
				seed, st.Makespan, pred.Makespan)
		}
	}
}

func TestStealRespectsStagingFactor(t *testing.T) {
	// The steal decision must price staging at the cluster's configured
	// factor, not the model's default 2×: with an enormous factor the
	// re-charge dwarfs any queueing win, so nothing may steal and the
	// schedule must match the no-stealing run exactly.
	run := func(steal bool) *Result {
		ctx := newCtx(t, 2, 1, 1)
		mk := func(id int, flops float64) Job {
			j := syntheticJob(id, "t", 0, flops)
			j.Origin = 0
			j.StagingBytes = 1 << 20
			return j
		}
		opts := []Option{WithPlacement(Static(0)), WithStagingFactor(400), WithQueueDepth(4)}
		if steal {
			opts = append(opts, WithStealing(0))
		}
		c, err := New(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run([]Job{mk(0, 5e8), mk(1, 8e9), mk(2, 5e8)})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain, stealing := run(false), run(true)
	if stealing.Steals != 0 {
		t.Fatalf("factor-400 staging still stole %d jobs", stealing.Steals)
	}
	if stealing.Makespan != plain.Makespan {
		t.Errorf("stealing makespan %v differs from plain %v despite zero steals",
			stealing.Makespan, plain.Makespan)
	}
}

func TestStealingOverridesPinnedBacklog(t *testing.T) {
	// A deferring (pinning) policy keeps the cluster queue non-empty
	// while the other device idles — the one regime late binding does
	// not cover. With stealing enabled the idle device must still
	// re-bind the pinned committed backlog (host-resident jobs move
	// free), instead of letting device 1 sit idle for the whole run.
	run := func(steal bool) *Result {
		ctx := newCtx(t, 2, 1, 1)
		opts := []Option{WithPlacement(Static(0)), WithQueueDepth(2)}
		if steal {
			opts = append(opts, WithStealing(0))
		}
		c, err := New(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []Job
		for i := 0; i < 12; i++ {
			jobs = append(jobs, syntheticJob(i, "t", 0, 2e9))
		}
		r, err := c.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain, stealing := run(false), run(true)
	if stealing.Steals == 0 {
		t.Fatal("stealing should re-bind jobs pinned behind a deferring policy")
	}
	if stealing.Device(1).Jobs == 0 {
		t.Fatal("the idle device never ran a stolen job")
	}
	if float64(stealing.Makespan) > 0.75*float64(plain.Makespan) {
		t.Errorf("stealing makespan %v should substantially beat the pinned %v",
			stealing.Makespan, plain.Makespan)
	}
}
