package cluster

import (
	"testing"

	"micstream/internal/schedtest"
	"micstream/internal/sim"
)

// clusterMarkNames labels the cluster lifecycle for the shared
// harness: admission, commitment, dispatch, completion.
var clusterMarkNames = []string{"arrival", "placed", "start", "done"}

// clusterSpans projects a cluster result onto the shared invariant
// harness: the wait interval is the placement wait arrival→placed (the
// cluster-attributable share), the busy interval the stream occupancy,
// and the lifecycle promises arrival ≤ placed ≤ start ≤ done.
func clusterSpans(r *Result) []schedtest.Span {
	out := make([]schedtest.Span, 0, len(r.Jobs))
	for _, o := range r.Jobs {
		out = append(out, schedtest.Span{
			ID: o.ID, Index: o.Index, Stream: o.Stream,
			Wait:  [2]sim.Time{o.Arrival, o.Placed},
			Busy:  [2]sim.Time{o.Start, o.Done},
			Marks: []sim.Time{o.Arrival, o.Placed, o.Start, o.Done},
		})
	}
	return out
}

// runScenario executes one (placement, scenario, seed) cell on a fresh
// 2-device × 2-partition × 2-stream platform.
func runScenario(t *testing.T, place string, cfg ScenarioConfig, extra ...Option) *Result {
	t.Helper()
	ctx := newCtx(t, 2, 2, 2)
	jobs, err := BuildScenario(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ByName(place)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, append([]Option{WithPlacement(p)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// imbalanced is the scenario grid the properties quantify over: a 16×
// size spread with a third of the jobs device-resident.
func imbalanced(seed uint64) ScenarioConfig {
	return ScenarioConfig{
		Seed:             seed,
		Arrival:          "bursty",
		SizeSpread:       4,
		AffinityFraction: 0.33,
		Origins:          []int{0, 1},
	}
}

// TestClusterBitIdenticalRepeats asserts the determinism contract for
// every placement policy: the same configuration produces
// byte-for-byte identical results on every run.
func TestClusterBitIdenticalRepeats(t *testing.T) {
	for _, place := range Policies() {
		place := place
		schedtest.BitIdentical(t, place, func(seed uint64) any {
			return runScenario(t, place, imbalanced(seed))
		}, 99, 100)
	}
}

// TestClusterWorkConserving asserts the cluster-level invariant for
// the built-in (non-pinning) policies: while any job waits unplaced in
// the cluster queue, every stream of every device is busy
// (schedtest.WorkConserving over the placement-wait intervals).
func TestClusterWorkConserving(t *testing.T) {
	streams := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, place := range Policies() {
		for _, seed := range []uint64{5, 11, 23} {
			cfg := imbalanced(seed)
			cfg.Jobs = 64
			r := runScenario(t, place, cfg)
			schedtest.WorkConserving(t, place, clusterSpans(r), streams)
		}
	}
}

// TestPredictedWithinStaticBound asserts the placement-quality bound:
// predicted placement never trails the best static single-device
// assignment (every job pinned to the single best device of the same
// platform) by more than 5% of makespan, across the imbalanced
// scenario grid. In practice it should win outright — the second
// device's streams are free capacity — but the bound is what the
// policy contract states (DESIGN.md §9).
func TestPredictedWithinStaticBound(t *testing.T) {
	const bound = 1.05
	for _, seed := range []uint64{1, 7, 13, 29} {
		cfg := imbalanced(seed)
		pred := runScenario(t, "predicted", cfg)

		bestStatic := sim.Duration(0)
		for d := 0; d < 2; d++ {
			ctx := newCtx(t, 2, 2, 2)
			jobs, err := BuildScenario(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(ctx, WithPlacement(Static(d)))
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.Run(jobs)
			if err != nil {
				t.Fatal(err)
			}
			if bestStatic == 0 || r.Makespan < bestStatic {
				bestStatic = r.Makespan
			}
		}
		if float64(pred.Makespan) > bound*float64(bestStatic) {
			t.Errorf("seed %d: predicted makespan %v exceeds %.0f%% of best static single-device %v",
				seed, pred.Makespan, bound*100, bestStatic)
		}
	}
}

// TestEveryClusterJobRunsExactlyOnce asserts completeness under every
// placement policy.
func TestEveryClusterJobRunsExactlyOnce(t *testing.T) {
	for _, place := range Policies() {
		cfg := imbalanced(42)
		cfg.Jobs = 60
		r := runScenario(t, place, cfg)
		schedtest.UniqueCompletion(t, place, clusterSpans(r), 60, clusterMarkNames)
	}
}

// TestClusterQueueEmptyUnlessSaturated exercises the dispatch-loop
// invariant directly via the test hook: after every placement loop, a
// non-empty cluster queue implies every device has a full committed
// queue and no idle stream.
func TestClusterQueueEmptyUnlessSaturated(t *testing.T) {
	ctx := newCtx(t, 2, 2, 1)
	jobs, err := BuildScenario(ctx, imbalanced(17))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, WithQueueDepth(1), WithPlacement(Predicted()))
	if err != nil {
		t.Fatal(err)
	}
	checks := 0
	c.afterChange = func() {
		checks++
		if c.queue.Len() == 0 {
			return
		}
		for d, s := range c.scheds {
			if s.QueueDepth() < 1 {
				t.Fatalf("cluster queue holds %d jobs while device %d has admission capacity", c.queue.Len(), d)
			}
			if s.InFlight() < len(s.Streams()) {
				t.Fatalf("cluster queue holds %d jobs while device %d has an idle stream", c.queue.Len(), d)
			}
		}
	}
	if _, err := c.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if checks == 0 {
		t.Fatal("dispatch hook never ran")
	}
}
