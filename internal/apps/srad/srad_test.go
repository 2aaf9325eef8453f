package srad

import (
	"testing"

	"micstream/internal/core"
	"micstream/internal/stats"
)

func TestValidation(t *testing.T) {
	bad := []Params{
		{Dim: 0, Iterations: 1, Lambda: 0.5},
		{Dim: 8, Iterations: 0, Lambda: 0.5},
		{Dim: 8, Iterations: 1, Lambda: 0},
		{Dim: 8, Iterations: 1, Lambda: 1.5},
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
	app, _ := New(Params{Dim: 16, Iterations: 1, Lambda: 0.5})
	if _, err := app.Run(new(core.Rig), 2, 0); err == nil {
		t.Fatal("zero tasks accepted")
	}
	if _, err := app.Run(new(core.Rig), 2, 17); err == nil {
		t.Fatal("more tasks than rows accepted")
	}
}

func TestTiledMatchesSingleTask(t *testing.T) {
	app, err := New(Params{Dim: 32, Iterations: 4, Lambda: 0.5, Functional: true, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 4, 8); err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSpeckleReduced(t *testing.T) {
	app, err := New(Params{Dim: 48, Iterations: 20, Lambda: 0.5, Functional: true, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	before := SpeckleIndex(app.Image())
	if _, err := app.Run(new(core.Rig), 2, 4); err != nil {
		t.Fatal(err)
	}
	after := SpeckleIndex(app.Image())
	if after >= before {
		t.Fatalf("speckle index did not decrease: %.4f -> %.4f", before, after)
	}
	if after > before*0.8 {
		t.Fatalf("speckle barely reduced: %.4f -> %.4f", before, after)
	}
}

func TestVerifyRequiresFunctional(t *testing.T) {
	app, _ := New(Params{Dim: 8, Iterations: 1, Lambda: 0.5})
	if err := app.Verify(); err == nil {
		t.Fatal("Verify in timing-only mode accepted")
	}
}

// Paper §V-A / Fig. 8f: streamed SRAD is slower on small images...
func TestStreamedSlowerOnSmallImage(t *testing.T) {
	app, err := New(Params{Dim: 1000, Iterations: 100, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	base, err := app.Run(new(core.Rig), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := app.Run(new(core.Rig), 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Wall <= base.Wall {
		t.Fatalf("streamed (%v) should be slower than non-streamed (%v) on a small image", streamed.Wall, base.Wall)
	}
}

// ...and faster on large ones (the paper's unexplained case; here it is
// L2 residency of small tiles across the two stencil phases).
func TestStreamedFasterOnLargeImage(t *testing.T) {
	app, err := New(Params{Dim: 10000, Iterations: 100, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	base, err := app.Run(new(core.Rig), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := app.Run(new(core.Rig), 4, 400) // the paper's optimum T=400
	if err != nil {
		t.Fatal(err)
	}
	gain := stats.Speedup(base.Wall.Seconds(), streamed.Wall.Seconds()) - 1
	if gain < 0.10 || gain > 0.90 {
		t.Fatalf("streamed gain on large image %.1f%% (%.1fs vs %.1fs), want a clear win",
			gain*100, streamed.Wall.Seconds(), base.Wall.Seconds())
	}
}

// Fig. 9f: time over partitions falls to an interior minimum and rises
// again (load balance and L2 fit against management overhead).
func TestPartitionSweepUnimodalish(t *testing.T) {
	app, err := New(Params{Dim: 10000, Iterations: 5, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	parts := []int{1, 2, 4, 8, 14, 28, 56}
	var times []float64
	for _, p := range parts {
		r, err := app.Run(new(core.Rig), p, 400)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, r.Wall.Seconds())
	}
	_, minAt := stats.Min(times)
	if minAt == 0 {
		t.Fatalf("P=1 should not be optimal: %v", times)
	}
	if minAt == len(times)-1 {
		t.Fatalf("P=56 should not be optimal: %v", times)
	}
	if times[0] <= times[minAt] {
		t.Fatalf("P=1 should lose to the optimum: %v", times)
	}
}

// Fig. 10f: at P=4 the optimum task count is large (the paper's T=400):
// tiles must shrink until they fit the partition L2, then launch
// overhead takes over.
func TestTaskSweepOptimumIsFineGrained(t *testing.T) {
	app, err := New(Params{Dim: 10000, Iterations: 5, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 4, 25, 100, 400, 2500, 10000}
	var times []float64
	for _, tc := range counts {
		r, err := app.Run(new(core.Rig), 4, tc)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, r.Wall.Seconds())
	}
	_, minAt := stats.Min(times)
	if counts[minAt] < 100 || counts[minAt] > 2500 {
		t.Fatalf("optimum at T=%d, paper finds T=400: %v", counts[minAt], times)
	}
	if times[0] <= times[minAt]*1.5 {
		t.Fatalf("T=1 (%v) should be far above the optimum (%v)", times[0], times[minAt])
	}
	if times[len(times)-1] <= times[minAt] {
		t.Fatalf("T=10000 should lose to the optimum: %v", times)
	}
}
