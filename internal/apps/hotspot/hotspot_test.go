package hotspot

import (
	"testing"

	"micstream/internal/core"
	"micstream/internal/stats"
)

func TestValidation(t *testing.T) {
	if _, err := New(Params{Dim: 0, Iterations: 1}); err == nil {
		t.Fatal("dim=0 accepted")
	}
	if _, err := New(Params{Dim: 8, Iterations: 0}); err == nil {
		t.Fatal("iterations=0 accepted")
	}
	app, err := New(Params{Dim: 8, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 1, 0); err == nil {
		t.Fatal("zero tasks accepted")
	}
	if _, err := app.Run(new(core.Rig), 1, 9); err == nil {
		t.Fatal("more tasks than rows accepted")
	}
}

func TestFunctionalMatchesReferenceTiled(t *testing.T) {
	app, err := New(Params{Dim: 24, Iterations: 5, Functional: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 4, 6); err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionalMatchesReferenceNonStreamed(t *testing.T) {
	app, err := New(Params{Dim: 16, Iterations: 3, Functional: true, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestHotSpotsHeatUp(t *testing.T) {
	// Cells with high power must end hotter than the ambient mean —
	// the simulation is actually simulating something.
	app, err := New(Params{Dim: 32, Iterations: 10, Functional: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 2, 4); err != nil {
		t.Fatal(err)
	}
	temp := app.Temperature()
	mean := stats.Mean(temp)
	// Find the hottest power cell from a fresh grid (same seed).
	fresh, _ := New(Params{Dim: 32, Iterations: 1, Functional: true, Seed: 13})
	maxPower, at := stats.Max(fresh.power)
	if maxPower < 5 {
		t.Skip("no hot block generated for this seed")
	}
	if temp[at] <= mean {
		t.Fatalf("hot cell %d (power %.1f) at %.2f not above mean %.2f", at, maxPower, temp[at], mean)
	}
}

// Paper §V-A / Fig. 8d: streaming brings no performance change for
// Hotspot (non-overlappable, no allocation overhead); on large grids
// streamed and non-streamed are within a few percent.
func TestStreamedRoughlyEqualAtPaperScale(t *testing.T) {
	app, err := New(Params{Dim: 16384, Iterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	base, err := app.Run(new(core.Rig), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := app.Run(new(core.Rig), 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	ratio := streamed.Wall.Seconds() / base.Wall.Seconds()
	if ratio < 0.85 || ratio > 1.10 {
		t.Fatalf("streamed/non-streamed = %.3f, want ≈1 (paper: no change)", ratio)
	}
}

// Fig. 8d (small datasets): the streamed code is slightly slower than
// non-streamed because of stream management overhead.
func TestStreamedSlowerOnSmallGrid(t *testing.T) {
	app, err := New(Params{Dim: 1024, Iterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	base, err := app.Run(new(core.Rig), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := app.Run(new(core.Rig), 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Wall <= base.Wall {
		t.Fatalf("streamed (%v) should be slower than non-streamed (%v) on a small grid", streamed.Wall, base.Wall)
	}
}

// Fig. 9d: the kernel-phase time over partitions dips in the paper's
// P ∈ [33, 37] region (good cache utilization at ≤2 cores/partition,
// balanced waves) — we assert the minimum falls in a window around it.
func TestPartitionSweepDipLocation(t *testing.T) {
	app, err := New(Params{Dim: 16384, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ps []int
	var times []float64
	for p := 4; p <= 56; p += 1 {
		r, err := app.Run(new(core.Rig), p, 256)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
		times = append(times, r.Wall.Seconds())
	}
	_, minAt := stats.Min(times)
	if ps[minAt] < 28 || ps[minAt] > 45 {
		t.Fatalf("minimum at P=%d, paper dips at P∈[33,37]: %v", ps[minAt], times)
	}
}

// Fig. 10d: over task counts at P=4, T=1 is sharply worse (3 of 4
// partitions idle), a small T is optimal, and very large T loses to
// launch overhead.
func TestTaskSweepShape(t *testing.T) {
	app, err := New(Params{Dim: 4096, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 4, 16, 64, 256, 1024, 4096}
	var times []float64
	for _, tc := range counts {
		r, err := app.Run(new(core.Rig), 4, tc)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, r.Wall.Seconds())
	}
	_, minAt := stats.Min(times)
	if minAt == 0 {
		t.Fatalf("T=1 should not be optimal: %v", times)
	}
	if counts[minAt] > 64 {
		t.Fatalf("optimum at T=%d, expected small T (paper: 4): %v", counts[minAt], times)
	}
	// With per-iteration grid shipping, transfers dominate, so the
	// T=1 penalty (idle partitions during the kernel phase) is
	// visible but bounded.
	if times[0] < times[minAt]*1.15 {
		t.Fatalf("T=1 (%v) should be clearly above the optimum (%v)", times[0], times[minAt])
	}
	if times[len(times)-1] <= times[minAt] {
		t.Fatalf("T=4096 should lose to the optimum: %v", times)
	}
}
