package hotspot

import (
	"testing"

	"micstream/internal/core"
)

func TestPipelinedMatchesReference(t *testing.T) {
	app, err := New(Params{Dim: 24, Iterations: 6, Functional: true, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.RunPipelined(new(core.Rig), 4, 6); err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(); err != nil {
		t.Fatalf("pipelined variant diverged from reference: %v", err)
	}
}

func TestPipelinedMatchesReferenceOddIterations(t *testing.T) {
	// Odd iteration counts exercise the final buffer-parity swap.
	app, err := New(Params{Dim: 16, Iterations: 5, Functional: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.RunPipelined(new(core.Rig), 2, 4); err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedSingleTile(t *testing.T) {
	// Degenerate tiling: the cross-iteration chain alone must still
	// order everything correctly.
	app, err := New(Params{Dim: 12, Iterations: 4, Functional: true, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.RunPipelined(new(core.Rig), 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedValidation(t *testing.T) {
	app, _ := New(Params{Dim: 8, Iterations: 1})
	if _, err := app.RunPipelined(new(core.Rig), 1, 0); err == nil {
		t.Fatal("zero tasks accepted")
	}
	if _, err := app.RunPipelined(new(core.Rig), 1, 9); err == nil {
		t.Fatal("more tasks than rows accepted")
	}
}

// The transformation's point: the pipelined variant overlaps iteration
// k+1's transfers with iteration k's kernels, beating the barrier
// version at paper scale — the paper's §VII future-work item realized.
func TestPipelinedBeatsBarrierVersion(t *testing.T) {
	app, err := New(Params{Dim: 8192, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	barrier, err := app.Run(new(core.Rig), 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	pipelined, err := app.RunPipelined(new(core.Rig), 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	gain := barrier.Wall.Seconds()/pipelined.Wall.Seconds() - 1
	if gain < 0.05 {
		t.Fatalf("pipelined (%v) should beat barrier (%v) by ≥5%%, got %.1f%%",
			pipelined.Wall, barrier.Wall, gain*100)
	}
	// And it must now actually overlap transfers with kernels.
	if pipelined.OverlapFraction <= barrier.OverlapFraction {
		t.Fatalf("pipelined overlap %.2f not above barrier %.2f",
			pipelined.OverlapFraction, barrier.OverlapFraction)
	}
}
