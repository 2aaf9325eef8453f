package cf

import (
	"testing"

	"micstream/internal/core"
	"micstream/internal/stats"
)

func TestValidation(t *testing.T) {
	if _, err := New(Params{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
	app, err := New(Params{N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 1, 4, 5); err == nil {
		t.Fatal("non-dividing grid accepted")
	}
	if _, err := app.Run(new(core.Rig), 0, 4, 4); err == nil {
		t.Fatal("zero devices accepted")
	}
}

func TestTileIndexing(t *testing.T) {
	// Lower-triangle row-major: (0,0)=0, (1,0)=1, (1,1)=2, (2,0)=3...
	want := map[[2]int]int{{0, 0}: 0, {1, 0}: 1, {1, 1}: 2, {2, 0}: 3, {2, 1}: 4, {2, 2}: 5}
	for k, v := range want {
		if tileIndex(k[0], k[1]) != v {
			t.Fatalf("tileIndex(%d,%d) = %d, want %d", k[0], k[1], tileIndex(k[0], k[1]), v)
		}
	}
	if numTiles(4) != 10 {
		t.Fatalf("numTiles(4) = %d, want 10", numTiles(4))
	}
}

func TestFunctionalFactorizationTiled(t *testing.T) {
	app, err := New(Params{N: 96, Functional: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 1, 4, 4); err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionalFactorizationNonStreamed(t *testing.T) {
	app, err := New(Params{N: 48, Functional: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionalFactorizationMultiDevice(t *testing.T) {
	app, err := New(Params{N: 96, Functional: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 2, 2, 4); err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyGuards(t *testing.T) {
	app, _ := New(Params{N: 16})
	if err := app.Verify(); err == nil {
		t.Fatal("Verify in timing-only mode accepted")
	}
	fn, _ := New(Params{N: 16, Functional: true})
	if err := fn.Verify(); err == nil {
		t.Fatal("Verify before Run accepted")
	}
}

// Paper §V-A: streamed CF beats non-streamed by ≈24.1% on average.
func TestStreamedBeatsNonStreamedAtPaperScale(t *testing.T) {
	app, err := New(Params{N: 9600})
	if err != nil {
		t.Fatal(err)
	}
	base, err := app.Run(new(core.Rig), 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := app.Run(new(core.Rig), 1, 4, 12) // tile 800×800, the Fig. 9b setup
	if err != nil {
		t.Fatal(err)
	}
	gain := streamed.GFlops/base.GFlops - 1
	if gain < 0.10 || gain > 0.45 {
		t.Fatalf("streamed gain %.1f%% (%.1f vs %.1f GFLOPS), want ≈24%%", gain*100, streamed.GFlops, base.GFlops)
	}
	// Calibration: paper reaches ≈350 GFLOPS at D=9600.
	if streamed.GFlops < 250 || streamed.GFlops > 450 {
		t.Fatalf("streamed CF = %.1f GFLOPS, want ≈350", streamed.GFlops)
	}
}

// Fig. 9b: divisor partition counts beat non-divisor neighbours.
func TestDivisorPartitionsWin(t *testing.T) {
	app, err := New(Params{N: 4800})
	if err != nil {
		t.Fatal(err)
	}
	run := func(p int) float64 {
		r, err := app.Run(new(core.Rig), 1, p, 6)
		if err != nil {
			t.Fatal(err)
		}
		return r.GFlops
	}
	for _, tc := range []struct{ div, nondiv int }{{4, 5}, {8, 9}} {
		if d, nd := run(tc.div), run(tc.nondiv); d <= nd {
			t.Errorf("P=%d (divisor, %.1f GF) did not beat P=%d (%.1f GF)", tc.div, d, tc.nondiv, nd)
		}
	}
}

// Fig. 10b: performance over tile counts rises from coarse tiling to an
// interior optimum (the paper's T=100 at D=9600) and falls again for
// very fine tiling.
func TestTileSweepHasInteriorOptimum(t *testing.T) {
	app, err := New(Params{N: 9600})
	if err != nil {
		t.Fatal(err)
	}
	grids := []int{2, 4, 8, 12, 24, 48, 96}
	var gf []float64
	for _, g := range grids {
		r, err := app.Run(new(core.Rig), 1, 4, g)
		if err != nil {
			t.Fatal(err)
		}
		gf = append(gf, r.GFlops)
	}
	_, peak := stats.Max(gf)
	if peak == 0 || peak == len(gf)-1 {
		t.Fatalf("no interior optimum: %v (grids %v)", gf, grids)
	}
	if grids[peak] < 4 || grids[peak] > 48 {
		t.Fatalf("peak at grid %d, expected an intermediate grid (paper: T=100 ⇒ grid 10): %v", grids[peak], gf)
	}
}

// Fig. 11: two MICs beat one but fall short of the projected 2×.
func TestMultiMICScaling(t *testing.T) {
	app, err := New(Params{N: 14000})
	if err != nil {
		t.Fatal(err)
	}
	one, err := app.Run(new(core.Rig), 1, 4, 14)
	if err != nil {
		t.Fatal(err)
	}
	two, err := app.Run(new(core.Rig), 2, 4, 14)
	if err != nil {
		t.Fatal(err)
	}
	if two.GFlops <= one.GFlops*1.05 {
		t.Fatalf("2 MICs (%.1f GF) should clearly beat 1 MIC (%.1f GF)", two.GFlops, one.GFlops)
	}
	if two.GFlops >= one.GFlops*2 {
		t.Fatalf("2 MICs (%.1f GF) should fall short of projected 2× (%.1f GF): extra transfers and sync", two.GFlops, one.GFlops*2)
	}
}

func TestTotalFlops(t *testing.T) {
	app, _ := New(Params{N: 300})
	if got, want := app.TotalFlops(), 300.0*300*300/3; got != want {
		t.Fatalf("TotalFlops = %g, want %g", got, want)
	}
}
