package mm

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
	if _, err := app.Run(new(core.Rig), 4, 3); err == nil {
		t.Fatal("non-dividing grid accepted")
	}
	if _, err := app.Run(new(core.Rig), 4, 0); err == nil {
		t.Fatal("zero grid accepted")
	}
}

func TestFunctionalCorrectnessTiled(t *testing.T) {
	app, err := New(Params{N: 48, Functional: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 4, 4); err != nil {
		t.Fatal(err)
	}
	if err := app.VerifyGrid(4); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionalCorrectnessNonStreamed(t *testing.T) {
	app, err := New(Params{N: 32, Functional: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := app.VerifyGrid(1); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRequiresFunctional(t *testing.T) {
	app, _ := New(Params{N: 16})
	if err := app.VerifyGrid(1); err == nil {
		t.Fatal("VerifyGrid in timing-only mode accepted")
	}
	fn, _ := New(Params{N: 16, Functional: true})
	if err := fn.VerifyGrid(3); err == nil {
		t.Fatal("bad grid accepted")
	}
}

func TestTotalFlops(t *testing.T) {
	app, _ := New(Params{N: 100})
	if got := app.TotalFlops(); got != 2e6 {
		t.Fatalf("TotalFlops = %g, want 2e6", got)
	}
}

// Paper §V-A: streamed MM beats non-streamed by ≈8.3% on average; at
// paper scale the streamed configuration must win clearly.
func TestStreamedBeatsNonStreamedAtPaperScale(t *testing.T) {
	app, err := New(Params{N: 6000})
	if err != nil {
		t.Fatal(err)
	}
	base, err := app.Run(new(core.Rig), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := app.Run(new(core.Rig), 4, 2) // the tuned optimum: T = 4 tiles (Fig. 10a)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.GFlops <= base.GFlops {
		t.Fatalf("streamed %.1f GFLOPS not above non-streamed %.1f", streamed.GFlops, base.GFlops)
	}
	gain := streamed.GFlops/base.GFlops - 1
	if gain < 0.03 || gain > 0.60 {
		t.Fatalf("streamed gain %.1f%%, want a modest paper-like gain (3-60%%)", gain*100)
	}
	// Calibration: best streamed throughput in the paper's ballpark.
	if streamed.GFlops < 400 || streamed.GFlops > 800 {
		t.Fatalf("streamed = %.1f GFLOPS, want ≈550-600 (paper Fig. 9a)", streamed.GFlops)
	}
}

// Fig. 9a: GFLOPS over partitions spikes on divisors of 56 — a divisor
// P must beat its non-divisor neighbours (core splitting).
func TestDivisorPartitionsWin(t *testing.T) {
	app, err := New(Params{N: 6000})
	if err != nil {
		t.Fatal(err)
	}
	run := func(p int) float64 {
		r, err := app.Run(new(core.Rig), p, 12)
		if err != nil {
			t.Fatal(err)
		}
		return r.GFlops
	}
	for _, tc := range []struct{ div, nondiv int }{{4, 5}, {8, 9}, {14, 15}, {28, 27}} {
		d, nd := run(tc.div), run(tc.nondiv)
		if d <= nd {
			t.Errorf("P=%d (divisor, %.1f GF) did not beat P=%d (%.1f GF)", tc.div, d, tc.nondiv, nd)
		}
	}
}

// Fig. 10a: over tile counts at P=4, throughput peaks at a small grid
// and declines for very fine grids.
func TestTileSweepUnimodal(t *testing.T) {
	app, err := New(Params{N: 6000})
	if err != nil {
		t.Fatal(err)
	}
	grids := []int{1, 2, 3, 4, 6, 10, 15, 20}
	var gf []float64
	for _, g := range grids {
		r, err := app.Run(new(core.Rig), 4, g)
		if err != nil {
			t.Fatal(err)
		}
		gf = append(gf, r.GFlops)
	}
	_, peak := stats.Max(gf)
	if peak == 0 {
		t.Fatalf("peak at T=1 (no tiling wins?): %v", gf)
	}
	if grids[peak] > 6 {
		t.Fatalf("peak at grid %d (T=%d), paper peaks at T=4 (grid 2): %v", grids[peak], grids[peak]*grids[peak], gf)
	}
	if gf[len(gf)-1] >= gf[peak] {
		t.Fatalf("finest grid should lose to the peak: %v", gf)
	}
}

func TestOverlapAchieved(t *testing.T) {
	app, err := New(Params{N: 3000})
	if err != nil {
		t.Fatal(err)
	}
	r, err := app.Run(new(core.Rig), 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.OverlapFraction < 0.3 {
		t.Fatalf("MM is overlappable; overlap fraction %.2f too low", r.OverlapFraction)
	}
}

// A warm rig runs without rebuilding its platform: a run of a shape
// the rig already has, and a reshape to a shape it has had before,
// each allocate at most 16 objects — the run's three buffers and
// little else — where a run on a new rig allocates hundreds.
func TestWarmRigRunAllocs(t *testing.T) {
	app, err := New(Params{N: 6000})
	if err != nil {
		t.Fatal(err)
	}
	rig := new(core.Rig)
	run := func(p, g int) {
		if _, err := app.Run(rig, p, g); err != nil {
			t.Fatal(err)
		}
	}
	same := testing.AllocsPerRun(10, func() { run(56, 40) })
	reshape := testing.AllocsPerRun(10, func() { run(4, 12); run(56, 40) }) / 2
	cold := testing.AllocsPerRun(1, func() { rig = new(core.Rig); run(56, 40) })
	t.Logf("objects per Run: %.0f same shape, %.0f reshaped, %.0f on a new rig", same, reshape, cold)
	if same > 16 || reshape > 16 {
		t.Errorf("a warm rig's Run allocated %.0f objects at the same shape and %.0f reshaped, want at most 16", same, reshape)
	}
}
