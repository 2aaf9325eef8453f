package mm

import (
	"runtime"
	"runtime/debug"
	"testing"

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
	if _, err := app.Run(4, 3); err == nil {
		t.Fatal("non-dividing grid accepted")
	}
	if _, err := app.Run(4, 0); err == nil {
		t.Fatal("zero grid accepted")
	}
}

func TestFunctionalCorrectnessTiled(t *testing.T) {
	app, err := New(Params{N: 48, Functional: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(4, 4); err != nil {
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
	if _, err := app.Run(1, 1); err != nil {
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
	base, err := app.Run(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := app.Run(4, 2) // the tuned optimum: T = 4 tiles (Fig. 10a)
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
		r, err := app.Run(p, 12)
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
		r, err := app.Run(4, g)
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
	r, err := app.Run(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.OverlapFraction < 0.3 {
		t.Fatalf("MM is overlappable; overlap fraction %.2f too low", r.OverlapFraction)
	}
}

// A run closes its phase and its context, and the next run's context
// takes their storage: its events, waiter nodes and stage recorder. So
// with collection paused — a collection may drop that storage — the
// second of two identical runs allocates at most a quarter of the
// bytes of the first. The first starts cold, after a collection has
// dropped whatever earlier runs left.
func TestRepeatRunReusesClosedStorage(t *testing.T) {
	app, err := New(Params{N: 6000})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bytes := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := app.Run(56, 40); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := bytes(), bytes()
	t.Logf("Run(56, 40) allocated %d B cold, %d B after a closed run", first, second)
	if second > first/4 {
		t.Errorf("second Run(56, 40) allocated %d B, more than a quarter of the first's %d B", second, first)
	}
}
