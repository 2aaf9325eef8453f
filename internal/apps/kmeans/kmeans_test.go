package kmeans

import (
	"testing"

	"micstream/internal/core"
	"micstream/internal/stats"
)

func TestValidation(t *testing.T) {
	bad := []Params{
		{N: 0, Features: 2, K: 1, Iterations: 1},
		{N: 10, Features: 0, K: 1, Iterations: 1},
		{N: 10, Features: 2, K: 0, Iterations: 1},
		{N: 10, Features: 2, K: 11, Iterations: 1},
		{N: 10, Features: 2, K: 2, Iterations: 0},
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
	app, err := New(Params{N: 100, Features: 2, K: 2, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 2, 0); err == nil {
		t.Fatal("zero tasks accepted")
	}
	if _, err := app.Run(new(core.Rig), 2, 101); err == nil {
		t.Fatal("more tasks than points accepted")
	}
}

func TestFunctionalMatchesReferenceTiled(t *testing.T) {
	app, err := New(Params{N: 600, Features: 3, K: 4, Iterations: 6, Functional: true, Seed: 7})
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

func TestFunctionalMatchesReferenceNonStreamed(t *testing.T) {
	app, err := New(Params{N: 300, Features: 2, K: 3, Iterations: 4, Functional: true, Seed: 8})
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

func TestObjectiveImproves(t *testing.T) {
	// Lloyd's algorithm never increases the within-cluster sum of
	// squares: the final centroids must score no worse than the
	// first-K initialization. (Recovering the exact generating
	// centers is not guaranteed — first-K init can start two
	// centroids inside one cluster and converge to a local optimum.)
	app, err := New(Params{N: 800, Features: 2, K: 3, Iterations: 10, Functional: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 2, 4); err != nil {
		t.Fatal(err)
	}
	wcss := func(centroids []float64) float64 {
		total := 0.0
		for i := 0; i < 800; i++ {
			pt := app.points[i*2 : i*2+2]
			best := 1e18
			for c := 0; c < 3; c++ {
				dx := pt[0] - centroids[c*2]
				dy := pt[1] - centroids[c*2+1]
				if d := dx*dx + dy*dy; d < best {
					best = d
				}
			}
			total += best
		}
		return total
	}
	initial := wcss(app.points[:6])
	final := wcss(app.Centroids())
	if final > initial {
		t.Fatalf("WCSS increased: %.3f -> %.3f", initial, final)
	}
	if final >= initial*0.9 {
		t.Fatalf("WCSS barely improved (%.3f -> %.3f); clustering did nothing", initial, final)
	}
}

func TestVerifyBeforeRunFails(t *testing.T) {
	app, _ := New(Params{N: 10, Features: 2, K: 2, Iterations: 1, Functional: true})
	if err := app.Verify(); err == nil {
		t.Fatal("Verify before Run accepted")
	}
	timing, _ := New(Params{N: 10, Features: 2, K: 2, Iterations: 1})
	if _, err := timing.Reference(); err == nil {
		t.Fatal("Reference in timing-only mode accepted")
	}
}

// Paper §V-A: Kmeans gains ≈24.1% from streams despite being
// non-overlappable, via reduced allocation overhead.
func TestStreamedBeatsNonStreamedAtPaperScale(t *testing.T) {
	p := DefaultParams()
	app, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := app.Run(new(core.Rig), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := app.Run(new(core.Rig), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	gain := stats.Speedup(base.Wall.Seconds(), streamed.Wall.Seconds()) - 1
	if gain < 0.12 || gain > 0.40 {
		t.Fatalf("streamed gain %.1f%% (%.3fs vs %.3fs), want ≈24%%", gain*100, streamed.Wall.Seconds(), base.Wall.Seconds())
	}
}

// Fig. 9c: execution time falls monotonically as partitions increase
// (allocation cost per launch shrinks with partition width).
func TestPartitionSweepMonotoneDecreasing(t *testing.T) {
	p := DefaultParams()
	app, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	for _, parts := range []int{1, 2, 4, 8, 14, 28, 56} {
		r, err := app.Run(new(core.Rig), parts, 56) // T=56 tasks ⇒ 20000 points each, the Fig. 9c setup
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, r.Wall.Seconds())
	}
	if !stats.IsMonotone(times, -1, 0.02) {
		t.Fatalf("Kmeans time not decreasing over partitions: %v", times)
	}
	if times[0] < times[len(times)-1]*2 {
		t.Fatalf("P=1 (%.2fs) should be at least 2× slower than P=56 (%.2fs)", times[0], times[len(times)-1])
	}
}

// Fig. 10c: at P=4 the best task count is small (the paper's T=4);
// very fine task grids lose to per-launch overhead.
func TestTaskSweepShape(t *testing.T) {
	p := DefaultParams()
	p.Iterations = 20 // keep the sweep cheap; shape is per-iteration
	app, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 2, 4, 8, 16, 56, 112, 224}
	var times []float64
	for _, tc := range counts {
		r, err := app.Run(new(core.Rig), 4, tc)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, r.Wall.Seconds())
	}
	_, minAt := stats.Min(times)
	if counts[minAt] > 16 {
		t.Fatalf("optimum at T=%d, expected a small task count: %v", counts[minAt], times)
	}
	if times[len(times)-1] <= times[minAt] {
		t.Fatalf("T=224 should lose to the optimum: %v", times)
	}
	// T=1 wastes 3 of 4 partitions: clearly worse than T=4.
	if times[0] <= times[2] {
		t.Fatalf("T=1 (%v) should be slower than T=4 (%v)", times[0], times[2])
	}
}

func TestTotalFlops(t *testing.T) {
	app, _ := New(Params{N: 1000, Features: 10, K: 4, Iterations: 5})
	if got, want := app.TotalFlops(), 3.0*1000*4*10*5; got != want {
		t.Fatalf("TotalFlops = %g, want %g", got, want)
	}
}
