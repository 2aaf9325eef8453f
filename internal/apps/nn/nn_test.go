package nn

import (
	"testing"

	"micstream/internal/core"
	"micstream/internal/stats"
)

func TestValidation(t *testing.T) {
	if _, err := New(Params{N: 0, K: 1}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := New(Params{N: 5, K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := New(Params{N: 5, K: 6}); err == nil {
		t.Fatal("K>N accepted")
	}
	app, _ := New(Params{N: 100, K: 3})
	if _, err := app.Run(new(core.Rig), 2, 0); err == nil {
		t.Fatal("zero tasks accepted")
	}
	if _, err := app.Run(new(core.Rig), 2, 101); err == nil {
		t.Fatal("more tasks than records accepted")
	}
}

func TestFunctionalMatchesReferenceTiled(t *testing.T) {
	app, err := New(Params{N: 5000, K: 10, TargetLat: 40, TargetLon: 120, Functional: true, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 4, 8); err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(app.Nearest()) != 10 {
		t.Fatalf("got %d neighbours", len(app.Nearest()))
	}
}

func TestFunctionalMatchesReferenceNonStreamed(t *testing.T) {
	app, err := New(Params{N: 2000, K: 5, TargetLat: 10, TargetLon: 20, Functional: true, Seed: 22})
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

func TestNeighborsSortedAscending(t *testing.T) {
	app, err := New(Params{N: 3000, K: 7, Functional: true, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(new(core.Rig), 2, 4); err != nil {
		t.Fatal(err)
	}
	ns := app.Nearest()
	for i := 1; i < len(ns); i++ {
		if ns[i].Distance < ns[i-1].Distance {
			t.Fatalf("neighbours not sorted: %+v", ns)
		}
	}
}

func TestVerifyBeforeRunFails(t *testing.T) {
	app, _ := New(Params{N: 10, K: 2, Functional: true})
	if err := app.Verify(); err == nil {
		t.Fatal("Verify before Run accepted")
	}
}

// Paper §V-A: NN gains ≈9.2% from streams — modest, because it is
// bounded by transfers.
func TestStreamedBeatsNonStreamedAtPaperScale(t *testing.T) {
	app, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	base, err := app.Run(new(core.Rig), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := app.Run(new(core.Rig), 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	gain := stats.Speedup(base.Wall.Seconds(), streamed.Wall.Seconds()) - 1
	if gain < 0.02 || gain > 0.30 {
		t.Fatalf("streamed gain %.1f%% (%.2fms vs %.2fms), want positive (paper: 9.2%%; our link model caps the hideable fraction lower)",
			gain*100, streamed.Wall.Milliseconds(), base.Wall.Milliseconds())
	}
}

// Fig. 9e: execution time drops sharply until P=4 and stays flat after
// (the PCIe link, not the device, is the bottleneck).
func TestPartitionSweepFlattensAtFour(t *testing.T) {
	app, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	run := func(p int) float64 {
		r, err := app.Run(new(core.Rig), p, 512)
		if err != nil {
			t.Fatal(err)
		}
		return r.Wall.Milliseconds()
	}
	p1, p2, p4 := run(1), run(2), run(4)
	if !(p1 > p2 && p2 > p4) {
		t.Fatalf("time should drop until P=4: %v %v %v", p1, p2, p4)
	}
	var flat []float64
	for _, p := range []int{4, 8, 14, 28, 56} {
		flat = append(flat, run(p))
	}
	if !stats.IsRoughlyConstant(flat, 0.10) {
		t.Fatalf("P≥4 region not flat: %v", flat)
	}
	if p1 < flat[0]*1.3 {
		t.Fatalf("P=1 (%.2fms) should be well above the flat region (%.2fms)", p1, flat[0])
	}
}

// Fig. 10e: T=1 and T=4 perform similarly (transfer-bound); very fine
// task grids lose to per-transfer latency.
func TestTaskSweepShape(t *testing.T) {
	app, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	run := func(tasks int) float64 {
		r, err := app.Run(new(core.Rig), 4, tasks)
		if err != nil {
			t.Fatal(err)
		}
		return r.Wall.Milliseconds()
	}
	t1, t4 := run(1), run(4)
	if ratio := t1 / t4; ratio < 0.80 || ratio > 1.45 {
		t.Fatalf("T=1 (%.2fms) and T=4 (%.2fms) should be similar (paper §V-B-2)", t1, t4)
	}
	coarseBest := t4
	if t1 < coarseBest {
		coarseBest = t1
	}
	t2048 := run(2048)
	if t2048 <= coarseBest*1.5 {
		t.Fatalf("T=2048 (%.2fms) should lose clearly to coarse tiling (%.2fms): per-transfer latency", t2048, coarseBest)
	}
}
