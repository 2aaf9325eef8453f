package experiments

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"micstream/internal/core"
	"micstream/internal/sim"
	"micstream/internal/stats"
	"micstream/internal/workload"
)

func gen(t *testing.T, id string) *Table {
	t.Helper()
	g, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tab, err := g()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tab
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig5", "fig6", "fig7",
		"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f",
		"fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f",
		"fig10a", "fig10b", "fig10c", "fig10d", "fig10e", "fig10f",
		"fig11", "heuristics",
		"ablation-duplex", "ablation-contention", "ablation-alloc",
		"ext-hotspot-pipe", "ext-multimic", "ext-taxonomy",
		"fairness", "imbalance",
		"modelval", "guided",
		"placement", "cluster-scaling", "stealing", "residency",
		"slicing", "drift", "slo",
	}
	ids := IDs()
	got := map[string]bool{}
	for _, id := range ids {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
}

// sweep returns its results in point order, and of the points that
// fail, the first in point order gives the error, even when a later
// point fails first. With two workers the point-0 worker blocks until
// point 1 has failed on the other.
func TestSweepKeepsPointOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rs, err := sweep(50, func(_ *core.Rig, i int) (core.Result, error) { return core.Result{Wall: sim.Duration(i)}, nil })
	if err != nil || len(rs) != 50 {
		t.Fatalf("sweep of 50 points: %d results, error %v", len(rs), err)
	}
	for i, r := range rs {
		if r.Wall != sim.Duration(i) {
			t.Fatalf("slot %d holds point %d's result", i, r.Wall)
		}
	}
	first, later := errors.New("point 0"), errors.New("point 1")
	laterFailed := make(chan struct{})
	_, err = sweep(4, func(_ *core.Rig, i int) (core.Result, error) {
		switch i {
		case 0:
			<-laterFailed
			return core.Result{}, first
		case 1:
			close(laterFailed)
			return core.Result{}, later
		}
		return core.Result{}, nil
	})
	if err != first {
		t.Fatalf("sweep error %v, want point 0's %v", err, first)
	}
	if rs, err := sweep(0, nil); err != nil || len(rs) != 0 {
		t.Fatalf("empty sweep: %v, %v", rs, err)
	}
}

// A sweep worker runs its points on one rig, so a point must leave
// nothing behind that changes the next. Every app's Fig. 9 points
// (P = 1..56), run on one rig in a seeded shuffled order that mixes
// the apps, each give the Result the same point gives on a fresh rig.
func TestShuffledPointsOnOneRigMatchFreshRigs(t *testing.T) {
	type point struct {
		run  runner
		p, t int
	}
	var points []point
	for i := range paperApps {
		s := &paperApps[i]
		run, err := s.open(s.ref, s.iters)
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= 56; p++ {
			points = append(points, point{run, p, s.fixedT})
		}
	}
	rng := workload.NewRNG(9)
	for i := len(points) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		points[i], points[j] = points[j], points[i]
	}
	var rig core.Rig
	for _, pt := range points {
		got, err := pt.run(&rig, pt.p, pt.t)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pt.run(new(core.Rig), pt.p, pt.t)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("(P=%d, T=%d) on a shared rig gave %+v, on a fresh rig %+v", pt.p, pt.t, got, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2.5"}},
		Notes:   []string{"n"},
	}
	var sb strings.Builder
	if err := tab.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# x — demo", "a", "2.5", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	col := tab.Column(1)
	if len(col) != 1 || col[0] != 2.5 {
		t.Errorf("Column(1) = %v", col)
	}
	sb.Reset()
	if err := tab.FprintCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "a,b\n1,2.5\n# n\n" {
		t.Errorf("CSV rendering = %q", sb.String())
	}
}

func TestFig5Shapes(t *testing.T) {
	tab := gen(t, "fig5")
	if len(tab.Rows) != 17 {
		t.Fatalf("fig5 has %d rows, want 17", len(tab.Rows))
	}
	cc, ic, cd, id := tab.Column(1), tab.Column(2), tab.Column(3), tab.Column(4)
	if !stats.IsRoughlyConstant(cc, 0.01) || !stats.IsRoughlyConstant(id, 0.01) {
		t.Fatalf("CC/ID not constant: %v / %v", cc, id)
	}
	if !stats.IsMonotone(ic, +1, 0) || !stats.IsMonotone(cd, -1, 0) {
		t.Fatal("IC/CD not monotone")
	}
	// The paper's absolute calibration: CC ≈ 5.2 ms, ID ≈ 2.5 ms.
	if m := stats.Mean(cc); m < 4.7 || m > 5.7 {
		t.Fatalf("CC mean %.2f ms, want ≈5.2", m)
	}
	if m := stats.Mean(id); m < 2.2 || m > 2.9 {
		t.Fatalf("ID mean %.2f ms, want ≈2.5", m)
	}
}

func TestFig6Shapes(t *testing.T) {
	tab := gen(t, "fig6")
	data, kernel := tab.Column(1), tab.Column(2)
	streamed, ideal := tab.Column(4), tab.Column(5)
	serial := tab.Column(3)
	// Crossover within the sweep: kernel starts below data, ends above.
	if kernel[0] >= data[0] || kernel[len(kernel)-1] <= data[len(data)-1] {
		t.Fatalf("no transfer/compute crossover: data=%v kernel=%v", data, kernel)
	}
	for i := range streamed {
		if !(ideal[i] < streamed[i] && streamed[i] < serial[i]) {
			t.Fatalf("row %d: want ideal %v < streamed %v < serial %v", i, ideal[i], streamed[i], serial[i])
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	tab := gen(t, "fig7")
	times := tab.Column(1)
	ref := times[len(times)-1]
	tiled := times[:len(times)-1]
	_, minAt := stats.Min(tiled)
	if minAt == 0 || minAt == len(tiled)-1 {
		t.Fatalf("fig7 minimum at an edge: %v", tiled)
	}
	for i, v := range tiled {
		if ref >= v {
			t.Fatalf("ref %.2f not below tiled point %d (%.2f)", ref, i, v)
		}
	}
}

func TestFig8GainDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Fig. 8 sweep")
	}
	// MM and CF report GFLOPS: streamed (col 2) must beat base (col 1).
	for _, id := range []string{"fig8a", "fig8b"} {
		tab := gen(t, id)
		base, streamed := tab.Column(1), tab.Column(2)
		for i := range base {
			if streamed[i] <= base[i] {
				t.Errorf("%s row %d: streamed %.1f not above base %.1f", id, i, streamed[i], base[i])
			}
		}
	}
	// Kmeans reports time: streamed must be faster everywhere.
	tab := gen(t, "fig8c")
	base, streamed := tab.Column(1), tab.Column(2)
	for i := range base {
		if streamed[i] >= base[i] {
			t.Errorf("fig8c row %d: streamed %.2fs not below base %.2fs", i, streamed[i], base[i])
		}
	}
	// Hotspot: no change (within 10%), slight loss allowed on small.
	tab = gen(t, "fig8d")
	base, streamed = tab.Column(1), tab.Column(2)
	for i := range base {
		ratio := streamed[i] / base[i]
		if ratio < 0.90 || ratio > 1.15 {
			t.Errorf("fig8d row %d: ratio %.2f, want ≈1", i, ratio)
		}
	}
	// SRAD: slower on the smallest image, faster on the largest.
	tab = gen(t, "fig8f")
	base, streamed = tab.Column(1), tab.Column(2)
	if streamed[0] <= base[0] {
		t.Errorf("fig8f smallest: streamed %.2f should lose to base %.2f", streamed[0], base[0])
	}
	last := len(base) - 1
	if streamed[last] >= base[last] {
		t.Errorf("fig8f largest: streamed %.2f should beat base %.2f", streamed[last], base[last])
	}
}

func TestFig9DivisorSpikes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Fig. 9 sweep")
	}
	for _, id := range []string{"fig9a", "fig9b"} {
		tab := gen(t, id)
		gf := tab.Column(1)
		if len(gf) != 56 {
			t.Fatalf("%s has %d points, want 56", id, len(gf))
		}
		// Every recommended divisor beats its non-divisor neighbours
		// (7 and 8 are adjacent divisors, so only the outer
		// neighbour applies to each).
		for _, c := range []struct{ div, neighbor int }{
			{4, 3}, {4, 5}, {7, 6}, {8, 9}, {14, 13}, {14, 15}, {28, 27}, {28, 29},
		} {
			if gf[c.div-1] <= gf[c.neighbor-1] {
				t.Errorf("%s: P=%d (%.1f) does not beat non-divisor P=%d (%.1f)",
					id, c.div, gf[c.div-1], c.neighbor, gf[c.neighbor-1])
			}
		}
	}
}

func TestFig9KmeansMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Fig. 9 sweep")
	}
	tab := gen(t, "fig9c")
	times := tab.Column(1)
	// The decline is an envelope: divisor P values sit on a falling
	// floor while non-divisors spike above it (core-splitting
	// contention). Assert the envelope (running minimum) falls and
	// the total drop is large.
	runMin := times[0]
	for _, v := range times {
		if v < runMin {
			runMin = v
		}
		if v < runMin*0.98 {
			t.Fatalf("fig9c envelope rose: %v", times)
		}
	}
	if times[0] < times[len(times)-1]*5 {
		t.Fatalf("fig9c should fall steeply: first %.2fs vs last %.2fs", times[0], times[len(times)-1])
	}
}

func TestFig9HotspotDip(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Fig. 9 sweep")
	}
	tab := gen(t, "fig9d")
	times := tab.Column(1)
	_, minAt := stats.Min(times)
	p := minAt + 1
	if p < 28 || p > 45 {
		t.Fatalf("fig9d minimum at P=%d, paper dips at 33-37", p)
	}
}

func TestFig9NNFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Fig. 9 sweep")
	}
	tab := gen(t, "fig9e")
	times := tab.Column(1)
	if times[0] < times[3]*1.3 {
		t.Fatalf("fig9e: P=1 (%.1f) should be well above P=4 (%.1f)", times[0], times[3])
	}
	if !stats.IsRoughlyConstant(times[3:], 0.12) {
		t.Fatalf("fig9e not flat for P≥4: %v", times[3:])
	}
}

func TestFig10Optima(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Fig. 10 sweep")
	}
	// MM: GFLOPS peak at T=4 (row 1), T=1 far below.
	tab := gen(t, "fig10a")
	gf := tab.Column(1)
	_, peak := stats.Max(gf)
	if peak == 0 || peak > 3 {
		t.Errorf("fig10a peak at row %d, want small T: %v", peak, gf)
	}
	if gf[0] > gf[peak]*0.5 {
		t.Errorf("fig10a: T=1 (%.1f) should be far below the peak (%.1f)", gf[0], gf[peak])
	}
	// CF: interior optimum.
	tab = gen(t, "fig10b")
	gf = tab.Column(1)
	_, peak = stats.Max(gf)
	if peak == 0 || peak == len(gf)-1 {
		t.Errorf("fig10b optimum at an edge: %v", gf)
	}
	// SRAD: optimum at large T (paper 400).
	tab = gen(t, "fig10f")
	times := tab.Column(1)
	_, minAt := stats.Min(times)
	x := tab.Column(0)
	if x[minAt] < 100 || x[minAt] > 2500 {
		t.Errorf("fig10f optimum at T=%.0f, paper: 400 (%v)", x[minAt], times)
	}
}

func TestFig11Scaling(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Fig. 11 run")
	}
	tab := gen(t, "fig11")
	for i, row := range tab.Rows {
		one, two, proj := tab.Column(1)[i], tab.Column(2)[i], tab.Column(3)[i]
		if !(one < two && two < proj) {
			t.Errorf("fig11 row %v: want 1-mic %.1f < 2-mics %.1f < projected %.1f", row[0], one, two, proj)
		}
	}
}

func TestHeuristicsReduceSearchSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("tuner study")
	}
	tab := gen(t, "heuristics")
	points := tab.Column(1)
	if len(points) != 3 {
		t.Fatalf("heuristics table malformed: %+v", tab.Rows)
	}
	if points[1] >= points[0]/4 {
		t.Fatalf("pruned space %v not ≪ exhaustive %v", points[1], points[0])
	}
	if points[2] >= points[1] {
		t.Fatalf("coordinate descent (%v evals) should beat the pruned scan (%v)", points[2], points[1])
	}
	best := tab.Column(4)
	if best[1] > best[0]*1.10 {
		t.Fatalf("pruned optimum %.2fms more than 10%% worse than exhaustive %.2fms", best[1], best[0])
	}
	if best[2] > best[0]*1.10 {
		t.Fatalf("descent optimum %.2fms more than 10%% worse than exhaustive %.2fms", best[2], best[0])
	}
}
