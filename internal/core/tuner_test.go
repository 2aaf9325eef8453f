package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestTunersAgreeOnDegenerateSpaces holds all five tuners to one
// behaviour: "empty" only when the space has no points, and otherwise
// an error saying that no evaluated point had a finite time.
func TestTunersAgreeOnDegenerateSpaces(t *testing.T) {
	tuners := []struct {
		name string
		run  func(SearchSpace, EvalFunc) (evals int, err error)
	}{
		{"Tune", func(s SearchSpace, f EvalFunc) (int, error) {
			r, err := Tune(s, f)
			return r.Evaluations, err
		}},
		{"TuneGuided", func(s SearchSpace, f EvalFunc) (int, error) {
			r, err := TuneGuided(s, f, f, 3)
			return r.Evaluations, err
		}},
		{"TuneCoordinateDescent", func(s SearchSpace, f EvalFunc) (int, error) {
			r, err := TuneCoordinateDescent(s, f, 3)
			return r.Evaluations, err
		}},
		{"TuneCluster", func(s SearchSpace, f EvalFunc) (int, error) {
			r, err := TuneCluster([]int{1}, s, atD1(f))
			return r.Evaluations, err
		}},
		{"TuneClusterGuided", func(s SearchSpace, f EvalFunc) (int, error) {
			r, err := TuneClusterGuided([]int{1}, s, atD1(f), atD1(f), 3)
			return r.Evaluations, err
		}},
	}
	inf := func(int, int) (float64, error) { return math.Inf(1), nil }
	square := SearchSpace{Partitions: []int{2, 4}, TilesFor: func(int) []int { return []int{4, 8} }}
	spaces := []struct {
		name  string
		space SearchSpace
		want  string
	}{
		{"no partitions", SearchSpace{TilesFor: func(int) []int { return []int{1} }}, "core: empty search space"},
		{"no tiles", SearchSpace{Partitions: []int{1, 2}, TilesFor: func(int) []int { return nil }}, "core: empty search space"},
		{"all +Inf", square, "points had a finite time"},
	}
	for _, tu := range tuners {
		for _, sp := range spaces {
			t.Run(tu.name+"/"+sp.name, func(t *testing.T) {
				evals, err := tu.run(sp.space, inf)
				if err == nil || !strings.Contains(err.Error(), sp.want) {
					t.Fatalf("error %v, want one containing %q", err, sp.want)
				}
				if evals != 0 {
					t.Fatalf("failed search reported %d evaluations", evals)
				}
			})
		}
	}
}

// atD1 lifts a single-device function to the cluster tuners.
func atD1(f EvalFunc) ClusterEvalFunc {
	return func(d, p, t int) (float64, error) {
		if d != 1 {
			return 0, errBoom
		}
		return f(p, t)
	}
}

// sameAtD1 reports whether a single-device result equals a cluster
// result found at D=1.
func sameAtD1(a TuneResult, b ClusterTuneResult) bool {
	return b.Devices == 1 && a.Partitions == b.Partitions && a.Tiles == b.Tiles &&
		a.Seconds == b.Seconds && a.Evaluations == b.Evaluations
}

// randomLandscape builds a space whose partition and tile lists are in
// random order, with quantized times so that many points tie.
func randomLandscape(rng *rand.Rand) (SearchSpace, EvalFunc, EvalFunc) {
	perm := func(n, keep int) []int {
		out := rng.Perm(n)[:keep]
		for i := range out {
			out[i]++
		}
		return out
	}
	tiles := map[int][]int{}
	parts := perm(8, 1+rng.Intn(8))
	for _, p := range parts {
		tiles[p] = perm(16, rng.Intn(5))
	}
	eval, predict := map[[2]int]float64{}, map[[2]int]float64{}
	for _, p := range parts {
		for _, t := range tiles[p] {
			eval[[2]int{p, t}] = float64(rng.Intn(3))
			predict[[2]int{p, t}] = float64(rng.Intn(2))
		}
	}
	space := SearchSpace{Partitions: parts, TilesFor: func(p int) []int { return tiles[p] }}
	lookup := func(m map[[2]int]float64) EvalFunc {
		return func(p, t int) (float64, error) { return m[[2]int{p, t}], nil }
	}
	return space, lookup(predict), lookup(eval)
}

// TestSingleDeviceTunersAreClusterTunersAtD1 checks that Tune and
// TuneGuided are TuneCluster and TuneClusterGuided on one device, and
// pins the tie-breaks: the exhaustive search keeps the first strictly
// fastest point in enumeration order, and the guided search measures
// tied predictions lowest (P, T) first.
func TestSingleDeviceTunersAreClusterTunersAtD1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		space, predict, eval := randomLandscape(rng)
		var order [][2]int
		for _, p := range space.Partitions {
			for _, tl := range space.TilesFor(p) {
				order = append(order, [2]int{p, tl})
			}
		}
		if len(order) == 0 {
			continue
		}

		ex, err := Tune(space, eval)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := TuneCluster([]int{1}, space, atD1(eval))
		if err != nil {
			t.Fatal(err)
		}
		if !sameAtD1(ex, cl) {
			t.Fatalf("trial %d: Tune %+v, TuneCluster at D=1 %+v", trial, ex, cl)
		}
		first, firstSec := order[0], math.Inf(1)
		for _, pt := range order {
			if sec, _ := eval(pt[0], pt[1]); sec < firstSec {
				first, firstSec = pt, sec
			}
		}
		if ex.Partitions != first[0] || ex.Tiles != first[1] || ex.Evaluations != len(order) {
			t.Fatalf("trial %d: Tune chose (%d,%d) after %d evaluations, want first fastest %v after %d",
				trial, ex.Partitions, ex.Tiles, ex.Evaluations, first, len(order))
		}

		topK := 1 + rng.Intn(len(order))
		var measured [][2]int
		recording := func(p, tl int) (float64, error) {
			measured = append(measured, [2]int{p, tl})
			return eval(p, tl)
		}
		gd, err := TuneGuided(space, predict, recording, topK)
		if err != nil {
			t.Fatal(err)
		}
		gc, err := TuneClusterGuided([]int{1}, space, atD1(predict), atD1(eval), topK)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAtD1(gd, gc) {
			t.Fatalf("trial %d: TuneGuided %+v, TuneClusterGuided at D=1 %+v", trial, gd, gc)
		}
		want := append([][2]int(nil), order...)
		sort.Slice(want, func(i, j int) bool {
			a, _ := predict(want[i][0], want[i][1])
			b, _ := predict(want[j][0], want[j][1])
			if a != b {
				return a < b
			}
			if want[i][0] != want[j][0] {
				return want[i][0] < want[j][0]
			}
			return want[i][1] < want[j][1]
		})
		want = want[:topK]
		if len(measured) != len(want) {
			t.Fatalf("trial %d: guided measured %v, want %v", trial, measured, want)
		}
		for i := range want {
			if measured[i] != want[i] {
				t.Fatalf("trial %d: guided measured %v, want %v", trial, measured, want)
			}
		}
	}
}
