package hstreams_test

import (
	"runtime"
	"testing"

	"micstream/internal/apps/cf"
	"micstream/internal/apps/srad"
	"micstream/internal/core"
	"micstream/internal/hstreams"
)

// TestPriceMemoEvaluationsPinned pins how many kernels two application
// runs price in closed form, so a change that defeats the streams'
// price memos fails here and not only in a benchmark. The SRAD run
// enqueues 6,000 kernels, three kinds of one stripe size per stream,
// and prices 12; the Cholesky run enqueues 120 kernels of four kinds
// and prices each kind once per stream that runs it. A run is one
// goroutine in virtual time, so the counts are the same at any
// GOMAXPROCS; the test checks one and two.
func TestPriceMemoEvaluationsPinned(t *testing.T) {
	sradApp, err := srad.New(srad.Params{Dim: 1000, Iterations: 5, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cfApp, err := cf.New(cf.Params{N: 4800})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func(*core.Rig) (core.Result, error)
		want int
	}{
		{"srad dim 1000, 5 iterations, P=4, T=400", func(r *core.Rig) (core.Result, error) { return sradApp.Run(r, 4, 400) }, 12},
		{"cf N=4800, 8x8 tiles, P=4", func(r *core.Rig) (core.Result, error) { return cfApp.Run(r, 1, 4, 8) }, 16},
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			// A rig keeps its context across runs, so the context
			// its first Reset returns is the one the run reshapes.
			var rig core.Rig
			ctx, _, err := rig.Reset(hstreams.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tc.run(&rig); err != nil {
				t.Fatal(err)
			}
			if got := hstreams.PricesEvaluated(ctx); got != tc.want {
				t.Errorf("GOMAXPROCS=%d %s: %d kernels priced in closed form, want %d", procs, tc.name, got, tc.want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
