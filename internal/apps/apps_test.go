package apps_test

// Cross-configuration equivalence: an application's functional result
// must be identical regardless of how many partitions and tasks the
// runtime uses — scheduling must never change program meaning. These
// tests sweep randomized (P, T) configurations for each application
// and compare against the single-stream result.

import (
	"testing"

	"micstream/internal/apps/hbench"
	"micstream/internal/apps/hotspot"
	"micstream/internal/apps/kmeans"
	"micstream/internal/apps/nn"
	"micstream/internal/apps/srad"
	"micstream/internal/core"
	"micstream/internal/workload"
)

func TestPropertyHBenchConfigInvariance(t *testing.T) {
	rng := workload.NewRNG(101)
	for trial := 0; trial < 10; trial++ {
		app, err := hbench.New(hbench.Params{
			Elements: 512 + rng.Intn(4096), Iterations: 1 + rng.Intn(4),
			Alpha: float32(rng.Range(-2, 2)), Functional: true, Seed: uint64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		p := 1 + rng.Intn(16)
		tiles := 1 + rng.Intn(32)
		if _, err := app.RunStreamed(p, tiles); err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(); err != nil {
			t.Fatalf("trial %d (P=%d T=%d): %v", trial, p, tiles, err)
		}
	}
}

func TestPropertyNNConfigInvariance(t *testing.T) {
	rng := workload.NewRNG(202)
	for trial := 0; trial < 8; trial++ {
		app, err := nn.New(nn.Params{
			N: 500 + rng.Intn(3000), K: 1 + rng.Intn(20),
			TargetLat: float32(rng.Range(0, 90)), TargetLon: float32(rng.Range(0, 180)),
			Functional: true, Seed: uint64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Run(1+rng.Intn(8), 1+rng.Intn(16)); err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestPropertyKmeansConfigInvariance(t *testing.T) {
	rng := workload.NewRNG(303)
	for trial := 0; trial < 6; trial++ {
		app, err := kmeans.New(kmeans.Params{
			N: 200 + rng.Intn(500), Features: 2 + rng.Intn(4),
			K: 2 + rng.Intn(3), Iterations: 1 + rng.Intn(5),
			Functional: true, Seed: uint64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Run(1+rng.Intn(8), 1+rng.Intn(8)); err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestPropertyHotspotConfigInvariance(t *testing.T) {
	rng := workload.NewRNG(404)
	for trial := 0; trial < 6; trial++ {
		dim := 12 + rng.Intn(20)
		app, err := hotspot.New(hotspot.Params{
			Dim: dim, Iterations: 1 + rng.Intn(4),
			Functional: true, Seed: uint64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		tasks := 1 + rng.Intn(dim-1)
		if rng.Intn(2) == 0 {
			if _, err := app.Run(1+rng.Intn(6), tasks); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := app.RunPipelined(1+rng.Intn(6), tasks); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.Verify(); err != nil {
			t.Fatalf("trial %d (dim=%d tasks=%d): %v", trial, dim, tasks, err)
		}
	}
}

func TestPropertySRADConfigInvariance(t *testing.T) {
	rng := workload.NewRNG(505)
	for trial := 0; trial < 5; trial++ {
		dim := 16 + rng.Intn(24)
		app, err := srad.New(srad.Params{
			Dim: dim, Iterations: 1 + rng.Intn(3), Lambda: 0.5,
			Functional: true, Seed: uint64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Run(1+rng.Intn(6), 1+rng.Intn(dim-1)); err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(); err != nil {
			t.Fatalf("trial %d (dim=%d): %v", trial, dim, err)
		}
	}
}

// A barrier-synchronized app reuses one core.Phase for every stage of
// every iteration, and each Reset recycles the stage before it, so the
// events of an iteration cost no heap objects once the first has run:
// a timing-only run of 8 iterations allocates no more objects than one
// of 2, up to a small constant for the growth of the engine heap and
// the stage recorder's interval lists.
func TestIterationsAllocateNoEvents(t *testing.T) {
	const slack = 16
	for _, c := range []struct {
		name string
		run  func(iters int) (core.Result, error)
	}{
		{"hotspot", func(iters int) (core.Result, error) {
			app, err := hotspot.New(hotspot.Params{Dim: 1024, Iterations: iters})
			if err != nil {
				return core.Result{}, err
			}
			return app.Run(4, 256)
		}},
		{"srad", func(iters int) (core.Result, error) {
			app, err := srad.New(srad.Params{Dim: 1024, Iterations: iters, Lambda: 0.5})
			if err != nil {
				return core.Result{}, err
			}
			return app.Run(4, 256)
		}},
	} {
		allocs := func(iters int) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := c.run(iters); err != nil {
					t.Fatal(err)
				}
			})
		}
		two, eight := allocs(2), allocs(8)
		t.Logf("%s: %.0f objects at 2 iterations, %.0f at 8", c.name, two, eight)
		if eight > two+slack {
			t.Errorf("%s: %.0f objects at 8 iterations, more than the %.0f at 2 plus %d", c.name, eight, two, slack)
		}
	}
}
