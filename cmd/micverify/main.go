// Command micverify runs every application of the suite in functional
// mode at a small scale and checks each result against its host
// reference — the release self-check that proves the platform's
// scheduling semantics preserve program meaning under tiling, stream
// parallelism, cross-stream dependencies and multi-device staging.
//
// Usage:
//
//	micverify [-seed 1]
//
// Exit status 0 means every application verified.
package main

import (
	"flag"
	"fmt"
	"os"

	"micstream/internal/apps/cf"
	"micstream/internal/apps/hbench"
	"micstream/internal/apps/hotspot"
	"micstream/internal/apps/kmeans"
	"micstream/internal/apps/mm"
	"micstream/internal/apps/nn"
	"micstream/internal/apps/srad"
	"micstream/internal/core"
)

func main() {
	seed := flag.Uint64("seed", 1, "input generator seed")
	flag.Parse()

	// One rig serves every check, so each runs on a reshaped platform.
	rig := new(core.Rig)
	checks := []struct {
		name string
		run  func(seed uint64) error
	}{
		{"hbench (B[i]=A[i]+α, 4 streams × 8 tiles)", func(s uint64) error {
			app, err := hbench.New(hbench.Params{Elements: 1 << 14, Iterations: 3, Alpha: 1.5, Functional: true, Seed: s})
			if err != nil {
				return err
			}
			if _, err := app.RunStreamed(4, 8); err != nil {
				return err
			}
			return app.Verify()
		}},
		{"mm (tiled GEMM, 4 streams, 4×4 grid)", func(s uint64) error {
			app, err := mm.New(mm.Params{N: 64, Functional: true, Seed: s})
			if err != nil {
				return err
			}
			if _, err := app.Run(rig, 4, 4); err != nil {
				return err
			}
			return app.VerifyGrid(4)
		}},
		{"cf (Cholesky DAG, 4 streams, 4×4 tiles)", func(s uint64) error {
			app, err := cf.New(cf.Params{N: 96, Functional: true, Seed: s})
			if err != nil {
				return err
			}
			if _, err := app.Run(rig, 1, 4, 4); err != nil {
				return err
			}
			return app.Verify()
		}},
		{"cf multi-MIC (2 devices, cross-device staging)", func(s uint64) error {
			app, err := cf.New(cf.Params{N: 96, Functional: true, Seed: s})
			if err != nil {
				return err
			}
			if _, err := app.Run(rig, 2, 2, 4); err != nil {
				return err
			}
			return app.Verify()
		}},
		{"kmeans (iterative, 4 streams × 8 tasks)", func(s uint64) error {
			app, err := kmeans.New(kmeans.Params{N: 600, Features: 3, K: 4, Iterations: 5, Functional: true, Seed: s})
			if err != nil {
				return err
			}
			if _, err := app.Run(rig, 4, 8); err != nil {
				return err
			}
			return app.Verify()
		}},
		{"hotspot (barrier stencil, 4 streams × 6 stripes)", func(s uint64) error {
			app, err := hotspot.New(hotspot.Params{Dim: 24, Iterations: 4, Functional: true, Seed: s})
			if err != nil {
				return err
			}
			if _, err := app.Run(rig, 4, 6); err != nil {
				return err
			}
			return app.Verify()
		}},
		{"hotspot pipelined (fine-grained halo deps)", func(s uint64) error {
			app, err := hotspot.New(hotspot.Params{Dim: 24, Iterations: 4, Functional: true, Seed: s})
			if err != nil {
				return err
			}
			if _, err := app.RunPipelined(rig, 4, 6); err != nil {
				return err
			}
			return app.Verify()
		}},
		{"nn (k-nearest, 4 streams × 8 chunks)", func(s uint64) error {
			app, err := nn.New(nn.Params{N: 4000, K: 10, TargetLat: 40, TargetLon: 120, Functional: true, Seed: s})
			if err != nil {
				return err
			}
			if _, err := app.Run(rig, 4, 8); err != nil {
				return err
			}
			return app.Verify()
		}},
		{"srad (3-phase diffusion, 4 streams × 8 stripes)", func(s uint64) error {
			app, err := srad.New(srad.Params{Dim: 32, Iterations: 4, Lambda: 0.5, Functional: true, Seed: s})
			if err != nil {
				return err
			}
			if _, err := app.Run(rig, 4, 8); err != nil {
				return err
			}
			return app.Verify()
		}},
	}

	failed := 0
	for _, c := range checks {
		if err := c.run(*seed); err != nil {
			fmt.Printf("FAIL  %-50s %v\n", c.name, err)
			failed++
			continue
		}
		fmt.Printf("ok    %s\n", c.name)
	}
	if failed > 0 {
		fmt.Printf("\n%d of %d checks failed\n", failed, len(checks))
		os.Exit(1)
	}
	fmt.Printf("\nall %d functional checks verified against host references\n", len(checks))
}
