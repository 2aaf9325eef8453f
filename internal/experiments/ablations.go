package experiments

import (
	"fmt"

	"micstream/internal/apps/cf"
	"micstream/internal/apps/hotspot"
	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/pcie"
)

func init() {
	register("ablation-duplex", AblationDuplex)
	register("ablation-contention", AblationContention)
	register("ablation-alloc", AblationAlloc)
	register("ext-hotspot-pipe", ExtHotspotPipelined)
	register("ext-multimic", ExtMultiMIC)
}

// AblationDuplex reruns Fig. 5's ID pattern (hd+dh = 16) on a
// full-duplex link: the constant line the paper uses to conclude
// serialization turns into a tent that dips when traffic balances —
// what the figure would look like on hardware with concurrent
// bidirectional DMA.
func AblationDuplex() (*Table, error) {
	const block = 1 << 20
	run := func(full bool, hd, dh int) (float64, error) {
		link := pcie.DefaultConfig()
		link.FullDuplex = full
		ctx, err := hstreams.Init(hstreams.Config{Partitions: 2, Link: link})
		if err != nil {
			return 0, err
		}
		buf := hstreams.AllocVirtual(ctx, "b", block, 1)
		for i := 0; i < hd; i++ {
			if _, err := ctx.Stream(0).EnqueueH2D(buf, 0, block, i); err != nil {
				return 0, err
			}
		}
		for i := 0; i < dh; i++ {
			if _, err := ctx.Stream(1).EnqueueD2H(buf, 0, block, hd+i); err != nil {
				return 0, err
			}
		}
		return ctx.Barrier().Sub(0).Milliseconds(), nil
	}
	t := &Table{
		ID:      "ablation-duplex",
		Title:   "Fig. 5 ID pattern under half- vs full-duplex DMA",
		Columns: []string{"hd", "half-duplex[ms]", "full-duplex[ms]"},
	}
	for hd := 0; hd <= 16; hd++ {
		half, err := run(false, hd, 16-hd)
		if err != nil {
			return nil, err
		}
		full, err := run(true, hd, 16-hd)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", hd), fmtMS(half), fmtMS(full)})
	}
	t.Notes = append(t.Notes,
		"half-duplex is constant (the paper's observed platform); full-duplex dips to half at a balanced split — the experiment distinguishes the two designs")
	return t, nil
}

// computeSweep measures a generic compute-bound tiled workload across
// partition counts under a given device model.
func computeSweep(dev device.Config, parts []int) ([]float64, error) {
	var out []float64
	for _, p := range parts {
		ctx, err := hstreams.Init(hstreams.Config{Partitions: p, Device: dev})
		if err != nil {
			return nil, err
		}
		var tasks []*core.Task
		for t := 0; t < 56; t++ {
			tasks = append(tasks, &core.Task{
				ID:         t,
				Cost:       device.KernelCost{Name: "work", Flops: 2e9, Efficiency: 0.5, ScalingPenalty: 0.1},
				StreamHint: -1,
			})
		}
		res, err := core.Run(ctx, tasks, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, res.Wall.Milliseconds())
	}
	return out, nil
}

// AblationContention removes the shared-core contention penalty: the
// divisor-of-56 sawtooth of Figs. 9a/9b flattens, isolating the model
// term responsible for the paper's partition-count guideline.
func AblationContention() (*Table, error) {
	parts := []int{4, 5, 7, 9, 14, 15, 28, 29}
	withPenalty, err := computeSweep(device.Xeon31SP(), parts)
	if err != nil {
		return nil, err
	}
	smooth := device.Xeon31SP()
	smooth.ContentionPenalty = 1.0
	withoutPenalty, err := computeSweep(smooth, parts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-contention",
		Title:   "divisor-of-56 effect with and without shared-core contention",
		Columns: []string{"partitions", "default[ms]", "no-contention[ms]"},
	}
	for i, p := range parts {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", p), fmtMS(withPenalty[i]), fmtMS(withoutPenalty[i])})
	}
	t.Notes = append(t.Notes,
		"without the penalty, non-divisor partition counts stop losing: the guideline P ∈ {2,4,7,8,14,28,56} exists because of core splitting")
	return t, nil
}

// AblationAlloc removes per-launch temporary allocation: Kmeans'
// monotone improvement with partitions (Fig. 9c) flattens, isolating
// the paper's §V-B-1 explanation.
func AblationAlloc() (*Table, error) {
	run := func(alloc int64, p int) (float64, error) {
		ctx, err := hstreams.Init(hstreams.Config{Partitions: p})
		if err != nil {
			return 0, err
		}
		var tasks []*core.Task
		for t := 0; t < 56; t++ {
			tasks = append(tasks, &core.Task{
				ID: t,
				Cost: device.KernelCost{
					Name:                "assign",
					Flops:               16.3e6,
					AllocBytesPerThread: alloc,
					Efficiency:          0.0465,
				},
				StreamHint: -1,
			})
		}
		res, err := core.Run(ctx, tasks, 0)
		if err != nil {
			return 0, err
		}
		return res.Wall.Milliseconds(), nil
	}
	t := &Table{
		ID:      "ablation-alloc",
		Title:   "Kmeans-shaped workload with and without per-launch allocation",
		Columns: []string{"partitions", "with-alloc[ms]", "no-alloc[ms]"},
	}
	for _, p := range []int{1, 2, 4, 8, 14, 28, 56} {
		with, err := run(128<<10, p)
		if err != nil {
			return nil, err
		}
		without, err := run(0, p)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", p), fmtMS(with), fmtMS(without)})
	}
	t.Notes = append(t.Notes,
		"the with-alloc column falls steeply over P (Fig. 9c's shape); without allocation the sweep is nearly flat — streams help Kmeans through allocation, not overlap")
	return t, nil
}

// ExtHotspotPipelined measures the §VII future-work transformation:
// Hotspot rebuilt with fine-grained per-tile dependencies instead of
// global barriers, turning the paper's canonical non-overlappable
// application into an overlappable one.
func ExtHotspotPipelined() (*Table, error) {
	t := &Table{
		ID:      "ext-hotspot-pipe",
		Title:   "Hotspot: barrier version vs fine-grained pipelined version (P=4, T=16)",
		Columns: []string{"dataset", "barrier[s]", "pipelined[s]", "gain", "overlap"},
	}
	const iters, paperIters = 5, 50
	for _, d := range []int{4096, 8192, 16384} {
		app, err := hotspot.New(hotspot.Params{Dim: d, Iterations: iters})
		if err != nil {
			return nil, err
		}
		barrier, err := app.Run(4, 16)
		if err != nil {
			return nil, err
		}
		pipe, err := app.RunPipelined(4, 16)
		if err != nil {
			return nil, err
		}
		scale := float64(paperIters) / float64(iters)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d^2", d),
			fmtS(barrier.Wall.Seconds() * scale),
			fmtS(pipe.Wall.Seconds() * scale),
			fmt.Sprintf("%+.1f%%", (barrier.Wall.Seconds()/pipe.Wall.Seconds()-1)*100),
			fmt.Sprintf("%.0f%%", pipe.OverlapFraction*100),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("run with %d iterations, scaled ×%d to the paper's %d", iters, paperIters/iters, paperIters),
		"identical numerical results (tested); the stencil's halo dependency is local, so global barriers were never necessary")
	return t, nil
}

// ExtMultiMIC extends Fig. 11 beyond two devices: CF at D=16000 on
// 1..4 MICs, with the projected linear scaling for comparison.
func ExtMultiMIC() (*Table, error) {
	app, err := cf.New(cf.Params{N: 16000})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-multimic",
		Title:   "CF scaling on 1..4 MICs (D=16000)",
		Columns: []string{"devices", "GFLOPS", "projected", "efficiency"},
	}
	var base float64
	for devs := 1; devs <= 4; devs++ {
		r, err := app.Run(devs, 4, 16)
		if err != nil {
			return nil, err
		}
		if devs == 1 {
			base = r.GFlops
		}
		projected := base * float64(devs)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", devs), fmtGF(r.GFlops), fmtGF(projected),
			fmt.Sprintf("%.0f%%", r.GFlops/projected*100),
		})
	}
	t.Notes = append(t.Notes,
		"parallel efficiency decays with device count: every cross-device tile staging crosses two PCIe links and the host")
	return t, nil
}
