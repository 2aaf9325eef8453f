package sched

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/sim"
	"micstream/internal/workload"
)

// Load-imbalance patterns: per-tenant offered load expressed as job
// counts, following the four-way taxonomy used by the streaming
// follow-up studies (balanced through severe skew). Tenant D offers
// 16× tenant A's load under "severe".
var patternWeights = map[string][]int{
	"balanced": {20, 20, 20, 20},
	"mild":     {10, 20, 30, 40},
	"moderate": {5, 15, 30, 50},
	"severe":   {5, 10, 40, 80},
}

// Patterns lists the built-in load-imbalance pattern names in stable
// order.
func Patterns() []string {
	names := make([]string, 0, len(patternWeights))
	for name := range patternWeights {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PatternWeights returns the per-tenant job-count weights of a
// built-in pattern.
func PatternWeights(name string) ([]int, error) {
	w, ok := patternWeights[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown pattern %q (have %v)", name, Patterns())
	}
	return append([]int(nil), w...), nil
}

// ScenarioConfig parameterizes a synthetic multi-tenant scenario:
// four tenants (A-D) submitting identical offload jobs at rates set by
// a load-imbalance pattern, with arrivals drawn from a deterministic
// arrival process over a fixed window.
type ScenarioConfig struct {
	// Pattern is the load-imbalance pattern name (default "balanced").
	Pattern string
	// Arrival is the arrival process: any name workload.Arrivals
	// accepts — "poisson", "bursty", "heavytail", "diurnal",
	// "correlated" (default "poisson").
	Arrival string
	// Seed drives every random draw (default 1).
	Seed uint64
	// JobScale multiplies the pattern's per-tenant job counts
	// (default 1).
	JobScale int
	// WindowNs is the arrival window; tenant rates are weight/window
	// (default 40 ms).
	WindowNs int64
	// TilesPerJob is how many H2D+kernel+D2H tasks one job carries
	// (default 2).
	TilesPerJob int
	// KernelFlops is the total useful work of one job (default 2e8 —
	// about a millisecond on a quarter-device partition).
	KernelFlops float64
	// XferBytes is the total per-direction transfer volume of one job
	// (default 1 MiB).
	XferBytes int64
	// SizeSpread makes job sizes heterogeneous: each job's kernel
	// work is KernelFlops scaled by SizeSpread^u for u uniform in
	// [-1, 1], so jobs span a SizeSpread² range with geometric mean
	// KernelFlops. 0 defaults to 4 (a 16× light-to-heavy range, the
	// mix that separates cost-aware from arrival-order policies); 1
	// makes every job identical.
	SizeSpread float64
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	c.Pattern = cmp.Or(c.Pattern, "balanced")
	c.JobScale = cmp.Or(c.JobScale, 1)
	return c
}

// TenantNames returns the scenario's tenant labels ("A".."D").
func TenantNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	return names
}

// TileJobs is the core the scheduler's and the cluster's scenario
// builders share: the arrival process and the shape of one tiled
// offload job, whose TilesPerJob H2D+kernel+D2H tasks all move one
// tile of a shared input and output buffer. Init applies the defaults
// ScenarioConfig documents to the zero fields.
type TileJobs struct {
	Arrival     string
	Seed        uint64
	WindowNs    int64
	TilesPerJob int
	KernelFlops float64
	XferBytes   int64
	SizeSpread  float64
	// TileBytes is one tile's transfer size, set by Init.
	TileBytes int

	in, out *hstreams.Buffer
}

// Init fills the zero fields with their defaults, validates the shape,
// and allocates the shared buffers on ctx as prefix/in and prefix/out.
// A functional context moves real data on every transfer, so its
// buffers need real backing; timing-only contexts use data-less
// virtual buffers.
func (t *TileJobs) Init(ctx *hstreams.Context, prefix string) error {
	t.Arrival = cmp.Or(t.Arrival, "poisson")
	t.Seed = cmp.Or(t.Seed, 1)
	t.WindowNs = cmp.Or(t.WindowNs, 40_000_000)
	t.TilesPerJob = cmp.Or(t.TilesPerJob, 2)
	t.KernelFlops = cmp.Or(t.KernelFlops, 2e8)
	t.XferBytes = cmp.Or(t.XferBytes, 1<<20)
	t.SizeSpread = cmp.Or(t.SizeSpread, 4)
	if t.WindowNs <= 0 || t.TilesPerJob < 1 || t.SizeSpread < 1 || t.KernelFlops < 0 || t.XferBytes < 0 {
		return fmt.Errorf("invalid job shape %+v", *t)
	}
	t.TileBytes = max(int(t.XferBytes)/t.TilesPerJob, 1)
	if ctx.Config().ExecuteKernels {
		t.in = hstreams.Alloc1D(ctx, prefix+"/in", make([]byte, t.TileBytes))
		t.out = hstreams.Alloc1D(ctx, prefix+"/out", make([]byte, t.TileBytes))
	} else {
		t.in = hstreams.AllocVirtual(ctx, prefix+"/in", t.TileBytes, 1)
		t.out = hstreams.AllocVirtual(ctx, prefix+"/out", t.TileBytes, 1)
	}
	return nil
}

// Arrivals draws n arrival offsets from the arrival process, seeded
// with seed, at a mean gap that spreads them over the window.
func (t *TileJobs) Arrivals(seed uint64, n int) ([]int64, error) {
	return workload.Arrivals(t.Arrival, seed, n, float64(t.WindowNs)/float64(max(n, 1)))
}

// Tasks returns one job's tiles, each kernel named kernel. The job's
// work is KernelFlops scaled by SizeSpread^(2u-1), so u uniform in
// [0, 1) spreads jobs over a SizeSpread² range.
func (t *TileJobs) Tasks(kernel string, u float64) []*core.Task {
	flops := t.KernelFlops / float64(t.TilesPerJob) * math.Pow(t.SizeSpread, 2*u-1)
	tasks := make([]*core.Task, t.TilesPerJob)
	for k := range tasks {
		tasks[k] = &core.Task{
			ID:         k,
			H2D:        []core.TransferSpec{core.Xfer(t.in, 0, t.TileBytes)},
			Cost:       device.KernelCost{Name: kernel, Flops: flops, Bytes: float64(t.TileBytes) * 2},
			D2H:        []core.TransferSpec{core.Xfer(t.out, 0, t.TileBytes)},
			StreamHint: -1,
		}
	}
	return tasks
}

// BuildScenario allocates the scenario's shared virtual buffers on ctx
// and returns the full job list in tenant-major order, ready for
// Scheduler.Run. Everything is a pure function of the configuration,
// so the same config always produces the same jobs.
func BuildScenario(ctx *hstreams.Context, cfg ScenarioConfig) ([]Job, error) {
	cfg = cfg.withDefaults()
	weights, err := PatternWeights(cfg.Pattern)
	if err != nil {
		return nil, err
	}
	if cfg.JobScale < 0 {
		return nil, fmt.Errorf("sched: invalid scenario config %+v", cfg)
	}
	tj := TileJobs{Arrival: cfg.Arrival, Seed: cfg.Seed, WindowNs: cfg.WindowNs, TilesPerJob: cfg.TilesPerJob,
		KernelFlops: cfg.KernelFlops, XferBytes: cfg.XferBytes, SizeSpread: cfg.SizeSpread}
	if err := tj.Init(ctx, "scenario"); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}

	// One seed per tenant, drawn from the scenario seed so tenants
	// have independent but reproducible arrival streams.
	seeder := workload.NewRNG(tj.Seed)
	var jobs []Job
	for ti, tenant := range TenantNames(len(weights)) {
		count := weights[ti] * cfg.JobScale
		arrivals, err := tj.Arrivals(seeder.Uint64(), count)
		if err != nil {
			return nil, err
		}
		sizes := workload.NewRNG(seeder.Uint64())
		for j := range count {
			id := len(jobs)
			jobs = append(jobs, Job{
				ID:      id,
				Tenant:  tenant,
				Arrival: sim.Time(arrivals[j]),
				Tasks:   tj.Tasks(fmt.Sprintf("%s/job%d", tenant, id), sizes.Float64()),
			})
		}
	}
	return jobs, nil
}
