package cluster

import (
	"cmp"
	"fmt"

	"micstream/internal/hstreams"
	"micstream/internal/residency"
	"micstream/internal/sched"
	"micstream/internal/sim"
	"micstream/internal/workload"
)

// ScenarioConfig parameterizes a synthetic cluster workload: Jobs
// tiled-offload jobs with geometrically spread sizes, a fraction
// carrying device affinity (their inputs resident on a device, so
// off-origin placement stages them through the host), arriving under a
// deterministic arrival process over a fixed window.
type ScenarioConfig struct {
	// Jobs is the job count (default 48).
	Jobs int
	// Seed drives every random draw (default 1).
	Seed uint64
	// Arrival is the arrival process: any name workload.Arrivals
	// accepts (default "poisson").
	Arrival string
	// WindowNs is the arrival window (default 40 ms).
	WindowNs int64
	// Tenants is how many tenant labels jobs cycle through
	// (default 4).
	Tenants int
	// TilesPerJob is how many H2D+kernel+D2H tasks one job carries
	// (default 2).
	TilesPerJob int
	// KernelFlops is one job's geometric-mean kernel work
	// (default 2e8).
	KernelFlops float64
	// XferBytes is one job's total per-direction transfer volume
	// (default 1 MiB).
	XferBytes int64
	// SizeSpread makes job sizes heterogeneous: each job's kernel
	// work is KernelFlops scaled by SizeSpread^u for u uniform in
	// [-1, 1]. 0 defaults to 4 (a 16× light-to-heavy range — the mix
	// that separates time-aware from count-based placement); 1 makes
	// every job identical.
	SizeSpread float64
	// AffinityFraction is the probability a job's inputs are
	// device-resident (Origin set, StagingBytes = XferBytes); 0 means
	// every job is host-resident. Negative disables explicitly.
	AffinityFraction float64
	// Origins lists the devices affinity jobs cycle through (default
	// {0}: all device-resident data starts on device 0, the Fig. 11
	// shape where the first MIC holds the factorization's panels).
	Origins []int
	// Datasets makes the device-resident jobs share inputs: affine
	// jobs cycle through this many named datasets, each declaring its
	// read regions so a residency-enabled cluster can serve repeats
	// from cache. Jobs of one dataset share one origin (cycled from
	// Origins by dataset). 0 keeps every job's input private — no
	// regions are declared and the cache has nothing to reuse.
	Datasets int
	// WriteFraction is the probability a dataset-reading job also
	// overwrites its region, invalidating cached copies elsewhere at
	// its completion. 0 (or negative) means read-only; only consulted
	// when Datasets > 0.
	WriteFraction float64
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	c.Jobs = cmp.Or(c.Jobs, 48)
	c.Tenants = cmp.Or(c.Tenants, 4)
	if len(c.Origins) == 0 {
		c.Origins = []int{0}
	}
	return c
}

// BuildScenario allocates the scenario's shared virtual buffers on ctx
// and returns the job list in arrival-offset order, ready for
// Cluster.Run. Everything is a pure function of the configuration.
func BuildScenario(ctx *hstreams.Context, cfg ScenarioConfig) ([]Job, error) {
	cfg = cfg.withDefaults()
	if cfg.Jobs < 0 || cfg.Tenants < 1 || cfg.AffinityFraction > 1 || cfg.Datasets < 0 || cfg.WriteFraction > 1 {
		return nil, fmt.Errorf("cluster: invalid scenario config %+v", cfg)
	}
	for _, d := range cfg.Origins {
		if d < 0 || d >= ctx.NumDevices() {
			return nil, fmt.Errorf("cluster: scenario origin device %d out of range [0,%d)", d, ctx.NumDevices())
		}
	}
	tj := sched.TileJobs{Arrival: cfg.Arrival, Seed: cfg.Seed, WindowNs: cfg.WindowNs, TilesPerJob: cfg.TilesPerJob,
		KernelFlops: cfg.KernelFlops, XferBytes: cfg.XferBytes, SizeSpread: cfg.SizeSpread}
	if err := tj.Init(ctx, "cluster-scenario"); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	arrivals, err := tj.Arrivals(tj.Seed, cfg.Jobs)
	if err != nil {
		return nil, err
	}
	rng := workload.NewRNG(tj.Seed ^ 0x636c7573746572) // "cluster"
	tenants := sched.TenantNames(cfg.Tenants)

	jobs := make([]Job, cfg.Jobs)
	affine := 0
	for j := range jobs {
		job := Job{
			ID:      j,
			Tenant:  tenants[j%cfg.Tenants],
			Arrival: sim.Time(arrivals[j]),
			Tasks:   tj.Tasks(fmt.Sprintf("job%d", j), rng.Float64()),
			Origin:  -1,
		}
		if rng.Float64() < cfg.AffinityFraction {
			if cfg.Datasets > 0 {
				// Dataset-keyed jobs: input is one of Datasets shared
				// allocations, its origin fixed per dataset so every
				// reader agrees where the data lives, its region
				// declared tile by tile for the residency cache.
				ds := affine % cfg.Datasets
				job.Origin = cfg.Origins[ds%len(cfg.Origins)]
				job.Reads = []residency.Region{{
					Dataset:   fmt.Sprintf("ds%d", ds),
					First:     0,
					Tiles:     tj.TilesPerJob,
					TileBytes: int64(tj.TileBytes),
				}}
				job.StagingBytes = residency.TotalBytes(job.Reads)
				// Guard the draw so read-only configs consume the same
				// random stream as before Datasets existed.
				if cfg.WriteFraction > 0 && rng.Float64() < cfg.WriteFraction {
					job.Writes = job.Reads
				}
			} else {
				job.Origin = cfg.Origins[affine%len(cfg.Origins)]
				job.StagingBytes = tj.XferBytes
			}
			affine++
		}
		jobs[j] = job
	}
	return jobs, nil
}
