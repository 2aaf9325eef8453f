package telemetry

import (
	"micstream/internal/sim"
)

// DeviceMetrics is one device's state at a drain instant.
type DeviceMetrics struct {
	// Device is the device index.
	Device int
	// Queued is the committed-but-undispatched job count; InFlight
	// the dispatched-but-unfinished count.
	Queued, InFlight int
	// Backlog is the summed service estimates of the queued jobs.
	Backlog sim.Duration
	// KernelBusy and LinkBusy are the device's partition-server and
	// DMA-server occupancy so far this run (sim.Server accounting);
	// Utilization is KernelBusy over the elapsed run span times the
	// partition count — the live form of the Result's per-device
	// utilization.
	KernelBusy, LinkBusy sim.Duration
	Utilization          float64
	// StagedBytes is the cumulative staging volume charged onto this
	// device's link so far this run; ResidentBytes is the residency
	// cache's current footprint (0 cache-less).
	StagedBytes, ResidentBytes int64
}

// TenantMetrics is one tenant's accounting at a drain instant, over
// the jobs completed so far.
type TenantMetrics struct {
	// Tenant is the tenant label.
	Tenant string
	// Done is the completed-job count so far.
	Done int
	// Throughput is completed jobs per second of elapsed run span.
	Throughput float64
	// MeanLatency and P95 summarize the completed jobs' response
	// times so far.
	MeanLatency, P95 sim.Duration
}

// MetricsSnapshot is the cluster's state captured at one drain
// instant — the time-series sample a live service mode will stream.
// Snapshots are pure observations: capturing them never perturbs a
// scheduling decision, so a metered run's Result is bit-identical to
// an unmetered one.
type MetricsSnapshot struct {
	// At is the drain instant; Elapsed is the span since the run
	// started (the denominator of the rates).
	At      sim.Time
	Elapsed sim.Duration
	// Done and Steals count completions and re-bindings so far;
	// ClusterQueue is the cluster-level admission queue depth after
	// the drain instant's placement loop ran.
	Done, Steals, ClusterQueue int
	// Fairness is Jain's index over the per-tenant throughputs so far
	// (1 = perfectly even, 1/n = one tenant has everything).
	Fairness float64
	// HitBytes and MissBytes are the cumulative residency-cache split
	// of staging demand committed so far this run: bytes served
	// resident versus bytes charged as cold-miss transfer. Withdrawn
	// commitments (steal re-bindings) are un-charged, mirroring the
	// per-device StagedBytes accounting, so the pair is exact, not
	// monotone. Cache-less, HitBytes stays 0 and MissBytes is the whole
	// staging demand committed.
	HitBytes, MissBytes int64
	// Devices lists per-device state in device order; Tenants lists
	// per-tenant accounting sorted by tenant label.
	Devices []DeviceMetrics
	Tenants []TenantMetrics
}
