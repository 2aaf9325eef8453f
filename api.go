package micstream

import (
	"io"
	"time"

	"micstream/internal/cluster"
	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/experiments"
	"micstream/internal/hstreams"
	"micstream/internal/model"
	"micstream/internal/obs"
	"micstream/internal/pcie"
	"micstream/internal/residency"
	"micstream/internal/sched"
	"micstream/internal/sim"
	"micstream/internal/telemetry"
	"micstream/internal/workload"
)

// Core offload primitives, re-exported from the runtime layer.
type (
	// Stream is one logical FIFO pipeline bound to a device
	// partition; see Platform.Stream.
	Stream = hstreams.Stream
	// Event marks the completion of an enqueued action and can gate
	// actions on other streams.
	Event = hstreams.Event
	// Buffer is a typed allocation visible to host and devices.
	Buffer = hstreams.Buffer
	// KernelCtx is passed to kernel bodies in the functional model.
	KernelCtx = hstreams.KernelCtx
	// KernelCost describes a kernel invocation to the timing model.
	KernelCost = device.KernelCost
	// DeviceConfig parameterizes the coprocessor model.
	DeviceConfig = device.Config
	// LinkConfig parameterizes the PCIe model.
	LinkConfig = pcie.Config
	// Time is a point in virtual time (nanoseconds).
	Time = sim.Time
	// Duration is a span of virtual time (nanoseconds).
	Duration = sim.Duration
)

// Pipeline layer, re-exported from the core package.
type (
	// Task is one tiled-offload unit: input transfers, a kernel, and
	// output transfers, with optional dependencies on other tasks.
	Task = core.Task
	// TransferSpec names a buffer range a task moves.
	TransferSpec = core.TransferSpec
	// Result summarizes a run (wall time, GFLOPS, overlap metrics).
	Result = core.Result
	// PhaseEvents indexes the completion events of an enqueued phase
	// by task ID: Kernel(id) is the task's kernel-completion event and
	// Done(id) its final event, both nil for an ID not in the phase.
	// IDs 0..n-1 index a slice; negative or far larger IDs are kept
	// in a map made only when one appears.
	PhaseEvents = core.PhaseEvents
	// SearchSpace is a (partitions × tiles) tuning space.
	SearchSpace = core.SearchSpace
	// TuneResult is the outcome of a granularity search.
	TuneResult = core.TuneResult
	// EvalFunc measures one (P, T) configuration for the tuner.
	EvalFunc = core.EvalFunc
)

// Alloc1D registers a host slice as a buffer usable by every device of
// the platform; D2H transfers write back into it.
func Alloc1D[T any](p *Platform, name string, host []T) *Buffer {
	return hstreams.Alloc1D(p.ctx, name, host)
}

// AllocVirtual registers a data-less buffer (element count × element
// size) for timing-only experiments.
func AllocVirtual(p *Platform, name string, elems, elemSize int) *Buffer {
	return hstreams.AllocVirtual(p.ctx, name, elems, elemSize)
}

// DeviceSlice returns buffer b's device-resident shadow on device
// devIdx (functional model).
func DeviceSlice[T any](b *Buffer, devIdx int) []T {
	return hstreams.DeviceSlice[T](b, devIdx)
}

// HostSlice returns buffer b's host-side slice.
func HostSlice[T any](b *Buffer) []T { return hstreams.HostSlice[T](b) }

// Xfer builds an ungated transfer spec over [off, off+n) of buf.
func Xfer(buf *Buffer, off, n int) TransferSpec { return core.Xfer(buf, off, n) }

// XferAfter builds a transfer spec gated on another task's completion
// (cross-device staging).
func XferAfter(buf *Buffer, off, n, afterTask int) TransferSpec {
	return core.XferAfter(buf, off, n, afterTask)
}

// EnqueuePhase enqueues tasks onto the platform's streams without
// synchronizing; see the core package for ordering rules.
func EnqueuePhase(p *Platform, tasks []*Task) (*PhaseEvents, error) {
	return core.EnqueuePhase(p.ctx, tasks)
}

// RunTasks enqueues tasks, waits for completion, and summarizes the
// run. flops (optional, 0 to skip) enables the GFLOPS metric.
func RunTasks(p *Platform, tasks []*Task, flops float64) (Result, error) {
	return core.Run(p.ctx, tasks, flops)
}

// Tune evaluates every point of a search space and returns the fastest
// configuration.
func Tune(space SearchSpace, eval EvalFunc) (TuneResult, error) {
	return core.Tune(space, eval)
}

// TuneCoordinateDescent searches one axis at a time (O(|P|+|T|) per
// round) — the search-cost reduction beyond the paper's pruning rules.
func TuneCoordinateDescent(space SearchSpace, eval EvalFunc, rounds int) (TuneResult, error) {
	return core.TuneCoordinateDescent(space, eval, rounds)
}

// ExhaustiveSpace is the unpruned [1,maxP] × [1,maxT] tuning space.
func ExhaustiveSpace(maxP, maxT int) SearchSpace { return core.ExhaustiveSpace(maxP, maxT) }

// HeuristicSpace is the paper's §V-C pruned space: P restricted to
// divisors of the usable core count, T to multiples of P.
func HeuristicSpace(usableCores, maxT int) SearchSpace {
	return core.HeuristicSpace(usableCores, maxT)
}

// CandidatePartitions returns the pruned resource-granularity
// candidates for a device (divisors of its usable core count).
func CandidatePartitions(cfg DeviceConfig) []int { return core.CandidatePartitions(cfg) }

// CandidateTiles returns the pruned task-granularity candidates for a
// partition count (multiples of P, thinned geometrically).
func CandidateTiles(p, maxTiles int) []int { return core.CandidateTiles(p, maxTiles) }

// Analytic performance-model layer, re-exported from the model
// package: closed-form predictions of wall time, overlap and GFLOPS
// for any (partitions, tiles) configuration, so good configurations
// are picked instead of measured (DESIGN.md §8).
type (
	// Model predicts configurations for one platform and calibrates
	// itself against simulated probe runs (Fit).
	Model = model.Model
	// ModelWorkload describes a tunable application to the model as
	// barrier-separated phases parameterized by tile count.
	ModelWorkload = model.Workload
	// ModelPhase is one barrier-separated stage of a ModelWorkload.
	ModelPhase = model.Phase
	// Prediction is the model's estimate of one configuration.
	Prediction = model.Prediction
	// Candidate is one model-ranked (partitions, tiles) point.
	Candidate = model.Candidate
	// Probe is one Fit calibration measurement.
	Probe = model.Probe
)

// NewModel builds an uncalibrated performance model of a platform.
func NewModel(dev DeviceConfig, link LinkConfig) *Model { return model.New(dev, link) }

// UniformWorkload describes the generic overlappable workload: one
// phase of tiles evenly splitting a total kernel cost (template's
// Flops/Bytes are workload totals) and per-direction transfer volume.
func UniformWorkload(name string, h2dBytes, d2hBytes int64, template KernelCost) ModelWorkload {
	return model.Uniform(name, h2dBytes, d2hBytes, template)
}

// TuneGuided prunes a granularity search with a cheap predictor:
// every point is scored with predict, only the topK best-predicted
// candidates are measured with eval. Use Model.EvalFunc as predict to
// search with the analytic model.
func TuneGuided(space SearchSpace, predict, eval EvalFunc, topK int) (TuneResult, error) {
	return core.TuneGuided(space, predict, eval, topK)
}

// Online multi-tenant scheduling layer, re-exported from the sched
// package: many concurrent workloads contending for the platform's
// partitions and PCIe link, instead of RunTasks' one job at a time.
type (
	// Scheduler admits a stream of tenant-tagged jobs onto the
	// platform and dispatches them under a pluggable policy.
	Scheduler = sched.Scheduler
	// Job is one unit of admission: a []*Task workload with a tenant
	// label and a virtual arrival time.
	Job = sched.Job
	// SchedResult is the outcome of a Scheduler.Run: per-job
	// lifecycles, per-tenant throughput and latency percentiles, and
	// Jain's fairness indices.
	SchedResult = sched.Result
	// SchedPolicy decides dispatch order and placement; see FIFO,
	// RoundRobin, SJF and PolicyByName.
	SchedPolicy = sched.Policy
	// SchedOption configures NewScheduler.
	SchedOption = sched.Option
	// TenantStats is one tenant's aggregate accounting inside a
	// SchedResult.
	TenantStats = sched.TenantStats
	// JobOutcome is one job's recorded lifecycle inside a SchedResult.
	JobOutcome = sched.JobOutcome
	// ScenarioConfig parameterizes BuildScenario's synthetic
	// multi-tenant workloads.
	ScenarioConfig = sched.ScenarioConfig
)

// NewScheduler builds an online scheduler over the platform's streams.
func NewScheduler(p *Platform, opts ...SchedOption) (*Scheduler, error) {
	return sched.New(p.ctx, opts...)
}

// WithPolicy selects the scheduling policy (default FIFO).
func WithPolicy(policy SchedPolicy) SchedOption { return sched.WithPolicy(policy) }

// FIFOPolicy serves jobs in arrival order on the lowest idle stream.
func FIFOPolicy() SchedPolicy { return sched.FIFO() }

// SJFPolicy serves the shortest queued job first on the least-loaded
// idle stream.
func SJFPolicy() SchedPolicy { return sched.SJF() }

// PolicyByName returns a fresh "fifo", "rr", "sjf" or "adaptive"
// policy.
func PolicyByName(name string) (SchedPolicy, error) { return sched.ByName(name) }

// PolicyNames lists the built-in scheduling policies.
func PolicyNames() []string { return sched.Policies() }

// BuildScenario generates a deterministic synthetic multi-tenant job
// stream on the platform: four tenants submitting under a
// load-imbalance pattern ("balanced", "mild", "moderate", "severe")
// with seeded stochastic arrivals.
func BuildScenario(p *Platform, cfg ScenarioConfig) ([]Job, error) {
	return sched.BuildScenario(p.ctx, cfg)
}

// PatternNames lists the built-in load-imbalance patterns.
func PatternNames() []string { return sched.Patterns() }

// ArrivalNames lists the built-in arrival processes the scenario
// builders' Arrival fields (and the CLIs' -arrival flags) accept.
func ArrivalNames() []string { return workload.Names() }

// Multi-MIC cluster scheduling layer, re-exported from the cluster
// package: one per-device stream scheduler per simulated coprocessor
// behind a cluster-level admission queue with pluggable placement
// policies (DESIGN.md §9).
type (
	// Cluster routes tenant-tagged jobs across the devices of a
	// multi-MIC platform under a placement policy.
	Cluster = cluster.Cluster
	// ClusterJob is one unit of cluster admission: a job plus the
	// data-placement fields (origin device, staging volume).
	ClusterJob = cluster.Job
	// ClusterResult is the outcome of a Cluster.Run: per-job
	// lifecycles, per-device utilization, per-tenant accounting, and
	// the staging traffic the placement caused.
	ClusterResult = cluster.Result
	// ClusterOutcome is one job's recorded lifecycle inside a
	// ClusterResult.
	ClusterOutcome = cluster.Outcome
	// ClusterMigration is one mid-job migration on a ClusterOutcome:
	// a sliced job's undispatched remainder re-binding to another
	// device at a drain instant (WithClusterSlicing +
	// WithClusterStealing).
	ClusterMigration = cluster.Migration
	// PlacementPolicy decides which device each job commits to; see
	// PredictedPlacement, AffinityPlacement and PlaceBy.
	PlacementPolicy = cluster.Policy
	// DeviceView is one device's snapshot handed to a placement
	// policy at a decision instant.
	DeviceView = cluster.DeviceView
	// ClusterScenarioConfig parameterizes BuildClusterScenario's
	// synthetic cluster workloads.
	ClusterScenarioConfig = cluster.ScenarioConfig
	// ClusterWorkload describes a workload split across devices to
	// the analytic model (per-device shares plus staging traffic).
	ClusterWorkload = model.ClusterWorkload
	// ClusterPrediction is the model's estimate of one multi-device
	// configuration.
	ClusterPrediction = model.ClusterPrediction
	// ClusterEvalFunc measures one (devices, partitions, tiles)
	// configuration for the cluster tuner.
	ClusterEvalFunc = core.ClusterEvalFunc
	// ClusterTuneResult is the outcome of a joint device-count and
	// granularity search.
	ClusterTuneResult = core.ClusterTuneResult
	// Region declares a (dataset, tile-range) a cluster job reads or
	// writes — the unit the residency staging cache tracks per device
	// (DESIGN.md §11).
	Region = residency.Region
	// ResidencyStats are the staging cache's cumulative counters
	// (hits, cold misses, evictions, invalidations), spanning every
	// Run of the cluster; per-run splits live on ClusterResult.
	ResidencyStats = residency.Stats
	// Telemetry is the deterministic scheduling-event recorder the
	// cluster and scheduler emit into when telemetry is enabled
	// (DESIGN.md §12). A nil *Telemetry is a valid no-op sink.
	Telemetry = telemetry.Recorder
	// TelemetryEvent is one recorded scheduling decision.
	TelemetryEvent = telemetry.Event
	// TelemetryKind classifies a TelemetryEvent (admit, place,
	// dispatch, complete, fail, steal, hit, stage, evict, invalidate,
	// drain).
	TelemetryKind = telemetry.Kind
	// PlacementScore is one device's predicted completion instant
	// recorded at a place decision.
	PlacementScore = telemetry.Score
	// MetricsSnapshot is the cluster's state captured at one drain
	// instant: per-device utilization and queue state, per-tenant
	// throughput and tail latency, and Jain's fairness index.
	MetricsSnapshot = telemetry.MetricsSnapshot
	// DeviceMetrics is one device's slice of a MetricsSnapshot.
	DeviceMetrics = telemetry.DeviceMetrics
	// TenantMetrics is one tenant's slice of a MetricsSnapshot.
	TenantMetrics = telemetry.TenantMetrics
)

// Explanation layer, re-exported from the obs package: per-job causal
// timelines folded from the telemetry event log, the model-drift
// audit, the live OpenMetrics exporter, and the deterministic flight
// recorder (DESIGN.md §14).
type (
	// JobTimeline is one job's folded causal history: lifecycle
	// instants plus an exact phase partition of its latency (place
	// wait, commit wait, exec, slice wait, migration).
	JobTimeline = obs.Timeline
	// TimelinePhase is one named slice of a JobTimeline's latency.
	TimelinePhase = obs.Phase
	// TimelineBreakdown aggregates phase partitions over a group of
	// jobs (per tenant, per device) — the "where time goes" row.
	TimelineBreakdown = obs.PhaseBreakdown
	// DriftReport is the model-drift audit of an event log: predicted
	// completion scores and grant estimates compared against realized
	// outcomes, histogrammed per tenant and regime.
	DriftReport = obs.DriftReport
	// DriftSample is one predicted-vs-actual comparison in a
	// DriftReport.
	DriftSample = obs.DriftSample
	// DriftGroup is one sample group's error histogram and summary.
	DriftGroup = obs.DriftGroup
	// DriftMeta is the provenance block of a DRIFT_<run>.json
	// artifact.
	DriftMeta = obs.DriftMeta
	// OpenMetricsExporter renders the latest MetricsSnapshot in the
	// OpenMetrics (Prometheus) text exposition format.
	OpenMetricsExporter = obs.Exporter
	// FlightRecorder keeps a bounded ring of recent telemetry events,
	// dumped on job failure or p95 threshold breach.
	FlightRecorder = obs.FlightRecorder
	// FlightDump is one triggered flight-recorder capture.
	FlightDump = obs.FlightDump
)

// FoldTimelines reduces an event log to per-job causal timelines in
// admission order: for every completed job the five attributed phases
// sum exactly to the observed latency (DESIGN.md §14).
func FoldTimelines(events []TelemetryEvent) []JobTimeline { return obs.Fold(events) }

// TimelinesByTenant aggregates completed timelines per tenant, sorted
// by tenant label.
func TimelinesByTenant(ts []JobTimeline) []TimelineBreakdown { return obs.ByTenant(ts) }

// TimelinesByDevice aggregates completed timelines per final device.
func TimelinesByDevice(ts []JobTimeline) []TimelineBreakdown { return obs.ByDevice(ts) }

// WriteTimeline renders one job's causal timeline as aligned text
// (the body of `miccluster -explain`).
func WriteTimeline(w io.Writer, t *JobTimeline) error { return obs.WriteTimeline(w, t) }

// WriteTimelineBreakdowns renders aggregate "where time goes" rows as
// an aligned table under a title.
func WriteTimelineBreakdowns(w io.Writer, title string, rows []TimelineBreakdown) error {
	return obs.WriteBreakdowns(w, title, rows)
}

// AuditDrift extracts predicted-vs-actual drift samples from an event
// log and histograms the errors per tenant and execution regime.
func AuditDrift(events []TelemetryEvent) *DriftReport { return obs.AuditDrift(events) }

// WriteDriftJSON renders a drift audit as the byte-deterministic
// DRIFT_<run>.json artifact.
func WriteDriftJSON(w io.Writer, r *DriftReport, meta DriftMeta) error {
	return obs.WriteDriftJSON(w, r, meta)
}

// NewOpenMetricsExporter returns an exporter with no snapshot yet.
// Wire it to a recorder through Observers and expose it with
// ServeHTTP/Serve; Render writes the exposition text.
func NewOpenMetricsExporter() *OpenMetricsExporter { return obs.NewExporter() }

// DefaultFlightCap is the flight recorder's default ring capacity.
const DefaultFlightCap = obs.DefaultFlightCap

// NewFlightRecorder returns a flight recorder retaining up to cap
// events (DefaultFlightCap if cap <= 0).
func NewFlightRecorder(cap int) *FlightRecorder { return obs.NewFlightRecorder(cap) }

// WriteMetricsJSON renders a drain-instant snapshot series as
// machine-readable, byte-deterministic JSON (the `miccluster
// -metrics-json` artifact).
func WriteMetricsJSON(w io.Writer, snaps []MetricsSnapshot) error {
	return obs.WriteMetricsJSON(w, snaps)
}

// NewTelemetry returns an empty scheduling-event recorder to hand to
// WithClusterTelemetry or WithSchedulerTelemetry. The recorder is
// append-only across runs: a multi-run session logs one continuous
// timeline.
func NewTelemetry() *Telemetry { return telemetry.NewRecorder() }

// ClusterOption configures NewCluster: the platform shape
// (WithClusterDevices, WithClusterPartitions, WithClusterStreams) and
// the scheduler's knobs (WithPlacement, WithClusterQueueDepth,
// WithClusterStagingFactor, WithClusterDevicePolicy).
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	devices    int
	partitions int
	streams    int
	traced     bool
	opts       []cluster.Option
}

// WithClusterDevices sets the cluster's coprocessor count (default 2).
func WithClusterDevices(n int) ClusterOption {
	return func(c *clusterConfig) { c.devices = n }
}

// WithClusterPartitions sets the partitions per device (default 4).
func WithClusterPartitions(n int) ClusterOption {
	return func(c *clusterConfig) { c.partitions = n }
}

// WithClusterStreams sets the streams per partition (default 1).
func WithClusterStreams(n int) ClusterOption {
	return func(c *clusterConfig) { c.streams = n }
}

// WithPlacement selects the placement policy (default predicted).
func WithPlacement(p PlacementPolicy) ClusterOption {
	return func(c *clusterConfig) { c.opts = append(c.opts, cluster.WithPlacement(p)) }
}

// WithClusterQueueDepth caps each device's committed-but-undispatched
// queue (default: the device's stream count); overflow waits in the
// cluster queue and binds late.
func WithClusterQueueDepth(n int) ClusterOption {
	return func(c *clusterConfig) { c.opts = append(c.opts, cluster.WithQueueDepth(n)) }
}

// WithClusterStagingFactor overrides the off-origin staging charge
// (default cluster.DefaultStagingFactor: the tile crosses PCIe twice).
func WithClusterStagingFactor(f float64) ClusterOption {
	return func(c *clusterConfig) { c.opts = append(c.opts, cluster.WithStagingFactor(f)) }
}

// WithResidency enables the device-resident staging cache: jobs
// declaring Reads regions stage only the tiles not already resident on
// their device — the cold-miss remainder — with capacityBytes of cache
// per device (0 = unbounded), LRU-evicted at drain instants, and
// invalidated when a job's Writes regions complete. The cache persists
// across Run calls, so repeated workloads run warm (DESIGN.md §11).
func WithResidency(capacityBytes int64) ClusterOption {
	return func(c *clusterConfig) { c.opts = append(c.opts, cluster.WithResidency(capacityBytes)) }
}

// WithClusterStealing enables drain-instant work stealing with the
// given steal threshold: whenever a device goes idle while another's
// committed backlog exceeds the threshold, committed-but-undispatched
// jobs may re-bind to the idle device when their model-predicted
// completion — including the Fig. 11 staging re-charge — improves
// (DESIGN.md §10). A zero threshold steals on any backlog; stealing is
// off by default (omit the option). Note the miccluster CLI differs:
// there -steal=0 is the unset flag (stealing stays disabled) and
// -steal=1ns is the steal-on-any-backlog idiom.
func WithClusterStealing(threshold time.Duration) ClusterOption {
	return func(c *clusterConfig) {
		c.opts = append(c.opts, cluster.WithStealing(sim.Duration(threshold.Nanoseconds())))
	}
}

// WithClusterSlicing enables preemptive job slicing on every device:
// a stream grant dispatches at most maxTasksPerSlice tasks and the
// job's remainder re-enters the device queue at the slice boundary,
// where lighter jobs can overtake it and — with WithClusterStealing
// also enabled — another device can migrate it mid-job, re-pricing
// staging and residency for only the tiles the remainder still needs
// (DESIGN.md §13). Task lists must be dependency-ordered: every
// DependsOn target precedes its dependent. 0 (the default) dispatches
// whole jobs.
func WithClusterSlicing(maxTasksPerSlice int) ClusterOption {
	return func(c *clusterConfig) { c.opts = append(c.opts, cluster.WithSlicing(maxTasksPerSlice)) }
}

// WithClusterDevicePolicy sets the per-device stream-scheduling policy
// factory (default FIFO).
func WithClusterDevicePolicy(factory func() SchedPolicy) ClusterOption {
	return func(c *clusterConfig) { c.opts = append(c.opts, cluster.WithDevicePolicy(factory)) }
}

// WithClusterTelemetry attaches a scheduling-event recorder to the
// cluster: every admit/place/dispatch/complete/steal/residency/drain
// decision is logged with virtual timestamps, and every drain instant
// captures a MetricsSnapshot. A non-nil recorder also turns on the
// platform's resource spans (one per H2D, kernel and D2H operation),
// which a cluster without telemetry does not record. Recording never
// feeds back into a decision — a traced run's ClusterResult is
// bit-identical to an untraced one (DESIGN.md §12). Use Cluster.Trace
// to export the log and the spans as Chrome trace-event JSON and
// Cluster.Metrics for the snapshots. A served cluster with observers
// attached streams instead: after Serve, the recorder's Events() and
// Cluster.Metrics() no longer grow, and the platform keeps no more
// resource spans, so Cluster.Trace holds only what ran before Serve.
func WithClusterTelemetry(rec *Telemetry) ClusterOption {
	return func(c *clusterConfig) {
		c.traced = rec != nil
		c.opts = append(c.opts, cluster.WithTelemetry(rec))
	}
}

// WithSchedulerTelemetry attaches a scheduling-event recorder to a
// standalone single-device scheduler: admissions, dispatches,
// completions and failures are logged with virtual timestamps.
func WithSchedulerTelemetry(rec *Telemetry) SchedOption {
	return sched.WithTelemetry(rec)
}

// NewCluster builds a multi-MIC platform and its cluster scheduler in
// one call: WithClusterDevices(2) × WithClusterPartitions(4) ×
// WithClusterStreams(1) by default, predicted placement. The platform
// records resource spans only when WithClusterTelemetry is given, so
// an untraced cluster or server pays nothing per stream operation for
// a trace no one reads. Use ClusterPlatform to reach the underlying
// platform (buffers, Gantt).
func NewCluster(opts ...ClusterOption) (*Cluster, error) {
	cfg := clusterConfig{devices: 2, partitions: 4, streams: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	p, err := NewPlatform(
		WithDevices(cfg.devices),
		WithPartitions(cfg.partitions),
		WithStreamsPerPartition(cfg.streams),
		func(c *hstreams.Config) { c.Trace = cfg.traced },
	)
	if err != nil {
		return nil, err
	}
	return cluster.New(p.ctx, cfg.opts...)
}

// ClusterPlatform wraps a cluster's context as a Platform for the
// facade's platform-level helpers (Alloc1D, Gantt, Elapsed). Gantt,
// OverlapFraction, TransferBusy and KernelBusy read the platform's
// resource spans, so they need WithClusterTelemetry on the cluster;
// without it Gantt errors and the other three report zero.
func ClusterPlatform(c *Cluster) *Platform { return &Platform{ctx: c.Context()} }

// PredictedPlacement routes each job to the device with the earliest
// model-predicted completion, including the cross-device staging term
// (DESIGN.md §9).
func PredictedPlacement() PlacementPolicy { return cluster.Predicted() }

// AffinityPlacement scores devices exactly like PredictedPlacement but
// breaks near-ties toward the device holding the largest resident
// fraction of the job's read set, herding each dataset's readers onto
// the device that staged it first. Without WithResidency it degenerates
// to PredictedPlacement (DESIGN.md §11).
func AffinityPlacement() PlacementPolicy { return cluster.Affinity() }

// StaticPlacement pins every job to one device — the baseline the
// placement property tests bound predicted placement against.
func StaticPlacement(dev int) PlacementPolicy { return cluster.Static(dev) }

// PlaceBy returns a fresh "affinity", "least-loaded", "round-robin"
// or "predicted" placement policy.
func PlaceBy(name string) (PlacementPolicy, error) { return cluster.ByName(name) }

// PlacementNames lists the built-in placement policies.
func PlacementNames() []string { return cluster.Policies() }

// CacheModeNames lists the residency-cache modes the miccluster CLI's
// -cache flag accepts ("off", "lru").
func CacheModeNames() []string { return cluster.CacheModes() }

// BuildClusterScenario generates a deterministic synthetic cluster
// workload on the cluster's platform: size-spread tiled jobs, a
// fraction device-resident, under a seeded arrival process.
func BuildClusterScenario(c *Cluster, cfg ClusterScenarioConfig) ([]ClusterJob, error) {
	return cluster.BuildScenario(c.Context(), cfg)
}

// SplitWorkload lifts a single-device model workload to the cluster
// form: staging reports the bytes staged through the host per round at
// each device count (nil = free split).
func SplitWorkload(w ModelWorkload, staging func(devices int) int64) ClusterWorkload {
	return model.Split(w, staging)
}

// TuneCluster searches device count and per-device (P, T) granularity
// jointly, the multi-MIC extension of Tune.
func TuneCluster(devices []int, space SearchSpace, eval ClusterEvalFunc) (ClusterTuneResult, error) {
	return core.TuneCluster(devices, space, eval)
}

// TuneClusterGuided prunes the joint search with a cheap predictor
// (e.g. Model.ClusterEvalFunc); only the topK best-predicted
// candidates are measured.
func TuneClusterGuided(devices []int, space SearchSpace, predict, eval ClusterEvalFunc, topK int) (ClusterTuneResult, error) {
	return core.TuneClusterGuided(devices, space, predict, eval, topK)
}

// RunExperiment regenerates one of the paper's figures (e.g. "fig5",
// "fig9a", "fig11", "heuristics") or one of the scheduler studies
// ("fairness", "imbalance", "placement", "cluster-scaling",
// "stealing", "residency") and renders it to w as an aligned text
// table.
func RunExperiment(id string, w io.Writer) error {
	return runExperiment(id, w, false)
}

// RunExperimentCSV regenerates a figure as CSV for plotting tools.
func RunExperimentCSV(id string, w io.Writer) error {
	return runExperiment(id, w, true)
}

func runExperiment(id string, w io.Writer, csv bool) error {
	g, ok := experiments.Lookup(id)
	if !ok {
		return &UnknownExperimentError{ID: id}
	}
	t, err := g()
	if err != nil {
		return err
	}
	if csv {
		return t.FprintCSV(w)
	}
	return t.Fprint(w)
}

// ExperimentIDs lists every regenerable figure.
func ExperimentIDs() []string { return experiments.IDs() }

// UnknownExperimentError reports a RunExperiment id that is not in the
// registry.
type UnknownExperimentError struct {
	// ID is the unrecognized experiment id.
	ID string
}

// Error implements the error interface.
func (e *UnknownExperimentError) Error() string {
	return "micstream: unknown experiment " + e.ID
}
