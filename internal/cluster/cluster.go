// Package cluster is the model-driven multi-MIC scheduler: one
// per-device stream scheduler (internal/sched) per simulated
// coprocessor, behind a cluster-level admission queue that routes each
// arriving job to a device under a pluggable placement policy.
//
// The paper's §VI shows one streamed code scaling to several MICs but
// landing below the 2× projection because partitioned workloads stage
// tiles through the host (Fig. 11); the follow-up studies
// (arXiv:1608.03044, arXiv:2003.04294) frame device placement as a
// prediction problem — route work by predicted completion, not by
// queue length. This package implements both sides: jobs carry a data
// origin (the device holding their inputs) and a staging volume, a job
// placed off its origin really pays the staged transfer on the target
// device's link, and the "predicted" placement policy folds that
// staging term plus the analytic model's service estimate into an
// earliest-predicted-completion score. "least-loaded" (queue depth)
// and "round-robin" are the load-blind baselines the placement
// experiment compares it against. With WithResidency enabled the
// staging charge becomes cold-miss-only: a per-device cache
// (internal/residency) remembers which tiles earlier jobs already
// shipped, every pricing path charges only the residual, and the
// "affinity" policy breaks near-ties toward the device holding the
// largest resident fraction of a job's read set (DESIGN.md §11).
//
// Admission is two-level. Each device accepts at most QueueDepth
// committed-but-undispatched jobs; overflow waits in the cluster
// queue, in arrival order, and is placed at the next decision instant
// (a job arrival or any device's job completion). Placement is
// therefore eager while devices have admission capacity — the regime
// where policies differ — and deferred (late-binding) under
// saturation, which preserves cluster-level work conservation: a
// device can only idle while the cluster queue is non-empty if every
// device is saturated, which is impossible (a saturated device has no
// idle streams). Every decision happens at an engine event with
// deterministic tie-breaks, so cluster runs are bit-identical across
// repeats at a fixed seed (DESIGN.md §6, §9).
package cluster

import (
	"fmt"
	"io"
	"math"
	"slices"

	"micstream/internal/arena"
	"micstream/internal/core"
	"micstream/internal/hstreams"
	"micstream/internal/model"
	"micstream/internal/pcie"
	"micstream/internal/residency"
	"micstream/internal/sched"
	"micstream/internal/sim"
	"micstream/internal/stats"
	"micstream/internal/telemetry"
)

// DefaultStagingFactor scales a job's StagingBytes into the transfer
// volume charged on the target device's link when the job runs off its
// origin device: the tile crosses PCIe twice (D2H out of the origin,
// H2D into the target), serialized through host memory. The value is
// calibrated against the §VI measurements the experiments reproduce —
// with it, the Fig. 11-style cluster-scaling table lands in the
// paper's 1.5–1.9× band instead of the projected 2×.
const DefaultStagingFactor = 2.0

// Job is one unit of cluster admission: a tenant-tagged task list with
// a virtual arrival time, plus the data-placement fields the placement
// policies reason about.
type Job struct {
	// ID labels the job in results; it need not be unique.
	ID int
	// Tenant attributes the job for per-tenant accounting. Empty
	// means "default".
	Tenant string
	// Arrival is the virtual time the job becomes runnable.
	Arrival sim.Time
	// Tasks is the job's workload; StreamHint values are overridden
	// by the per-device scheduler's placement.
	Tasks []*core.Task
	// Est optionally declares the job's service-time estimate; 0
	// means the cluster derives one from the tasks.
	Est sim.Duration
	// Origin is the device whose memory holds the job's inputs; -1
	// (or any negative value) means host-resident. A job placed on a
	// device other than its origin stages StagingBytes through the
	// host first.
	Origin int
	// StagingBytes is the input volume staged through the host when
	// the job runs off its origin device. Ignored when Origin is
	// negative, and superseded by Reads when regions are declared.
	StagingBytes int64
	// Reads optionally declares the (dataset, tile-range) regions the
	// staged input covers. With regions declared the staging demand is
	// their total volume, and a cluster running WithResidency charges
	// only the tiles not already resident on the target device — the
	// cold-miss remainder (DESIGN.md §11). Regions must not overlap
	// within the list.
	Reads []residency.Region
	// Writes optionally declares regions the job overwrites. At the
	// job's completion instant every other device's cached copy of
	// those tiles is invalidated; the writer keeps the fresh copy when
	// it ran off the dataset's origin.
	Writes []residency.Region
	// Deadline is the job's relative completion deadline — the latency
	// budget measured from cluster admission; 0 means none. Deadlines
	// are accounting only: the completed outcome is tagged Missed when
	// its latency overran the budget (and the telemetry Admit event
	// carries the budget for SLO evaluators), but placement, dispatch
	// and stealing never read it.
	Deadline sim.Duration
}

// StagingDemand is the volume the job must move when placed off its
// origin: the total of its declared read regions, or StagingBytes when
// none are declared.
func (j *Job) StagingDemand() int64 {
	if len(j.Reads) > 0 {
		return residency.TotalBytes(j.Reads)
	}
	return j.StagingBytes
}

// Queued is a cluster-queued job together with the bookkeeping the
// placement policies see. A record lives only while its job is in
// flight: admit takes it from the cluster's spare list and it goes
// back, cleared, the instant the job's outcome streams, so a policy
// must not keep it past Place.
type Queued struct {
	// Job is the queued job.
	Job *Job
	// Est is the job's service-time estimate excluding staging. After a
	// mid-job migration (WithSlicing + WithStealing) it covers only the
	// remaining tasks — completed slices no longer count.
	Est sim.Duration
	// Seq is the cluster admission sequence number.
	Seq int

	// idx is the job's cluster index: its outcome slot, and the key its
	// device scheduler knows it by.
	idx int
	// dev is the device the job is committed to (-1 before placement).
	// Work stealing withdraws the job from there under idx.
	dev int
	// next is the index of the job's first not-yet-dispatched task in
	// the original task list: 0 until a mid-job steal migrates a
	// partially-run remainder (DESIGN.md §13).
	next int
	// reads is the still-needed read set (the full Job.Reads until a
	// migration trims it to the remainder's share) and demand its
	// volume (initially Job.StagingDemand).
	reads  []residency.Region
	demand int64
	// rcpt records what the last commitment installed in the residency
	// tracker, so a steal's withdraw can roll it back; hitBytes,
	// missBytes and stage are that commitment's own staging accounting
	// (stage is nil when it staged nothing), so a pre-dispatch
	// withdraw can un-charge exactly what this commitment added.
	rcpt                residency.Receipt
	hitBytes, missBytes int64
	stage               *stageRecord
}

// ended is the admission state of a terminal job, whose record has gone
// back to the spare list. Nothing writes through it; dev -1 matches no
// device, so a late report for an ended job fails jobDone's check.
var ended = &Queued{idx: -1, dev: -1}

// stageRecord is what route builds to stage a job: the stage task, its
// one transfer, the task list the stage task leads, and the charged
// volume and its modeled link time. A cluster keeps the records of
// routes it has undone and of ended jobs for reuse, so it holds only
// as many as it has staged jobs in flight.
type stageRecord struct {
	task  core.Task
	xfer  [1]core.TransferSpec
	tasks []*core.Task
	bytes int64
	est   sim.Duration
}

// charge reports what the record's commitment staged: nothing for a
// nil record.
func (r *stageRecord) charge() (bytes int64, est sim.Duration) {
	if r == nil {
		return 0, 0
	}
	return r.bytes, r.est
}

// Option configures a Cluster.
type Option func(*Cluster)

// WithPlacement selects the placement policy (default Predicted). The
// policy instance must not be shared with another live cluster.
func WithPlacement(p Policy) Option {
	return func(c *Cluster) { c.place = p }
}

// WithDevicePolicy sets the per-device stream-scheduling policy
// factory (default sched.FIFO); each device gets a fresh instance.
func WithDevicePolicy(factory func() sched.Policy) Option {
	return func(c *Cluster) { c.devPolicy = factory }
}

// WithQueueDepth caps how many committed-but-undispatched jobs each
// device holds (default: the device's stream count). Beyond the cap,
// jobs wait in the cluster queue and bind to a device late.
func WithQueueDepth(n int) Option {
	return func(c *Cluster) { c.depth = n }
}

// WithStagingFactor overrides DefaultStagingFactor.
func WithStagingFactor(f float64) Option {
	return func(c *Cluster) { c.stagingFactor = f }
}

// WithResidency enables the device-resident staging cache: a
// deterministic per-device tracker of the (dataset, tile) regions jobs
// declare through Reads/Writes, byte-capacity bounded per device
// (capacityBytes 0 = unbounded), LRU-evicted at drain instants. With
// it enabled, an off-origin placement stages only the tiles not
// already resident on the target — the cold-miss remainder — and every
// pricing path (predicted placement, steal gains) prices that residual
// instead of the full volume (DESIGN.md §11). The cache persists
// across Run calls, so a repeated workload runs warm. A negative
// capacity is rejected by New.
func WithResidency(capacityBytes int64) Option {
	return func(c *Cluster) {
		c.caching = true
		c.cacheCap = capacityBytes
	}
}

// CacheModes lists the residency-cache modes the CLIs accept: "off"
// (no tracker — every off-origin job stages in full) and "lru" (the
// WithResidency tracker with drain-instant LRU eviction).
func CacheModes() []string { return []string{"off", "lru"} }

// WithTelemetry attaches a cluster-wide scheduling-event recorder:
// the cluster emits admit, place (with the per-device predicted
// scores when the placement policy exposes them), steal, residency
// hit/stage/evict/invalidate and drain events, its embedded per-device
// schedulers emit dispatch/complete/fail, and every drain instant
// captures a MetricsSnapshot (DESIGN.md §12). A nil recorder (the
// default) disables telemetry at zero cost — every emission site is
// guarded, so the disabled hot path constructs nothing. Recording
// never feeds back into a decision: a traced run's Result is
// bit-identical to an untraced one. Like the residency cache, the
// recorder persists across Run calls.
func WithTelemetry(rec *telemetry.Recorder) Option {
	return func(c *Cluster) { c.tel = rec }
}

// WithStealing enables drain-instant work stealing: whenever a device
// goes idle while another's committed backlog exceeds threshold, the
// idle device may re-bind committed-but-undispatched jobs whose
// predicted completion — including the Fig. 11 staging re-charge on
// the new link — improves by moving (DESIGN.md §10). threshold 0
// steals whenever any backlog exists; a negative threshold is
// rejected by New. With WithSlicing also enabled the pass extends to
// *dispatched* jobs: a partially-run job's undispatched remainder,
// re-queued at a slice boundary, may migrate mid-job (DESIGN.md §13).
func WithStealing(threshold sim.Duration) Option {
	return func(c *Cluster) {
		c.stealing = true
		c.stealThreshold = threshold
	}
}

// WithSlicing enables preemptive job slicing on every embedded
// per-device scheduler (sched.WithSlicing): a stream grant dispatches
// at most maxTasksPerSlice tasks and the remainder re-queues behind
// the device policy at the slice boundary, so light jobs overtake a
// heavy job between its slices and tenant shares re-plan at task
// granularity. Combined with WithStealing, drain-instant steal passes
// may also migrate a waiting remainder to an idle device, re-pricing
// the Fig. 11 staging term for only the tiles the remainder still
// needs (DESIGN.md §13). 0 (the default) disables slicing; a negative
// cap is rejected by New. Slicing requires dependency-ordered task
// lists (sched.Sliceable); Run rejects jobs violating that order.
func WithSlicing(maxTasksPerSlice int) Option {
	return func(c *Cluster) { c.sliceMax = maxTasksPerSlice }
}

// Cluster routes jobs across the devices of one context. A cluster
// may execute several Run calls sequentially; each drains completely
// before returning.
type Cluster struct {
	ctx            *hstreams.Context
	scheds         []*sched.Scheduler
	place          Policy
	devPolicy      func() sched.Policy
	depth          int
	stagingFactor  float64
	stealing       bool
	stealThreshold sim.Duration
	stealModel     *model.Model
	sliceMax       int
	caching        bool
	cacheCap       int64
	resident       *residency.Tracker
	tel            *telemetry.Recorder

	stagingBuf *hstreams.Buffer
	// resStart snapshots the tracker's cumulative stats at session open,
	// so the Result reports per-run eviction deltas while the cache
	// itself stays warm across runs.
	resStart residency.Stats

	// Per-run state, reset when a session opens (Run opens one). The
	// per-job slabs, indexed by outcome index, grow batch by batch as
	// the session admits jobs and never move: a batch Run sizes each
	// exactly once, so its Result.Jobs aliases outcomes. A job's
	// admission state is nil before admit, its record while it is in
	// flight and ended once its outcome has streamed. Jobs below the
	// watermark are all ended, and each epoch boundary retires them
	// (retireNotified): admission states always, outcomes only in a
	// session with a sink (retireOutcomes). Outcomes [0, folded) are
	// folded, in index order, into retired; the fold catches up to the
	// watermark whenever outcome storage retires. A session without a
	// sink keeps every outcome for Result.Jobs and Session.Outcome.
	queue          arena.Queue[*Queued]
	admitted       arena.Slab[*Queued] // a job's admission state
	watermark      int
	outcomes       arena.Slab[Outcome]
	retireOutcomes bool
	folded         int
	retired        jobFold
	stageFree      []*stageRecord // records no commitment uses, for route
	// records backs the admission records, which admit takes from
	// spare and emitOutcome gives back, so a cluster holds only as many
	// as it ever had jobs in flight at once; made counts them.
	records     arena.Runs[Queued]
	spare       []*Queued
	made        int
	runFlops    float64
	done        int
	steals      int
	preempts    int
	seq         int
	runErr      error
	afterChange func() // test hook: runs after every dispatch loop

	// onOutcome streams each job's outcome the instant it becomes
	// terminal (completed or failed) — the Session's per-job emission
	// channel. nil (the batch Run default) disables streaming; the
	// ended admission state guards every emission site so no outcome is
	// streamed twice, and nterminal counts terminal outcomes for the
	// session's drain accounting.
	onOutcome func(Outcome)
	nterminal int

	// runStart anchors the run's elapsed-time accounting; linkBusy0 and
	// kernBusy0 snapshot each device's cumulative sim.Server occupancy
	// at session open (the servers accumulate across runs, the Result and
	// metrics report per-run deltas). telStaged accumulates the staging
	// volume charged per device this run; tenantSeen/tenantLat feed the
	// drain-instant per-tenant metrics when telemetry is enabled:
	// tenantSeen lists the tenants seen completing, in sorted order, and
	// tenantLat[i] summarizes tenant i's completed latencies (virtual
	// nanoseconds).
	runStart   sim.Time
	linkBusy0  []sim.Duration
	kernBusy0  []sim.Duration
	telStaged  []int64
	tenantSeen []string
	tenantLat  []stats.Running
	// telHit/telMiss accumulate the residency hit/miss byte split this
	// run for the metrics snapshots, un-charged on steal withdraw like
	// telStaged.
	telHit  int64
	telMiss int64
	// snap is the latest drain instant's snapshot, built in two halves:
	// captureMetrics takes the instant's scalars and devices, which later
	// events change, and finishMetrics adds the tenants, which change
	// only at drain instants. drained marks a snapshot whose second half
	// waits for the epoch's end: a Deferred recorder gets one snapshot
	// per epoch (DESIGN.md §12). tput is finishMetrics' scratch for the
	// Jain index input, which stats.JainIndex does not retain; snapDevs
	// and snapTens back every snapshot's Devices and Tenants, which the
	// recorder lends to its observers for the call only
	// (telemetry.Recorder.SetOnMetrics).
	snap     telemetry.MetricsSnapshot
	drained  bool
	tput     []float64
	snapDevs []telemetry.DeviceMetrics
	snapTens []telemetry.TenantMetrics
	// scoreChunk is what is left of the block Place events cut their
	// scores from, one disjoint, capped sub-slice per event: a block
	// serves many decisions with one allocation.
	scoreChunk []telemetry.Score

	// eligible and eligDev are the placement snapshot's scratch,
	// refreshed by eligibleViews at every placement decision.
	eligible []DeviceView
	eligDev  []int
}

// New builds a cluster over every device of ctx: one embedded
// per-device scheduler owning that device's streams, plus the
// cluster-level admission queue.
func New(ctx *hstreams.Context, opts ...Option) (*Cluster, error) {
	if ctx == nil {
		return nil, fmt.Errorf("cluster: nil context")
	}
	c := &Cluster{
		ctx:           ctx,
		devPolicy:     sched.FIFO,
		stagingFactor: DefaultStagingFactor,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.place == nil {
		c.place = Predicted()
	}
	if c.devPolicy == nil {
		return nil, fmt.Errorf("cluster: nil device policy factory")
	}
	if c.stagingFactor < 0 {
		return nil, fmt.Errorf("cluster: negative staging factor %g", c.stagingFactor)
	}
	if c.stealing && c.stealThreshold < 0 {
		return nil, fmt.Errorf("cluster: negative steal threshold %v", c.stealThreshold)
	}
	if c.sliceMax < 0 {
		return nil, fmt.Errorf("cluster: negative slice cap %d", c.sliceMax)
	}
	cfg := ctx.Config()
	perDev := cfg.Partitions * cfg.StreamsPerPartition
	if c.depth == 0 {
		c.depth = perDev
	}
	if c.depth < 1 {
		return nil, fmt.Errorf("cluster: queue depth %d must be positive", c.depth)
	}
	for d := 0; d < ctx.NumDevices(); d++ {
		ids := make([]int, perDev)
		for i := range ids {
			ids[i] = d*perDev + i
		}
		sopts := []sched.Option{sched.WithPolicy(c.devPolicy()), sched.WithStreams(ids...)}
		if c.sliceMax > 0 {
			sopts = append(sopts, sched.WithSlicing(c.sliceMax))
		}
		s, err := sched.New(ctx, sopts...)
		if err != nil {
			return nil, err
		}
		dev := d
		s.SetOnDone(func(o sched.JobOutcome) { c.jobDone(dev, o) })
		// The embedded scheduler shares the cluster's recorder and tags
		// its dispatch/complete/fail events with its device index (a nil
		// recorder is a valid no-op sink).
		s.SetTelemetry(c.tel, d)
		c.scheds = append(c.scheds, s)
	}
	if len(c.scheds) == 0 {
		return nil, fmt.Errorf("cluster: context has no devices")
	}
	if c.caching {
		t, err := residency.New(len(c.scheds), c.cacheCap)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.resident = t
	}
	if b, ok := c.place.(clusterBinder); ok {
		b.bind(c)
	}
	c.bindStealModel()
	return c, nil
}

// bindStealModel fixes the performance model the steal decisions
// price staging and service with: the predicted policy's (possibly
// Fit-calibrated) model when that policy routes the cluster, otherwise
// a fresh model from the platform configs.
func (c *Cluster) bindStealModel() {
	if !c.stealing {
		return
	}
	if p, ok := c.place.(*predicted); ok && p.m != nil {
		c.stealModel = p.m
		return
	}
	cfg := c.ctx.Config()
	m := model.New(cfg.Device, cfg.Link)
	m.StreamsPerPartition = cfg.StreamsPerPartition
	c.stealModel = m
}

// Context returns the underlying platform context.
func (c *Cluster) Context() *hstreams.Context { return c.ctx }

// NumDevices reports the cluster's device count.
func (c *Cluster) NumDevices() int { return len(c.scheds) }

// Placement returns the cluster's placement policy.
func (c *Cluster) Placement() Policy { return c.place }

// Scheduler returns device d's embedded stream scheduler (for
// inspection; mutating it mid-run corrupts the cluster).
func (c *Cluster) Scheduler(d int) *sched.Scheduler { return c.scheds[d] }

// Residency returns the cluster's staging cache, or nil when the
// cluster runs cache-less (for inspection; mutating it mid-run
// corrupts the pricing).
func (c *Cluster) Residency() *residency.Tracker { return c.resident }

// Telemetry returns the cluster's event recorder, nil when telemetry
// is disabled.
func (c *Cluster) Telemetry() *telemetry.Recorder { return c.tel }

// PricingModel returns the analytic model behind the cluster's
// pricing decisions — the predicted/affinity policy's (possibly
// Fit-calibrated) model, else the steal model, else nil for a cluster
// whose policies never price. The drift audit (internal/obs) reads
// its calibration for the artifact metadata.
func (c *Cluster) PricingModel() *model.Model {
	switch p := c.place.(type) {
	case *predicted:
		if p.m != nil {
			return p.m
		}
	case *affinity:
		if p.m != nil {
			return p.m
		}
	}
	return c.stealModel
}

// Metrics returns the drain-instant metrics snapshots recorded so far
// (nil when telemetry is disabled). A served cluster's recorder only
// streams (Recorder.StreamOnly), so after serve.New the slice no
// longer grows.
func (c *Cluster) Metrics() []telemetry.MetricsSnapshot { return c.tel.Metrics() }

// Trace writes the cluster's runs so far as Chrome trace-event JSON,
// unifying the platform's span recorder (resource occupancy) with the
// telemetry event log (scheduling decisions). Either recorder may be
// absent; with both disabled the export is an empty trace. The context
// records spans only when built with hstreams.Config.Trace, which the
// facade's NewCluster sets exactly when telemetry is attached, so a
// facade cluster's trace carries either both or neither.
func (c *Cluster) Trace(w io.Writer) error {
	return telemetry.WriteChromeTrace(w, c.ctx.Recorder().Spans(), c.tel)
}

// link returns the PCIe model shared by the cluster's links (every
// device link is configured identically), read from a link rather
// than through a copy of the whole platform configuration.
func (c *Cluster) link() pcie.Config { return c.ctx.Link(0).Config() }

// stagingCharge converts a job's staging volume into the byte count
// actually transferred on the target link.
func (c *Cluster) stagingCharge(bytes int64) int64 {
	return int64(math.Ceil(float64(bytes) * c.stagingFactor))
}

// stagingTime is the modeled link occupancy of an off-origin
// placement: the scaled volume at link rate plus one setup latency.
func (c *Cluster) stagingTime(bytes int64) sim.Duration {
	charged := c.stagingCharge(bytes)
	if charged <= 0 {
		return 0
	}
	return c.link().TransferTime(charged)
}

// stagingPrice predicts the cost of staging bytes (a job's residual
// demand after residency hits) through the analytic model's
// multi-device form: the price PredictCluster gives a staging-only
// ClusterWorkload (model.PredictStaging), so every pricing path —
// predicted placement scores and steal gains alike — carries the same
// calibrated link scales and shared-host contention. The model charges
// every staged byte as two crossings while the cluster's actual charge
// is stagingFactor × bytes in one transfer, so the model is handed half
// the charged volume and the two conventions price the same traffic
// even under a non-default WithStagingFactor.
func (c *Cluster) stagingPrice(m *model.Model, bytes int64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	charged := c.stagingCharge(bytes)
	if charged <= 0 {
		return 0
	}
	devices := len(c.scheds)
	if devices < 2 {
		devices = 2
	}
	if t := m.PredictStaging((charged+1)/2, devices); t > 0 {
		return t
	}
	return c.stagingTime(bytes)
}

// ensureStaging returns the scratch buffer staged transfers move
// through, growing it when a job needs more than any before. The
// buffer carries real backing only on functional contexts.
func (c *Cluster) ensureStaging(n int) *hstreams.Buffer {
	if n < 1 {
		n = 1
	}
	if c.stagingBuf == nil || c.stagingBuf.Len() < n {
		size := 1
		for size < n {
			size *= 2
		}
		if c.ctx.Config().ExecuteKernels {
			c.stagingBuf = hstreams.Alloc1D(c.ctx, "cluster/staging", make([]byte, size))
		} else {
			c.stagingBuf = hstreams.AllocVirtual(c.ctx, "cluster/staging", size, 1)
		}
	}
	return c.stagingBuf
}

// validate rejects malformed jobs before any of them is admitted, so
// an error leaves the cluster's state untouched. Shared by the batch
// Run entry point and Session.Submit.
func (c *Cluster) validate(jobs []Job) error {
	for i := range jobs {
		if err := c.ValidateJob(&jobs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ValidateJob reports the error a Run or Session.Submit would reject
// the job with, or nil. It reads only configuration fixed by New, so
// it is safe to call from any goroutine while a session runs.
func (c *Cluster) ValidateJob(j *Job) error {
	if len(j.Tasks) == 0 {
		return fmt.Errorf("cluster: job %d (tenant %q) has no tasks", j.ID, j.Tenant)
	}
	for k, task := range j.Tasks {
		if task == nil {
			return fmt.Errorf("cluster: job %d (tenant %q) has nil task %d", j.ID, j.Tenant, k)
		}
	}
	if j.Arrival < 0 {
		return fmt.Errorf("cluster: job %d has negative arrival %v", j.ID, j.Arrival)
	}
	if j.Origin >= len(c.scheds) {
		return fmt.Errorf("cluster: job %d origin device %d out of range [0,%d)", j.ID, j.Origin, len(c.scheds))
	}
	if j.StagingBytes < 0 {
		return fmt.Errorf("cluster: job %d has negative staging volume %d", j.ID, j.StagingBytes)
	}
	if j.Deadline < 0 {
		return fmt.Errorf("cluster: job %d has negative deadline %v", j.ID, j.Deadline)
	}
	if err := residency.Validate(j.Reads); err != nil {
		return fmt.Errorf("cluster: job %d reads: %w", j.ID, err)
	}
	if err := residency.Validate(j.Writes); err != nil {
		return fmt.Errorf("cluster: job %d writes: %w", j.ID, err)
	}
	if c.sliceMax > 0 {
		if err := sched.Sliceable(j.Tasks); err != nil {
			return fmt.Errorf("cluster: job %d (tenant %q): %w", j.ID, j.Tenant, err)
		}
	}
	return nil
}

// Run is a one-batch session: it opens a session, admits every job at
// its arrival time, drains them in one epoch under the configured
// policy and returns the session's Result — the per-job, per-device
// and per-tenant accounting. Arrival times earlier than the context's
// current virtual time clamp to it. A malformed job is rejected before
// the session opens, leaving the cluster untouched. A scheduling error
// returns the error together with a partial Result in which every
// admitted-but-unrun job is flagged Failed; so does the internal error
// of jobs left non-terminal at the epoch boundary.
func (c *Cluster) Run(jobs []Job) (*Result, error) {
	if err := c.validate(jobs); err != nil {
		return nil, err
	}
	s, err := c.NewSession(nil)
	if err != nil {
		return nil, err
	}
	// The caller cannot touch jobs before Run returns, so the session
	// admits the slice itself instead of Submit's copy.
	s.submit(jobs)
	_, err = s.RunEpoch()
	return s.Result(), err
}

// emitOutcome streams outcome idx to the session's per-job sink the
// instant it becomes terminal and gives the job's admission record, if
// it has one, back to the spare list: a caller that reads the record
// afterwards must copy what it needs first. The ended state makes the
// emission exactly-once no matter which failure path marked the job
// (admission after an error, a stranded cluster queue, a device
// abort), and the terminal counter feeds the session's drain
// accounting whether or not a sink is attached.
func (c *Cluster) emitOutcome(idx int) {
	st := c.admitted.At(idx)
	q := *st
	if q == ended {
		return
	}
	*st = ended
	if q != nil {
		c.releaseRecord(q)
	}
	c.nterminal++
	if c.onOutcome != nil {
		c.onOutcome(*c.outcomes.At(idx))
	}
}

// retireNotified moves the watermark past every leading job whose
// outcome has streamed and gives up the admission states below it. A
// session with a sink gives up those outcomes too, once they are
// folded into the Result's aggregates in index order. The fold waits
// until outcome storage retires, so it runs a chunk at a time rather
// than in every epoch's latency. It runs at the epoch boundary, where
// the slabs are about to grow into the chunks it frees.
func (c *Cluster) retireNotified() {
	w := c.watermark
	for w < c.admitted.Len() && *c.admitted.At(w) == ended {
		w++
	}
	if c.retireOutcomes && c.outcomes.Retires(w) {
		for i := c.folded; i < w; i++ {
			c.retired.add(c.outcomes.At(i))
		}
		c.folded = w
		c.outcomes.Retire(w)
	}
	c.watermark = w
	c.admitted.Retire(w)
}

// admit enqueues one arriving job and runs the placement loop.
// Arrivals after a placement error are recorded as failed outcomes
// rather than dropped.
func (c *Cluster) admit(job *Job, idx int) {
	est := job.Est
	if est <= 0 {
		est = c.scheds[0].Estimate(job.Tasks)
	}
	origin := job.Origin
	if origin < 0 {
		origin = -1
	}
	o := c.outcomes.At(idx)
	*o = Outcome{
		Index:      idx,
		ID:         job.ID,
		Tenant:     tenantOf(job),
		Arrival:    c.ctx.Now(),
		Est:        est,
		Device:     -1,
		Stream:     -1,
		Origin:     origin,
		StolenFrom: -1,
		Deadline:   job.Deadline,
	}
	if c.runErr != nil {
		o.Failed = true
		if c.tel.Enabled() {
			c.tel.Emit(telemetry.Event{At: c.ctx.Now(), Kind: telemetry.Fail,
				Job: idx, ID: job.ID, Tenant: tenantOf(job), Device: -1, From: -1, Stream: -1})
		}
		c.emitOutcome(idx)
		return
	}
	q := c.newRecord()
	*q = Queued{Job: job, Est: est, Seq: c.seq, idx: idx, dev: -1,
		reads: job.Reads, demand: job.StagingDemand()}
	*c.admitted.At(idx) = q
	c.queue.Push(q)
	c.seq++
	if c.tel.Enabled() {
		c.tel.Emit(telemetry.Event{At: c.ctx.Now(), Kind: telemetry.Admit,
			Job: idx, ID: job.ID, Tenant: tenantOf(job), Device: -1, From: -1, Stream: -1, Dur: est,
			Deadline: job.Deadline})
	}
	c.dispatch()
}

// fail records the first cluster-level error and surfaces every job
// still waiting in the cluster queue as a failed outcome; committed
// jobs keep running (their devices are healthy) and complete normally.
func (c *Cluster) fail(err error) {
	if c.runErr != nil {
		return
	}
	c.runErr = err
	stranded := c.queue.Items()
	for _, q := range stranded {
		c.outcomes.At(q.idx).Failed = true
		if c.tel.Enabled() {
			c.tel.Emit(telemetry.Event{At: c.ctx.Now(), Kind: telemetry.Fail,
				Job: q.idx, ID: q.Job.ID, Tenant: tenantOf(q.Job), Device: -1, From: -1, Stream: -1})
		}
		c.emitOutcome(q.idx)
	}
	c.queue.Pop(len(stranded))
}

// eligibleViews snapshots the devices with admission capacity for the
// placement policy, in ascending device order: c.eligDev records their
// indices, the returned views are copies in cluster-owned scratch. The
// cluster reads only c.eligDev after Place, so a policy that overwrites
// the views corrupts nothing; it must not keep them past Place
// (DESIGN.md §7).
func (c *Cluster) eligibleViews() []DeviceView {
	now := c.ctx.Now()
	c.eligDev = c.eligDev[:0]
	c.eligible = c.eligible[:0]
	for d, s := range c.scheds {
		if s.QueueDepth() >= c.depth {
			continue
		}
		c.eligDev = append(c.eligDev, d)
		c.eligible = append(c.eligible, DeviceView{
			Device:       d,
			Streams:      s.NumStreams(),
			Idle:         s.NumStreams() - s.InFlight(),
			Queued:       s.QueueDepth(),
			Backlog:      s.PendingBacklog(),
			EarliestFree: s.EarliestFree(),
			Now:          now,
		})
	}
	return c.eligible
}

// dispatch places cluster-queued jobs onto devices with admission
// capacity, oldest job first, until the queue or the capacity runs
// out — the cluster-level work-conservation loop: after it returns, a
// non-empty queue implies every device is saturated (full committed
// queue, hence no idle streams).
func (c *Cluster) dispatch() {
	for c.queue.Len() > 0 && c.runErr == nil {
		eligible := c.eligibleViews()
		if len(eligible) == 0 {
			break
		}
		q := c.queue.Items()[0]
		pick := c.place.Place(q, eligible)
		if pick < 0 {
			// The policy deferred placement (a pinning policy whose
			// target is saturated); stop until the next instant.
			break
		}
		if pick >= len(c.eligDev) {
			c.fail(fmt.Errorf("cluster: policy %s picked device index %d out of range [0,%d)",
				c.place.Name(), pick, len(c.eligDev)))
			break
		}
		dev := c.eligDev[pick]
		c.queue.Pop(1)
		if c.tel.Enabled() {
			e := telemetry.Event{At: c.ctx.Now(), Kind: telemetry.Place,
				Job: q.idx, ID: q.Job.ID, Tenant: tenantOf(q.Job),
				Device: dev, From: -1, Stream: -1}
			if sc, ok := c.place.(Scorer); ok {
				// The scores the decision just computed; the event keeps
				// its own copy.
				scores := sc.Scores()
				e.Scores = c.cutScores(len(scores))
				for i, s := range scores {
					e.Scores[i] = telemetry.Score{Device: c.eligDev[i], Predicted: s}
				}
			}
			c.tel.Emit(e)
		}
		c.route(q, dev)
	}
	if c.afterChange != nil && c.runErr == nil {
		c.afterChange()
	}
}

// scoreChunkLen is how many scores one block for Place events holds.
const scoreChunkLen = 256

// cutScores returns a fresh slice of n scores, capped at n so an
// append by a consumer never reaches the next event's scores.
func (c *Cluster) cutScores(n int) []telemetry.Score {
	if c.scoreChunk == nil || len(c.scoreChunk) < n {
		c.scoreChunk = make([]telemetry.Score, max(scoreChunkLen, n))
	}
	out := c.scoreChunk[:n:n]
	c.scoreChunk = c.scoreChunk[n:]
	return out
}

// route commits one job to a device: charges the staging transfer when
// the job runs off its origin — only the cold-miss remainder when the
// residency cache holds part of the job's read set — submits to the
// device's scheduler, and records the placement. A pre-dispatch stolen
// job routes through here again with its staging fields reset, so the
// charge reflects the final device; a mid-job migrated remainder
// (q.next > 0) routes only its remaining tasks and *accumulates* the
// staging accounting, because the victim's transfer really ran.
func (c *Cluster) route(q *Queued, dev int) {
	job := q.Job
	idx := q.idx
	o := c.outcomes.At(idx)
	o.Device = dev
	if q.dev < 0 {
		o.Placed = c.ctx.Now()
	} else {
		// A re-route after a steal: Placed keeps the first commitment
		// instant (PlaceWait measures cluster-queue time, not steals).
		o.StolenAt = c.ctx.Now()
	}
	if q.next == 0 {
		o.Staged = false
		o.StagedBytes = 0
		o.StagingEst = 0
		o.HitBytes = 0
		o.MissBytes = 0
	}
	q.rcpt = residency.Receipt{}
	q.hitBytes, q.missBytes = 0, 0
	// The device the job leaves (if any) withdrew it, so nothing runs
	// the last commitment's stage task any more.
	c.releaseStage(q)

	tasks := job.Tasks[q.next:]
	if q.next > 0 {
		// A migrated remainder re-enters as a fresh submission on the
		// thief: dependencies on consumed tasks are satisfied temporally
		// (the slices serialized on the victim) and must be stripped, or
		// EnqueuePhase would reject references to tasks it never saw.
		inRem := make(map[int]bool, len(tasks))
		for _, t := range tasks {
			inRem[t.ID] = true
		}
		clean := make([]*core.Task, len(tasks))
		for i, t := range tasks {
			ct := *t
			if len(ct.DependsOn) > 0 {
				deps := make([]int, 0, len(ct.DependsOn))
				for _, d := range ct.DependsOn {
					if inRem[d] {
						deps = append(deps, d)
					}
				}
				ct.DependsOn = deps
			}
			clean[i] = &ct
		}
		tasks = clean
	}
	est := q.Est
	if job.Origin >= 0 && job.Origin != dev && q.demand > 0 {
		miss := q.demand
		if c.resident != nil && len(q.reads) > 0 {
			var hit int64
			hit, miss, q.rcpt = c.resident.Commit(dev, q.reads)
			q.hitBytes = hit
			o.HitBytes += hit
			c.telHit += hit
			if hit > 0 && c.tel.Enabled() {
				c.tel.Emit(telemetry.Event{At: c.ctx.Now(), Kind: telemetry.Hit,
					Job: idx, ID: job.ID, Tenant: tenantOf(job), Device: dev, From: -1, Stream: -1, Bytes: hit})
			}
		}
		q.missBytes = miss
		o.MissBytes += miss
		c.telMiss += miss
		if miss > 0 {
			charged := c.stagingCharge(miss)
			buf := c.ensureStaging(int(charged))
			maxID := tasks[0].ID
			for _, t := range tasks {
				if t.ID > maxID {
					maxID = t.ID
				}
			}
			r := c.newStageRecord()
			q.stage = r
			r.xfer[0] = core.Xfer(buf, 0, int(charged))
			r.task = core.Task{
				ID:           maxID + 1,
				H2D:          r.xfer[:],
				StreamHint:   -1,
				TransferOnly: true,
			}
			// The stage task leads the job on its (single) stream, so
			// FIFO order delays every real task behind the staged bytes.
			r.tasks = append(append(r.tasks[:0], &r.task), tasks...)
			tasks = r.tasks
			r.bytes, r.est = charged, c.stagingTime(miss)
			o.Staged = true
			o.StagedBytes += charged
			o.StagingEst += r.est
			est += r.est
			c.telStaged[dev] += charged
			if c.tel.Enabled() {
				c.tel.Emit(telemetry.Event{At: c.ctx.Now(), Kind: telemetry.Stage,
					Job: idx, ID: job.ID, Tenant: tenantOf(job), Device: dev, From: -1, Stream: -1,
					Bytes: charged, Dur: r.est})
			}
		}
	}

	// The scheduler copies the job into its own record, so this one
	// stays on the stack.
	sjob := sched.Job{ID: job.ID, Tenant: job.Tenant, Tasks: tasks, Est: est}
	if err := c.scheds[dev].Submit(idx, &sjob); err != nil {
		if c.resident != nil {
			// The rejected job's staged transfer never enqueued: the
			// tiles its commit installed must not survive into later
			// runs as phantom residency.
			c.resident.Rollback(q.rcpt)
		}
		o.Failed = true
		if c.tel.Enabled() {
			c.tel.Emit(telemetry.Event{At: c.ctx.Now(), Kind: telemetry.Fail,
				Job: idx, ID: job.ID, Tenant: tenantOf(job), Device: dev, From: -1, Stream: -1})
		}
		c.emitOutcome(idx)
		c.fail(fmt.Errorf("cluster: job %d on device %d: %w", job.ID, dev, err))
		return
	}
	q.dev = dev
}

// newRecord takes an admission record from the spare list, or carves
// one from the record chunks.
func (c *Cluster) newRecord() *Queued {
	if n := len(c.spare); n > 0 {
		q := c.spare[n-1]
		c.spare = c.spare[:n-1]
		return q
	}
	c.made++
	return &c.records.Take(1)[0]
}

// releaseRecord gives the record of a terminal job, and its stage
// record, back for reuse; the caller must not touch q afterwards.
func (c *Cluster) releaseRecord(q *Queued) {
	c.releaseStage(q)
	*q = Queued{}
	c.spare = append(c.spare, q)
}

// newStageRecord takes a stage record from the free list, or makes one.
func (c *Cluster) newStageRecord() *stageRecord {
	if n := len(c.stageFree); n > 0 {
		r := c.stageFree[n-1]
		c.stageFree = c.stageFree[:n-1]
		return r
	}
	return new(stageRecord)
}

// releaseStage returns the job's stage record, if any, to the free
// list, dropping its references to the job's tasks.
func (c *Cluster) releaseStage(q *Queued) {
	r := q.stage
	if r == nil {
		return
	}
	clear(r.tasks)
	r.tasks = r.tasks[:0]
	c.stageFree = append(c.stageFree, r)
	q.stage = nil
}

// jobDone records a completion reported by a per-device scheduler and
// re-enters the placement loop: a drained stream may have opened
// admission capacity for a cluster-queued job, and — with stealing
// enabled — the drain instant is where committed jobs may re-bind.
func (c *Cluster) jobDone(dev int, o sched.JobOutcome) {
	idx := o.Index
	q := *c.admitted.At(idx)
	if q.dev != dev {
		if o.Failed {
			// A report from a device the job is not committed to: a
			// failure fired inside route's own Submit (an enqueue error
			// during the synchronous dispatch) before route recorded
			// the commitment. route sees Submit's error and records the
			// real cause.
			return
		}
		c.fail(fmt.Errorf("cluster: internal error: device %d reported job %d, committed to device %d", dev, idx, q.dev))
		return
	}
	out := c.outcomes.At(idx)
	if o.Failed {
		// The device scheduler aborted with this job still queued;
		// mirror it as a failed cluster outcome, surface the device's
		// error, and roll back the residency installs of a staged
		// transfer that never ran (the cache persists across runs, so
		// phantom tiles would under-charge a later warm replay).
		if c.resident != nil {
			c.resident.Rollback(q.rcpt)
		}
		out.Failed = true
		c.emitOutcome(idx)
		if err := c.scheds[dev].Err(); err != nil && c.runErr == nil {
			c.fail(err)
		}
		return
	}
	out.Stream = o.Stream
	if out.Slices == 0 {
		// A mid-job migration already captured the victim's dispatch
		// instant (and slice count); only a never-migrated job takes its
		// Start from the completing device.
		out.Start = o.Start
	}
	out.Slices += o.Slices
	out.Done = o.Done
	if out.Deadline > 0 && out.Latency() > out.Deadline {
		out.Missed = true
	}
	c.done++
	job := q.Job
	c.emitOutcome(idx)
	if c.runErr != nil {
		return
	}
	now := c.ctx.Now()
	if c.tel.Enabled() {
		c.tel.Emit(telemetry.Event{At: now, Kind: telemetry.Drain,
			Job: idx, ID: out.ID, Tenant: out.Tenant, Device: dev, From: -1, Stream: o.Stream})
		i, seen := slices.BinarySearch(c.tenantSeen, out.Tenant)
		if !seen {
			c.tenantSeen = slices.Insert(c.tenantSeen, i, out.Tenant)
			c.tenantLat = slices.Insert(c.tenantLat, i, stats.Running{})
		}
		c.tenantLat[i].Add(float64(out.Latency()))
	}
	if c.resident != nil {
		// The drain instant is where write effects land and where
		// capacity is enforced (DESIGN.md §11): invalidate every other
		// device's copy of the completed job's written tiles, then
		// LRU-evict each device back under its byte budget, so the
		// placements priced below see the post-completion cache.
		if len(job.Writes) > 0 {
			var inv0 int64
			if c.tel.Enabled() {
				inv0 = c.resident.Stats().InvalidatedBytes
			}
			c.resident.Invalidate(dev, job.Writes, job.Origin >= 0 && job.Origin != dev)
			if c.tel.Enabled() {
				if d := c.resident.Stats().InvalidatedBytes - inv0; d > 0 {
					c.tel.Emit(telemetry.Event{At: now, Kind: telemetry.Invalidate,
						Job: idx, ID: out.ID, Tenant: out.Tenant, Device: dev, From: dev, Stream: -1, Bytes: d})
				}
			}
		}
		// Per-device enforcement in device order, so each device's
		// evicted volume is observable.
		for d := range c.scheds {
			if ev := c.resident.Enforce(d); ev > 0 && c.tel.Enabled() {
				c.tel.Emit(telemetry.Event{At: now, Kind: telemetry.Evict,
					Job: -1, ID: -1, Device: d, From: -1, Stream: -1, Bytes: ev})
			}
		}
	}
	c.dispatch()
	c.trySteals()
	if c.tel.Enabled() {
		c.captureMetrics(now)
		if c.tel.Deferred() {
			c.drained = true
			c.tel.Instant(now)
		} else {
			c.tel.AddMetrics(c.finishMetrics())
		}
	}
}

// flushMetrics hands a Deferred recorder the snapshot of the epoch's
// last drain instant, if the epoch had one.
func (c *Cluster) flushMetrics() {
	if c.drained {
		c.drained = false
		c.tel.AddMetrics(c.finishMetrics())
	}
}

// kernelBusy sums device d's cumulative partition-server occupancy —
// the kernel-side counterpart of pcie.Link.TotalBusy.
func (c *Cluster) kernelBusy(d int) sim.Duration {
	var b sim.Duration
	for _, p := range c.ctx.Device(d).Partitions() {
		b += p.BusyTime()
	}
	return b
}

// captureMetrics takes the first half of the snapshot at a drain
// instant, after the instant's placement and steal passes ran: the
// scalars and the devices. Pure observation: every input is a
// read-only accessor, so metering never perturbs a decision.
func (c *Cluster) captureMetrics(at sim.Time) {
	elapsed := at.Sub(c.runStart)
	secs := elapsed.Seconds()
	c.snap = telemetry.MetricsSnapshot{
		At:           at,
		Elapsed:      elapsed,
		Done:         c.done,
		Steals:       c.steals,
		ClusterQueue: c.queue.Len(),
		HitBytes:     c.telHit,
		MissBytes:    c.telMiss,
	}
	parts := c.ctx.Device(0).NumPartitions()
	// Devices and Tenants reuse the cluster's scratch: the recorder's
	// log and every observer that keeps a snapshot copy them.
	c.snapDevs = slices.Grow(c.snapDevs[:0], len(c.scheds))[:len(c.scheds)]
	snap := &c.snap
	snap.Devices = c.snapDevs
	for d, s := range c.scheds {
		dm := telemetry.DeviceMetrics{
			Device:      d,
			Queued:      s.QueueDepth(),
			InFlight:    s.InFlight(),
			Backlog:     s.PendingBacklog(),
			KernelBusy:  c.kernelBusy(d) - c.kernBusy0[d],
			LinkBusy:    c.ctx.Link(d).TotalBusy() - c.linkBusy0[d],
			StagedBytes: c.telStaged[d],
		}
		if c.resident != nil {
			dm.ResidentBytes = c.resident.ResidentBytes(d)
		}
		if secs > 0 && parts > 0 {
			dm.Utilization = dm.KernelBusy.Seconds() / (secs * float64(parts))
		}
		snap.Devices[d] = dm
	}
}

// finishMetrics completes the snapshot captureMetrics began with the
// tenants and their fairness index, and returns it.
func (c *Cluster) finishMetrics() telemetry.MetricsSnapshot {
	snap := &c.snap
	secs := snap.Elapsed.Seconds()
	if len(c.tenantSeen) > 0 {
		c.snapTens = slices.Grow(c.snapTens[:0], len(c.tenantSeen))[:len(c.tenantSeen)]
		snap.Tenants = c.snapTens
	}
	c.tput = c.tput[:0]
	for i, name := range c.tenantSeen {
		acc := &c.tenantLat[i]
		tm := telemetry.TenantMetrics{Tenant: name, Done: acc.N(),
			MeanLatency: sim.Duration(acc.Mean()), P95: sim.Duration(acc.P95())}
		if secs > 0 {
			tm.Throughput = float64(tm.Done) / secs
		}
		snap.Tenants[i] = tm
		c.tput = append(c.tput, float64(tm.Done))
	}
	snap.Fairness = stats.JainIndex(c.tput)
	return *snap
}

// remainderNeeds maps a migrated remainder — tasks [next:] of the
// job's original list — onto the staging demand it still carries. The
// job's declared read tiles are assumed consumed uniformly in task
// order (task k of K covers read tiles [T·k/K, T·(k+1)/K)); a tile
// straddling the cut still belongs to the remainder. For the per-tile
// task lists the scenario generator builds this is exact — task k
// reads tile k — and for any other shape it is a deterministic
// proportional model. Jobs declaring StagingBytes without regions
// prorate the volume the same way.
func remainderNeeds(job *Job, next int) ([]residency.Region, int64) {
	k := len(job.Tasks)
	if next <= 0 || k == 0 {
		return job.Reads, job.StagingDemand()
	}
	if next >= k {
		return nil, 0
	}
	if len(job.Reads) == 0 {
		rem := job.StagingBytes - job.StagingBytes*int64(next)/int64(k)
		return nil, rem
	}
	total := 0
	for _, r := range job.Reads {
		total += r.Tiles
	}
	skip := total * next / k
	var rem []residency.Region
	for _, r := range job.Reads {
		if skip >= r.Tiles {
			skip -= r.Tiles
			continue
		}
		rr := r
		rr.First += skip
		rr.Tiles -= skip
		skip = 0
		rem = append(rem, rr)
	}
	return rem, residency.TotalBytes(rem)
}

// tenantOf returns the job's tenant label, defaulting empty to
// "default".
func tenantOf(j *Job) string {
	if j.Tenant == "" {
		return "default"
	}
	return j.Tenant
}
