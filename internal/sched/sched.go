// Package sched is the online multi-tenant job scheduler: it admits a
// stream of offload jobs — each a []*core.Task workload tagged with a
// tenant and a virtual arrival time — onto the simulated platform,
// instead of the single-phase core.Run the paper's experiments use.
//
// The scheduler is built directly on the discrete-event engine:
// arrivals are engine events, dispatch decisions happen at exactly two
// kinds of instants (a job arriving, a stream draining), and a
// pluggable Policy chooses which queued job runs next and on which
// idle stream. Because every decision point is an engine event and
// every queue is ordered by (time, admission sequence), a run is
// bit-identical across repeats, machines, and Go versions — the same
// determinism contract as the rest of the repository (DESIGN.md §6).
//
// The dispatch loop is structurally work-conserving: whenever the
// admission queue is non-empty and a stream is idle, a job is
// dispatched before virtual time can advance. Policies only choose
// *which* job and *which* stream; they cannot choose to idle.
//
// Four policies ship with the package: FIFO (arrival order, pack the
// lowest idle stream), RoundRobin (arrival order, rotate placement
// across partitions), SJF (shortest estimated job first, least-loaded
// placement) and Adaptive (per-tenant stream shares derived from
// model-predicted work, re-planned online when the mix drifts —
// DESIGN.md §8). Use ByName to construct one from its CLI name, or
// implement Policy for custom dispatch.
//
// A scheduler normally owns every stream of its context, but
// WithStreams restricts it to a subset — one scheduler per device is
// how the multi-MIC cluster layer (internal/cluster) embeds it. In
// that embedded mode the batch Run call is replaced by Reset + online
// Submit calls keyed by the embedding layer's own job index, with
// SetOnDone handing each job's outcome to the embedding layer as the
// job ends; the scheduler keeps no record of a job after that
// (DESIGN.md §9).
package sched

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"micstream/internal/arena"
	"micstream/internal/core"
	"micstream/internal/hstreams"
	"micstream/internal/sim"
	"micstream/internal/stats"
	"micstream/internal/telemetry"
)

// Job is one unit of admission: a tenant-tagged task list that becomes
// runnable at Arrival. The scheduler treats the task list as an opaque
// workload — tasks keep their intra-job dependencies — and pins every
// task to the stream the policy selects, so one job occupies exactly
// one stream from dispatch to completion.
type Job struct {
	// ID labels the job in results; it need not be unique (the
	// scheduler identifies jobs by their key: the position in the Run
	// slice, or the key given to Submit).
	ID int
	// Tenant attributes the job for per-tenant accounting. Empty means
	// "default".
	Tenant string
	// Arrival is the virtual time the job becomes runnable.
	Arrival sim.Time
	// Tasks is the job's workload. StreamHint values are overridden by
	// the scheduler's placement decision.
	Tasks []*core.Task
	// Est optionally declares the job's service-time estimate used by
	// cost-aware policies; 0 means the scheduler derives one from the
	// tasks' kernel costs and transfer sizes.
	Est sim.Duration
	// Deadline is the job's relative completion deadline (latency
	// budget measured from admission); 0 means none. Deadlines are
	// accounting only — they tag the outcome (JobOutcome.Missed) and
	// the telemetry Admit event, and never influence dispatch order
	// (a deadline-aware policy would read them through Pending.Job).
	Deadline sim.Duration
}

// Pending is a queued job together with the bookkeeping policies see.
type Pending struct {
	// Job is the queued job: the scheduler's own copy of the job
	// submitted.
	Job *Job
	// Est is the service-time estimate (declared or derived). For a
	// partially-dispatched job under WithSlicing it covers only the
	// remaining tasks — completed slices no longer count as backlog.
	Est sim.Duration
	// Seq is the admission sequence number; FIFO order is ascending
	// Seq.
	Seq int
	// Next is the index of the first not-yet-dispatched task: 0 for a
	// job that never started, positive for the remainder of a
	// partially-dispatched job re-queued between slices (WithSlicing).
	Next int

	// rem is the unclamped price of tasks [Next:] (Scheduler.price)
	// once the job has reached a slice boundary: each boundary subtracts
	// the slice it ends instead of re-pricing the remainder.
	rem sim.Duration
	// out is the job's live outcome from admission until the job ends;
	// out.Index is its key.
	out JobOutcome
	// job is the copy Job points at.
	job Job
}

// View is the platform snapshot handed to a policy at a decision
// point. The scheduler reuses one View and its slices for every
// decision, refreshing them as copies of its own state before each
// Pick: a policy may read and even overwrite them without affecting
// the scheduler, but must not keep the View or its slices past Pick
// (DESIGN.md §7).
type View struct {
	// Now is the current virtual time.
	Now sim.Time
	// StreamLoad is the cumulative estimated service each stream has
	// been handed so far — the least-loaded signal.
	StreamLoad []sim.Duration
	// StreamPartition maps each stream to its global partition index
	// (device-major): streams sharing a partition contend for its
	// cores, which is what partition-aware placement avoids.
	StreamPartition []int
	// StreamTenant maps each stream to the tenant of the job it is
	// running ("" when idle) — the allocation snapshot tenant-aware
	// policies re-balance against.
	StreamTenant []string
	// Partitions is the global partition count across devices.
	Partitions int
}

// Policy chooses, at each dispatch opportunity, which pending job runs
// next and on which idle stream. pending and idle are non-empty;
// pending is in admission order. idle and the View are per-scheduler
// scratch, refreshed copies valid only during the Pick call; pending is
// the admission queue itself and must not be modified, and its records
// are reused once their jobs leave the scheduler, so a policy must not
// keep one, or its Job, past Pick. Implementations may keep per-run
// state (e.g. a round-robin cursor) and must be deterministic
// functions of their inputs and that state.
type Policy interface {
	// Name identifies the policy in results and CLIs.
	Name() string
	// Pick returns an index into pending and a member of idle.
	Pick(pending []*Pending, idle []int, v *View) (pendIdx, stream int)
}

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithPolicy selects the scheduling policy (default FIFO). The policy
// instance must not be shared with another live scheduler.
func WithPolicy(p Policy) Option {
	return func(s *Scheduler) { s.policy = p }
}

// WithTelemetry attaches a scheduling-event recorder: the scheduler
// emits admit, dispatch, complete and fail events at their decision
// instants (DESIGN.md §12). A nil recorder (the default) disables
// telemetry at zero cost — every emission site is guarded, so the
// disabled hot path constructs nothing. Recording never feeds back
// into a decision: a traced run's Result is bit-identical to an
// untraced one.
func WithTelemetry(rec *telemetry.Recorder) Option {
	return func(s *Scheduler) { s.tel = rec }
}

// WithSlicing caps how many tasks a single stream grant dispatches
// (default 0 = off: a job pins whole, the pre-slicing behavior). With
// a positive cap the scheduler dispatches a *slice* — a prefix of the
// job's remaining task list, which is dependency-closed because task
// lists are dependency-ordered (core.EnqueuePhase's contract) — and at
// the slice's completion re-queues the remainder behind the policy, so
// dispatch decisions happen at task granularity: light jobs overtake a
// heavy job between its slices, and the adaptive policy re-plans
// tenant shares at every slice boundary. Slice boundaries are ordinary
// drain instants, so determinism is unchanged; a re-queued remainder
// keeps its admission sequence and key. Dependencies crossing
// a slice boundary are satisfied temporally — slices of one job
// serialize — and are stripped from the enqueued copy.
func WithSlicing(maxTasksPerSlice int) Option {
	return func(s *Scheduler) { s.sliceMax = maxTasksPerSlice }
}

// WithStreams restricts the scheduler to a subset of the context's
// streams, identified by their context-wide ids (default: all). The
// cluster layer uses one scheduler per device, each owning that
// device's streams; two live schedulers must not share a stream.
// Policies see the owned streams re-indexed 0..n-1 in the given order,
// with partitions renumbered by first appearance.
func WithStreams(ids ...int) Option {
	return func(s *Scheduler) { s.streams = append(make([]int, 0, len(ids)), ids...) }
}

// Scheduler runs admission and dispatch over one hstreams context (or,
// with WithStreams, over a slice of it). A scheduler may execute
// several Run calls sequentially; each call drains completely before
// returning. Alternatively an embedding layer drives it online:
// Reset, then Submit at arrival instants, observing completions via
// SetOnDone.
type Scheduler struct {
	ctx    *hstreams.Context
	policy Policy

	// tel is the scheduling-event sink (nil = disabled); telDev is the
	// device index an embedding cluster stamps on this scheduler's
	// events, -1 standalone. In embedded mode the cluster logs its own
	// admissions, so the scheduler emits only dispatch/complete/fail.
	tel    *telemetry.Recorder
	telDev int

	// sliceMax caps the tasks per stream grant (0 = whole-job
	// dispatch).
	sliceMax int

	// streams lists the context-wide ids of the owned streams; all
	// other per-stream state is indexed by position in this slice
	// (the "local" index policies see).
	streams []int
	// streamPart maps local stream index → local partition index;
	// fixed by the platform topology and the owned subset.
	streamPart []int
	nparts     int

	// Per-run state, reset by Reset (and therefore by Run). A job's
	// outcome lives in its Pending record until the job ends; results
	// is where Run collects the ended ones, by key, into Result.Jobs
	// (nil between Runs: an embedded scheduler keeps no history), and
	// runJobs the jobs Run's arrival feed admits.
	pending      []*Pending
	busy         []bool
	load         []sim.Duration
	freeAt       []sim.Time
	streamTenant []string
	results      []JobOutcome
	runJobs      []Job
	done         int
	seq          int
	runErr       error
	onDone       func(JobOutcome)

	// Dispatch scratch, reused across decisions so a dispatch allocates
	// nothing of its own: the policy's View and idle list (refreshed
	// copies, valid only during Pick), a slice's dependency scratch,
	// and one grant record per stream for the slice in flight there.
	view     View
	viewLoad []sim.Duration
	viewPart []int
	viewTen  []string
	idle     []int
	depBuf   []int
	inChunk  map[int]bool
	grants   []grant

	// spare holds Pending records whose job left the queue and the
	// streams for good, for admit to reuse: a job's record lives only
	// from admission to completion, withdrawal or failure, so the
	// records in use never outnumber the queued and in-flight jobs.
	spare   []*Pending
	records arena.Runs[Pending]
}

// grant is the record of one stream grant in flight, one per stream
// because a stream runs at most one slice at a time. done is its
// completion callback, made once per stream in New, so registering it
// on a slice's final event allocates nothing per grant. phase is the
// stream's own phase, which each slice granted there is enqueued
// through: the previous slice on a stream has always resolved when
// the next one resets the phase, so its events are all recycled.
type grant struct {
	p       *Pending
	end     int          // index after the slice's last task
	price   sim.Duration // unclamped price of a partial slice's tasks
	granted sim.Time     // dispatch instant
	done    func()
	phase   core.Phase
}

// binder is implemented by policies that derive state from the
// platform (e.g. a performance model built from the device and link
// configs); Scheduler.Run calls it before the first dispatch.
type binder interface{ bind(*hstreams.Context) }

// New builds a scheduler over ctx.
func New(ctx *hstreams.Context, opts ...Option) (*Scheduler, error) {
	if ctx == nil {
		return nil, fmt.Errorf("sched: nil context")
	}
	s := &Scheduler{ctx: ctx, policy: FIFO(), telDev: -1}
	for _, opt := range opts {
		opt(s)
	}
	if s.policy == nil {
		return nil, fmt.Errorf("sched: nil policy")
	}
	if s.streams == nil {
		s.streams = make([]int, ctx.NumStreams())
		for i := range s.streams {
			s.streams[i] = i
		}
	}
	if len(s.streams) == 0 {
		return nil, fmt.Errorf("sched: empty stream set")
	}
	cfg := ctx.Config()
	// Renumber the owned streams' partitions by first appearance; for
	// the default full set this reproduces the context's device-major
	// partition numbering exactly.
	s.streamPart = make([]int, len(s.streams))
	partIdx := make(map[int]int)
	seen := make(map[int]bool, len(s.streams))
	for i, id := range s.streams {
		if id < 0 || id >= ctx.NumStreams() {
			return nil, fmt.Errorf("sched: stream id %d out of range [0,%d)", id, ctx.NumStreams())
		}
		if seen[id] {
			return nil, fmt.Errorf("sched: duplicate stream id %d", id)
		}
		seen[id] = true
		st := ctx.Stream(id)
		global := st.DeviceIndex()*cfg.Partitions + st.Partition().Index()
		local, ok := partIdx[global]
		if !ok {
			local = len(partIdx)
			partIdx[global] = local
		}
		s.streamPart[i] = local
	}
	s.nparts = len(partIdx)
	n := len(s.streams)
	s.viewLoad = make([]sim.Duration, n)
	s.viewPart = make([]int, n)
	s.viewTen = make([]string, n)
	s.grants = make([]grant, n)
	for i := range s.grants {
		stream := i
		s.grants[i].done = func() { s.grantDone(stream) }
	}
	s.Reset()
	return s, nil
}

// Policy returns the scheduler's policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// Context returns the underlying platform context.
func (s *Scheduler) Context() *hstreams.Context { return s.ctx }

// Streams returns the context-wide ids of the streams the scheduler
// owns, in local-index order.
func (s *Scheduler) Streams() []int { return append([]int(nil), s.streams...) }

// NumStreams reports how many streams the scheduler owns, without the
// copy Streams makes — the per-decision snapshot path uses it.
func (s *Scheduler) NumStreams() int { return len(s.streams) }

// validate rejects jobs the dispatch loop cannot execute: no tasks, a
// nil task, or — on a WithSlicing scheduler — a task list slicing
// cannot cut.
func (s *Scheduler) validate(j *Job) error {
	if len(j.Tasks) == 0 {
		return fmt.Errorf("sched: job %d (tenant %q) has no tasks", j.ID, j.Tenant)
	}
	for k, task := range j.Tasks {
		if task == nil {
			return fmt.Errorf("sched: job %d (tenant %q) has nil task %d", j.ID, j.Tenant, k)
		}
	}
	if s.sliceMax > 0 {
		if err := Sliceable(j.Tasks); err != nil {
			return fmt.Errorf("sched: job %d (tenant %q): %w", j.ID, j.Tenant, err)
		}
	}
	return nil
}

// Sliceable checks the dependency-ordering invariant slicing cuts at:
// every DependsOn target must be an earlier task in the list, so any
// prefix of the remaining list is dependency-closed. EnqueuePhase
// enforces the same order at dispatch; layers that slice — a
// WithSlicing scheduler, the cluster's mid-job migration — check it at
// admission, before a half-dispatched job can strand.
func Sliceable(tasks []*core.Task) error {
	for i, t := range tasks {
		for _, d := range t.DependsOn {
			// Search back from the dependent: a chain's target is the
			// task just before it.
			k := i - 1
			for k >= 0 && tasks[k].ID != d {
				k--
			}
			if k < 0 {
				return fmt.Errorf("task %d depends on %d which is not an earlier task; slicing needs dependency-ordered task lists", t.ID, d)
			}
		}
	}
	return nil
}

// Reset clears the scheduler's per-run state and re-binds the policy,
// preparing for a fresh sequence of Submit calls. Run calls it
// implicitly; embedding layers call it once per composed run.
func (s *Scheduler) Reset() {
	if b, ok := s.policy.(binder); ok {
		b.bind(s.ctx)
	}
	if r, ok := s.policy.(resetter); ok {
		r.reset()
	}
	n := len(s.streams)
	s.pending = nil
	s.busy = make([]bool, n)
	s.load = make([]sim.Duration, n)
	s.freeAt = make([]sim.Time, n)
	s.streamTenant = make([]string, n)
	s.results = nil
	s.done = 0
	s.seq = 0
	s.runErr = nil
}

// Submit admits one job under the embedding layer's key at the current
// virtual instant (its Arrival field is ignored — the embedding layer
// owns arrival timing) and runs the dispatch loop. The key identifies
// the job from then on: it is the job's JobOutcome.Index, its
// PendingView.Index, the argument Withdraw takes and the Job of every
// telemetry event about it. The scheduler does not check keys; the
// caller keeps them unique among the jobs it has in the scheduler. The
// job's outcome reaches SetOnDone's hook when the job ends, and the
// scheduler keeps nothing of it afterwards. The scheduler keeps a copy
// of *job, not the pointer, so the caller may reuse *job at once; the
// task list is shared, and must stay unchanged until the job completes.
func (s *Scheduler) Submit(key int, job *Job) error {
	if err := s.validate(job); err != nil {
		return err
	}
	if s.runErr != nil {
		return s.runErr
	}
	s.admit(job, key)
	return s.runErr
}

// PendingView describes one admitted-but-undispatched job to an
// embedding layer: its key (as given to Submit), the service estimate
// dispatch accounting uses (including any staging transfer the
// embedder prepended), and the admission sequence number.
type PendingView struct {
	Index int
	Est   sim.Duration
	Seq   int
	// Next is the first not-yet-dispatched task index: 0 for a job
	// that never started, positive for the re-queued remainder of a
	// partially-dispatched job (WithSlicing) — the mid-job steal
	// candidates the cluster layer migrates at task granularity.
	Next int
}

// PendingAt describes the admission queue's job i, for i below
// QueueDepth, in admission order — the per-job view the cluster
// layer's work stealing chooses victims from, where PendingBacklog
// only reports the queue's total. A scan that calls nothing that
// changes the queue reads it in place.
func (s *Scheduler) PendingAt(i int) PendingView {
	p := s.pending[i]
	return PendingView{Index: p.out.Index, Est: p.Est, Seq: p.Seq, Next: p.Next}
}

// Withdraw removes the queued job with the given key from the
// admission queue and returns a copy of the submitted job together with
// its outcome so far — Start and Slices record the progress of a
// remainder withdrawn between slices. It reports false when the key is
// unknown or the job is not currently queued — a withdrawn job must be
// in the queue, either never dispatched or (with WithSlicing) a
// remainder re-queued between slices; a job with a slice in flight is
// never in the queue and therefore never withdrawable mid-slice. The
// scheduler forgets the job: its outcome never reaches SetOnDone's
// hook. The cluster layer withdraws committed jobs and mid-job
// remainders at drain instants to re-bind them elsewhere (DESIGN.md
// §10, §13).
func (s *Scheduler) Withdraw(key int) (Job, JobOutcome, bool) {
	for i, p := range s.pending {
		if p.out.Index == key {
			s.unqueue(i)
			job, out := p.job, p.out
			s.release(p)
			return job, out, true
		}
	}
	return Job{}, JobOutcome{}, false
}

// unqueue removes pending[i], clearing the vacated slot past the new
// length so the queue's array keeps no stale record alive.
func (s *Scheduler) unqueue(i int) {
	n := len(s.pending) - 1
	copy(s.pending[i:], s.pending[i+1:])
	s.pending[n] = nil
	s.pending = s.pending[:n]
}

// newPending returns a record for an admitted job, reusing a released
// one when it can.
func (s *Scheduler) newPending() *Pending {
	if n := len(s.spare); n > 0 {
		p := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return p
	}
	return &s.records.Take(1)[0]
}

// release returns the record of a job that left the queue and the
// streams for good; the caller must not touch p afterwards.
func (s *Scheduler) release(p *Pending) {
	*p = Pending{}
	s.spare = append(s.spare, p)
}

// SetTelemetry attaches a scheduling-event recorder in embedded mode,
// stamping device on every event this scheduler emits. The cluster
// layer calls it so per-device dispatch and completion instants land
// in the cluster-wide log; admissions are logged by the cluster
// itself, so an embedded scheduler does not emit Admit events.
func (s *Scheduler) SetTelemetry(rec *telemetry.Recorder, device int) {
	s.tel = rec
	s.telDev = device
}

// SetOnDone registers fn to run with the outcome of every job that
// ends — completed, or failed by a dispatch error — after the
// scheduler has updated its own state and, at a completion instant,
// re-entered the dispatch loop. The cluster layer uses it to place
// queued jobs at drain instants. It fires under Run too.
func (s *Scheduler) SetOnDone(fn func(JobOutcome)) { s.onDone = fn }

// end hands the outcome of a job that ended to Run's results and to
// the SetOnDone hook.
func (s *Scheduler) end(o JobOutcome) {
	if s.results != nil {
		s.results[o.Index] = o
	}
	if s.onDone != nil {
		s.onDone(o)
	}
}

// Err reports a dispatch error raised since the last Reset (a policy
// picking an invalid job or stream), nil while healthy.
func (s *Scheduler) Err() error { return s.runErr }

// QueueDepth reports the number of admitted-but-undispatched jobs.
func (s *Scheduler) QueueDepth() int { return len(s.pending) }

// InFlight reports the number of dispatched-but-unfinished jobs.
func (s *Scheduler) InFlight() int {
	n := 0
	for _, b := range s.busy {
		if b {
			n++
		}
	}
	return n
}

// PendingBacklog sums the service estimates of the queued jobs — the
// time-denominated load signal the cluster's predicted placement uses,
// where queue depth alone is blind to job sizes. A partially-
// dispatched job counts only its remaining tasks: each slice boundary
// re-estimates the remainder, so completed work never inflates the
// backlog a steal decision reads.
func (s *Scheduler) PendingBacklog() sim.Duration {
	var total sim.Duration
	for _, p := range s.pending {
		total += p.Est
	}
	return total
}

// EarliestFree estimates when a stream next becomes idle: now when one
// already is, otherwise the smallest estimated completion instant of
// the in-flight jobs. It is an estimate (service estimates, not
// simulated futures) — a ranking signal, not a prediction.
func (s *Scheduler) EarliestFree() sim.Time {
	now := s.ctx.Now()
	best := sim.Time(-1)
	for i, b := range s.busy {
		if !b {
			return now
		}
		if best < 0 || s.freeAt[i] < best {
			best = s.freeAt[i]
		}
	}
	if best < now {
		best = now
	}
	return best
}

// Run admits every job at its arrival time, dispatches them under the
// configured policy until all complete, and returns the per-job and
// per-tenant accounting. Arrival times earlier than the context's
// current virtual time are clamped to it (a job cannot arrive in the
// past of a composed run). When a dispatch error aborts the run, Run
// returns the error together with a partial Result in which every
// admitted-but-unrun job is flagged Failed.
func (s *Scheduler) Run(jobs []Job) (*Result, error) {
	for i := range jobs {
		if err := s.validate(&jobs[i]); err != nil {
			return nil, err
		}
		if jobs[i].Arrival < 0 {
			return nil, fmt.Errorf("sched: job %d has negative arrival %v", jobs[i].ID, jobs[i].Arrival)
		}
	}
	s.Reset()
	s.results = make([]JobOutcome, len(jobs))
	s.runJobs = jobs
	defer func() { s.results, s.runJobs = nil, nil }()

	eng := s.ctx.Engine()
	runStart := eng.Now()
	feed := eng.Feed((*runArrivals)(s))
	for i := range jobs {
		feed.Add(max(jobs[i].Arrival, runStart), i)
	}
	feed.Start()
	eng.Run()
	if s.runErr != nil {
		// The partial result surfaces every admitted job — the ones the
		// aborted dispatch loop never ran are flagged Failed — so the
		// caller can account for the whole submission, not just the
		// jobs that happened to finish before the error.
		return s.summarize(runStart), s.runErr
	}
	if s.done != len(jobs) {
		return nil, fmt.Errorf("sched: internal error: %d of %d jobs completed", s.done, len(jobs))
	}
	return s.summarize(runStart), nil
}

// runArrivals is the target of Run's arrival feed: arrival i admits
// the Run slice's job i under key i.
type runArrivals Scheduler

func (r *runArrivals) Arrive(i int) {
	s := (*Scheduler)(r)
	s.admit(&s.runJobs[i], i)
}

// admit enqueues one arriving job under key and runs the dispatch
// loop. Arrivals after a dispatch error end at once as failed outcomes
// — dropping them silently would understate the submission.
func (s *Scheduler) admit(job *Job, key int) {
	est := job.Est
	if est <= 0 {
		est = s.Estimate(job.Tasks)
	}
	o := JobOutcome{
		Index:    key,
		ID:       job.ID,
		Tenant:   tenantOf(job),
		Arrival:  s.ctx.Now(),
		Est:      est,
		Stream:   -1,
		Deadline: job.Deadline,
	}
	if s.runErr != nil {
		o.Failed = true
		if s.tel.Enabled() {
			s.tel.Emit(telemetry.Event{At: s.ctx.Now(), Kind: telemetry.Fail, Job: key, ID: job.ID,
				Tenant: tenantOf(job), Device: s.telDev, From: -1, Stream: -1})
		}
		s.end(o)
		return
	}
	// An embedded scheduler's admission instant is the cluster's
	// commitment, which the cluster logs itself as a Place event.
	if s.tel.Enabled() && s.telDev < 0 {
		s.tel.Emit(telemetry.Event{At: s.ctx.Now(), Kind: telemetry.Admit, Job: key, ID: job.ID,
			Tenant: tenantOf(job), Device: -1, From: -1, Stream: -1, Dur: est, Deadline: job.Deadline})
	}
	p := s.newPending()
	*p = Pending{Est: est, Seq: s.seq, out: o, job: *job}
	p.Job = &p.job
	s.pending = append(s.pending, p)
	s.seq++
	s.dispatch()
}

// fail records the first dispatch error and ends every queued job as a
// failed outcome: the run cannot dispatch them anymore, and leaving
// them silently pending would drop them from Run's Result and never
// fire onDone — the embedding layer would wait forever.
func (s *Scheduler) fail(err error) {
	if s.runErr != nil {
		return
	}
	s.runErr = err
	stranded := s.pending
	s.pending = nil
	for _, p := range stranded {
		p.out.Failed = true
		if s.tel.Enabled() {
			s.tel.Emit(telemetry.Event{At: s.ctx.Now(), Kind: telemetry.Fail, Job: p.out.Index, ID: p.Job.ID,
				Tenant: tenantOf(p.Job), Device: s.telDev, From: -1, Stream: -1})
		}
		o := p.out
		s.release(p)
		s.end(o)
	}
}

// dispatch drains the admission queue onto idle streams. It runs until
// either the queue or the idle set is empty — the work-conservation
// invariant.
func (s *Scheduler) dispatch() {
	for len(s.pending) > 0 && s.runErr == nil {
		idle := s.idleStreams()
		if len(idle) == 0 {
			return
		}
		pi, stream := s.policy.Pick(s.pending, idle, s.refreshView())
		if pi < 0 || pi >= len(s.pending) {
			s.fail(fmt.Errorf("sched: policy %s picked job index %d out of range [0,%d)", s.policy.Name(), pi, len(s.pending)))
			return
		}
		if stream < 0 || stream >= len(s.busy) || s.busy[stream] {
			s.fail(fmt.Errorf("sched: policy %s picked stream %d which is not idle", s.policy.Name(), stream))
			return
		}
		p := s.pending[pi]
		s.unqueue(pi)
		s.start(p, stream)
	}
}

// refreshView rebuilds the policy's View from the scheduler's state.
// Policy is an exported interface, so the View's slices are copies in
// scheduler-owned scratch, re-pointed on every refresh: a policy that
// overwrites or replaces them corrupts nothing the scheduler reads.
func (s *Scheduler) refreshView() *View {
	copy(s.viewLoad, s.load)
	copy(s.viewPart, s.streamPart)
	copy(s.viewTen, s.streamTenant)
	s.view = View{
		Now:             s.ctx.Now(),
		StreamLoad:      s.viewLoad,
		StreamPartition: s.viewPart,
		StreamTenant:    s.viewTen,
		Partitions:      s.nparts,
	}
	return &s.view
}

// start pins the job's next slice to the chosen stream, enqueues it,
// and registers the stream's grant callback on the slice's final event;
// its completion frees the stream and re-enters the dispatch loop.
// Without WithSlicing the slice is the whole task list and this is
// exactly the pre-slicing dispatch; with it, a non-final slice's
// completion re-queues the remainder behind the policy instead of
// completing the job.
func (s *Scheduler) start(p *Pending, stream int) {
	global := s.streams[stream]
	all := p.Job.Tasks
	end := len(all)
	if s.sliceMax > 0 && p.Next+s.sliceMax < end {
		end = p.Next + s.sliceMax
	}
	chunk := all[p.Next:end]
	// A partial slice is accounted at its own estimate; the final (or
	// only) slice carries whatever remains of the job's estimate, so
	// the whole-job path is bit-identical to the pre-slicing scheduler.
	est, price := p.Est, sim.Duration(0)
	if end < len(all) {
		price = s.price(chunk)
		est = max(price, 1)
	}
	first := p.Next == 0
	s.busy[stream] = true
	s.streamTenant[stream] = tenantOf(p.Job)
	s.load[stream] += est
	s.freeAt[stream] = s.ctx.Now().Add(est)
	o := &p.out
	o.Stream = global
	if first {
		o.Start = s.ctx.Now()
	}
	o.Slices++
	if s.tel.Enabled() {
		kind := telemetry.Dispatch
		if !first {
			kind = telemetry.Slice
		}
		s.tel.Emit(telemetry.Event{At: s.ctx.Now(), Kind: kind, Job: o.Index, ID: p.Job.ID,
			Tenant: tenantOf(p.Job), Device: s.telDev, From: -1, Stream: global, Dur: est})
	}

	g := &s.grants[stream]
	if err := s.enqueue(&g.phase, chunk, global, p.Next > 0); err != nil {
		// The job claimed its stream but will never complete there;
		// mark it failed before stranding the queue behind it.
		o.Failed = true
		if s.tel.Enabled() {
			s.tel.Emit(telemetry.Event{At: s.ctx.Now(), Kind: telemetry.Fail, Job: o.Index, ID: p.Job.ID,
				Tenant: tenantOf(p.Job), Device: s.telDev, From: -1, Stream: global})
		}
		s.fail(fmt.Errorf("sched: job %d: %w", p.Job.ID, err))
		out := *o
		s.release(p)
		s.end(out)
		return
	}
	// Every action of the slice sits on one FIFO stream, so the last
	// task's final event is the last to resolve.
	g.p, g.end, g.price, g.granted = p, end, price, s.ctx.Now()
	g.phase.Events().Done(chunk[len(chunk)-1].ID).OnDone(g.done)
}

// enqueue enqueues chunk as one phase on ph with every task pinned to
// the given stream, each through a copy that the phase does not keep.
// Dependencies on earlier slices (sliced true) are satisfied temporally
// — slices of one job serialize — and are stripped from the copies,
// since a phase must not see references to tasks outside it.
func (s *Scheduler) enqueue(ph *core.Phase, chunk []*core.Task, stream int, sliced bool) error {
	// Reset recycles the stream's previous slice, which has resolved:
	// its actions all sit on this one FIFO stream, and the stream was
	// granted again only after the slice's final event. Under
	// grantDone, that event may still be running its waiters; g.done
	// is its last use, so the refill may reuse it.
	ph.Reset(s.ctx, len(chunk))
	if sliced {
		if s.inChunk == nil {
			s.inChunk = make(map[int]bool, len(chunk))
		}
		clear(s.inChunk)
		for _, t := range chunk {
			s.inChunk[t.ID] = true
		}
	}
	for _, t := range chunk {
		c := *t
		c.StreamHint = stream
		if sliced && len(c.DependsOn) > 0 {
			deps := s.depBuf[:0]
			for _, d := range c.DependsOn {
				if s.inChunk[d] {
					deps = append(deps, d)
				}
			}
			s.depBuf = deps
			c.DependsOn = deps
		}
		if err := ph.Add(&c); err != nil {
			return err
		}
	}
	return nil
}

// grantDone handles the completion of the slice granted on stream: at
// a slice boundary it frees the stream and re-queues the job's
// remainder, at the job's final slice it completes the job; either way
// it re-enters the dispatch loop.
func (s *Scheduler) grantDone(stream int) {
	g := &s.grants[stream]
	p := g.p
	g.p = nil
	global := s.streams[stream]
	all := p.Job.Tasks
	if g.end < len(all) {
		// Slice boundary: free the stream, re-estimate the remainder
		// (remaining tasks only — completed slices must not inflate
		// PendingBacklog) and re-queue it in admission order, then let
		// the policy re-plan. The first boundary prices the remainder;
		// later ones subtract the slice just run from it, exactly, since
		// every price term is an integer duration. The job's outcome
		// completes only at its final slice. The Requeue event closes the
		// grant opened by Dispatch/Slice, carrying the slice's realized
		// span, so the timeline folder can reconstruct per-slice
		// execution exactly.
		s.busy[stream] = false
		s.streamTenant[stream] = ""
		if p.Next == 0 {
			p.rem = s.price(all[g.end:])
		} else {
			p.rem -= g.price
		}
		p.Next = g.end
		p.Est = max(p.rem, 1)
		if s.tel.Enabled() {
			s.tel.Emit(telemetry.Event{At: s.ctx.Now(), Kind: telemetry.Requeue, Job: p.out.Index, ID: p.Job.ID,
				Tenant: tenantOf(p.Job), Device: s.telDev, From: -1, Stream: global,
				Dur: s.ctx.Now().Sub(g.granted)})
		}
		if s.runErr != nil {
			// After a dispatch error nothing dispatches the remainder
			// again: end it as failed, as fail ends a stranded job.
			p.out.Failed = true
			if s.tel.Enabled() {
				s.tel.Emit(telemetry.Event{At: s.ctx.Now(), Kind: telemetry.Fail, Job: p.out.Index, ID: p.Job.ID,
					Tenant: tenantOf(p.Job), Device: s.telDev, From: -1, Stream: -1})
			}
			o := p.out
			s.release(p)
			s.end(o)
			return
		}
		s.requeue(p)
		s.dispatch()
		return
	}
	o := &p.out
	o.Done = s.ctx.Now()
	if o.Deadline > 0 && o.Latency() > o.Deadline {
		o.Missed = true
	}
	s.done++
	s.busy[stream] = false
	s.streamTenant[stream] = ""
	if s.tel.Enabled() {
		s.tel.Emit(telemetry.Event{At: s.ctx.Now(), Kind: telemetry.Complete, Job: o.Index, ID: p.Job.ID,
			Tenant: tenantOf(p.Job), Device: s.telDev, From: -1, Stream: global,
			Dur: o.Done.Sub(o.Start)})
	}
	out := *o
	s.release(p)
	s.dispatch()
	s.end(out)
}

// requeue inserts a re-queued remainder back into the admission queue
// at its sequence position, preserving the "pending is in admission
// order" contract policies rely on.
func (s *Scheduler) requeue(p *Pending) {
	at := len(s.pending)
	for i, q := range s.pending {
		if p.Seq < q.Seq {
			at = i
			break
		}
	}
	s.pending = append(s.pending, nil)
	copy(s.pending[at+1:], s.pending[at:])
	s.pending[at] = p
}

// idleStreams lists streams with no job in flight, ascending, in
// scheduler-owned scratch valid until the next call.
func (s *Scheduler) idleStreams() []int {
	idle := s.idle[:0]
	for i, b := range s.busy {
		if !b {
			idle = append(idle, i)
		}
	}
	s.idle = idle
	return idle
}

// Estimate derives a service-time estimate for a task list: per task,
// the kernel's duration on the first owned stream's partition plus the
// PCIe time of its declared transfers. It ignores queueing and overlap
// — it is a ranking signal for cost-aware policies and the cluster's
// placement scores, not a prediction.
func (s *Scheduler) Estimate(tasks []*core.Task) sim.Duration {
	return max(s.price(tasks), 1)
}

// price sums Estimate's per-task terms without clamping the total.
func (s *Scheduler) price(tasks []*core.Task) sim.Duration {
	st := s.ctx.Stream(s.streams[0])
	part := st.Partition()
	// The link's own copy of its configuration, not Context.Config's
	// copy of the whole platform's: Estimate runs at every slice.
	link := s.ctx.Link(st.DeviceIndex()).Config()
	var total sim.Duration
	for _, t := range tasks {
		if !t.TransferOnly {
			total += part.Price(&t.Cost).Dur
		}
		for _, specs := range [][]core.TransferSpec{t.H2D, t.D2H} {
			for _, x := range specs {
				if x.Buf == nil || x.Buf.Len() == 0 {
					continue
				}
				bytes := float64(x.N) * float64(x.Buf.Bytes()) / float64(x.Buf.Len())
				total += sim.Duration(link.LatencyNs) + sim.DurationOf(bytes/link.BandwidthBps)
			}
		}
	}
	return total
}

// JobOutcome records one job's lifecycle: complete when the job ends
// (SetOnDone's argument, Run's Result.Jobs), its progress so far when
// Withdraw returns it.
type JobOutcome struct {
	// Index is the job's key: its position in the Run slice, or the key
	// an embedding layer gave Submit.
	Index int
	// ID and Tenant echo the job's labels.
	ID     int
	Tenant string
	// Stream is where the job ran (a context-wide stream id, even
	// when the scheduler owns a WithStreams subset).
	Stream int
	// Arrival, Start and Done are the job's lifecycle instants:
	// admission, dispatch, and completion of its last action.
	Arrival, Start, Done sim.Time
	// Est is the service estimate the policies saw.
	Est sim.Duration
	// Deadline echoes the job's relative latency budget (0: none);
	// Missed reports the completed job overran it (Latency > Deadline).
	Deadline sim.Duration
	Missed   bool
	// Slices counts the stream grants the job took: 1 for a
	// whole-job dispatch, more under WithSlicing. Zero means the job
	// never reached a stream.
	Slices int
	// Failed marks a job the run admitted but could never finish
	// because a dispatch error aborted scheduling; its Start/Done
	// fields are meaningless. Failed jobs appear in Result.Jobs so no
	// admission is silently dropped.
	Failed bool
}

// Wait is the queueing delay (dispatch minus arrival).
func (o JobOutcome) Wait() sim.Duration { return o.Start.Sub(o.Arrival) }

// Latency is the response time (completion minus arrival).
func (o JobOutcome) Latency() sim.Duration { return o.Done.Sub(o.Arrival) }

// Service is the occupancy (completion minus dispatch).
func (o JobOutcome) Service() sim.Duration { return o.Done.Sub(o.Start) }

// Slowdown is latency over service: 1 means the job never queued.
func (o JobOutcome) Slowdown() float64 { return slowdown(o.Latency(), o.Service()) }

// slowdown is latency over service, 1 for a job with no service time.
func slowdown(latency, service sim.Duration) float64 {
	sv := service.Seconds()
	if sv <= 0 {
		return 1
	}
	return latency.Seconds() / sv
}

// TenantStats aggregates the jobs of one tenant.
type TenantStats struct {
	// Tenant is the tenant label.
	Tenant string
	// Jobs is the completed-job count.
	Jobs int
	// Throughput is completed jobs per second of the run's makespan.
	Throughput float64
	// MeanLatency and the percentiles summarize response times.
	MeanLatency, P50, P95, P99 sim.Duration
	// Misses counts completed jobs that overran their declared
	// deadline (always 0 when no job of the tenant carries one).
	Misses int
	// MeanSlowdown is the mean latency/service ratio: the tenant's
	// service-quality degradation under contention.
	MeanSlowdown float64
}

// Result summarizes one Run.
type Result struct {
	// Policy names the policy that produced the schedule.
	Policy string
	// Jobs lists every outcome in submission order.
	Jobs []JobOutcome
	// Tenants lists per-tenant aggregates sorted by tenant label.
	Tenants []TenantStats
	// Makespan is the span from the run's start to the last
	// completion.
	Makespan sim.Duration
	// Failed counts jobs the run admitted but never ran because a
	// dispatch error aborted scheduling (Run also returns the error).
	Failed int
	// JainSlowdown is Jain's fairness index over per-tenant mean
	// slowdowns: 1 when every tenant suffers equal queueing
	// degradation.
	JainSlowdown float64
	// JainThroughput is Jain's index over per-tenant throughputs.
	// In this run-to-completion model every submitted job finishes
	// and every tenant shares the makespan denominator, so this
	// reduces to the Jain index of the *offered* per-tenant job
	// counts — it quantifies how imbalanced the load was, not how
	// fairly the policy scheduled it (that is JainSlowdown).
	JainThroughput float64
}

// Tenant returns the aggregate for one tenant, or nil.
func (r *Result) Tenant(name string) *TenantStats {
	for i := range r.Tenants {
		if r.Tenants[i].Tenant == name {
			return &r.Tenants[i]
		}
	}
	return nil
}

// AggregateTenants computes per-tenant aggregates over completed
// outcomes, sorted by tenant label; makespan is the run span the
// throughput denominators use. Failed outcomes are excluded — they
// have no lifecycle to aggregate.
func AggregateTenants(outcomes []JobOutcome, makespan sim.Duration) []TenantStats {
	var t TenantTally
	for i := range outcomes {
		if o := &outcomes[i]; !o.Failed {
			t.Add(o.Tenant, o.Latency(), o.Service(), o.Missed)
		}
	}
	return t.Stats(makespan)
}

// TenantTally folds completed jobs into per-tenant aggregates in the
// order they are added, keeping each tenant's latencies, slowdown sum
// and deadline misses rather than the outcomes. The cluster layer uses
// it to account jobs that ran on several per-device schedulers. The
// zero value is empty.
type TenantTally struct {
	index   map[string]int
	tenants []tenantTally
}

type tenantTally struct {
	name   string
	lats   []float64
	slow   float64
	misses int
}

// Add folds one completed job of the tenant.
func (t *TenantTally) Add(tenant string, latency, service sim.Duration, missed bool) {
	i, ok := t.index[tenant]
	if !ok {
		if t.index == nil {
			t.index = make(map[string]int)
		}
		i = len(t.tenants)
		t.index[tenant] = i
		t.tenants = append(t.tenants, tenantTally{name: tenant})
	}
	a := &t.tenants[i]
	a.lats = append(a.lats, float64(latency))
	a.slow += slowdown(latency, service)
	if missed {
		a.misses++
	}
}

// Clone returns an independent copy: Adds to and Stats of either leave
// the other as it was. A tally that keeps folding after a report gives
// its Stats through a clone, since Stats sorts in place.
func (t *TenantTally) Clone() TenantTally {
	if len(t.tenants) == 0 {
		return TenantTally{}
	}
	c := TenantTally{index: maps.Clone(t.index), tenants: slices.Clone(t.tenants)}
	for i := range c.tenants {
		c.tenants[i].lats = slices.Clone(c.tenants[i].lats)
	}
	return c
}

// Stats returns the aggregates, sorted by tenant label; makespan is
// the run span the throughput denominators use. Each mean sums in the
// order the jobs were added; the percentiles then sort the tenant's
// latencies in place, so a tally gives its Stats once.
func (t *TenantTally) Stats(makespan sim.Duration) []TenantStats {
	slices.SortFunc(t.tenants, func(a, b tenantTally) int { return cmp.Compare(a.name, b.name) })
	span := makespan.Seconds()
	out := make([]TenantStats, 0, len(t.tenants))
	for i := range t.tenants {
		a := &t.tenants[i]
		n := len(a.lats)
		mean := stats.Mean(a.lats)
		slices.Sort(a.lats)
		p50, p95, p99 := stats.SortedPercentiles(a.lats)
		ts := TenantStats{
			Tenant:       a.name,
			Jobs:         n,
			MeanLatency:  sim.Duration(mean),
			P50:          sim.Duration(p50),
			P95:          sim.Duration(p95),
			P99:          sim.Duration(p99),
			Misses:       a.misses,
			MeanSlowdown: a.slow / float64(n),
		}
		if span > 0 {
			ts.Throughput = float64(n) / span
		}
		out = append(out, ts)
	}
	return out
}

// summarize assembles the Result from Run's collected outcomes.
func (s *Scheduler) summarize(runStart sim.Time) *Result {
	outcomes := s.results
	r := &Result{Policy: s.policy.Name(), Jobs: outcomes}
	end := runStart
	for _, o := range outcomes {
		if o.Failed {
			r.Failed++
			continue
		}
		if o.Done > end {
			end = o.Done
		}
	}
	r.Makespan = end.Sub(runStart)
	r.Tenants = AggregateTenants(outcomes, r.Makespan)

	var slowdowns, throughputs []float64
	for _, ts := range r.Tenants {
		slowdowns = append(slowdowns, ts.MeanSlowdown)
		throughputs = append(throughputs, ts.Throughput)
	}
	r.JainSlowdown = stats.JainIndex(slowdowns)
	r.JainThroughput = stats.JainIndex(throughputs)
	return r
}

// tenantOf returns the job's tenant label, defaulting empty to
// "default".
func tenantOf(j *Job) string {
	if j.Tenant == "" {
		return "default"
	}
	return j.Tenant
}
