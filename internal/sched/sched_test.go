package sched

import (
	"reflect"
	"testing"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/sim"
)

// newCtx builds a timing-only platform with the given partition count
// (one stream per partition).
func newCtx(t *testing.T, partitions int) *hstreams.Context {
	t.Helper()
	ctx, err := hstreams.Init(hstreams.Config{Partitions: partitions, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// pendingViews lists the admission queue's PendingAt views in order.
func pendingViews(s *Scheduler) []PendingView {
	out := make([]PendingView, s.QueueDepth())
	for i := range out {
		out[i] = s.PendingAt(i)
	}
	return out
}

// syntheticJob builds a one-task compute job with the given flops.
func syntheticJob(id int, tenant string, arrival sim.Time, flops float64) Job {
	return Job{
		ID:      id,
		Tenant:  tenant,
		Arrival: arrival,
		Tasks: []*core.Task{{
			ID:         0,
			Cost:       device.KernelCost{Name: "synthetic", Flops: flops},
			StreamHint: -1,
		}},
	}
}

func TestSchedulerBasics(t *testing.T) {
	ctx := newCtx(t, 4)
	s, err := New(ctx, WithPolicy(FIFO()))
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, syntheticJob(i, string(rune('A'+i%3)), sim.Time(i)*sim.Time(sim.Millisecond)/4, 5e8))
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Jobs) != len(jobs) {
		t.Fatalf("got %d outcomes, want %d", len(r.Jobs), len(jobs))
	}
	for _, o := range r.Jobs {
		if o.Stream < 0 || o.Stream >= ctx.NumStreams() {
			t.Errorf("job %d ran on invalid stream %d", o.ID, o.Stream)
		}
		if o.Start < o.Arrival {
			t.Errorf("job %d started %v before its arrival %v", o.ID, o.Start, o.Arrival)
		}
		if o.Done <= o.Start {
			t.Errorf("job %d completed %v not after its start %v", o.ID, o.Done, o.Start)
		}
		if o.Slowdown() < 1 {
			t.Errorf("job %d slowdown %v < 1", o.ID, o.Slowdown())
		}
	}
	if len(r.Tenants) != 3 {
		t.Fatalf("got %d tenants, want 3", len(r.Tenants))
	}
	total := 0
	for _, ts := range r.Tenants {
		total += ts.Jobs
		if ts.P50 > ts.P95 || ts.P95 > ts.P99 {
			t.Errorf("tenant %s percentiles not ordered: %v %v %v", ts.Tenant, ts.P50, ts.P95, ts.P99)
		}
		if ts.Throughput <= 0 {
			t.Errorf("tenant %s throughput %v not positive", ts.Tenant, ts.Throughput)
		}
	}
	if total != len(jobs) {
		t.Errorf("tenant job counts sum to %d, want %d", total, len(jobs))
	}
	if r.Makespan <= 0 {
		t.Error("makespan should be positive")
	}
	if r.JainSlowdown <= 0 || r.JainSlowdown > 1+1e-12 {
		t.Errorf("Jain slowdown index %v out of (0,1]", r.JainSlowdown)
	}
	if r.Tenant("A") == nil || r.Tenant("nope") != nil {
		t.Error("Tenant lookup misbehaves")
	}
}

func TestSJFOrdersShortFirst(t *testing.T) {
	ctx := newCtx(t, 1)
	s, err := New(ctx, WithPolicy(SJF()))
	if err != nil {
		t.Fatal(err)
	}
	// A blocker occupies the single stream; a long and a short job
	// arrive while it runs. SJF must run the short one first even
	// though the long one arrived earlier.
	jobs := []Job{
		syntheticJob(0, "blocker", 0, 1e9),
		syntheticJob(1, "long", sim.Time(sim.Microsecond), 8e8),
		syntheticJob(2, "short", 2*sim.Time(sim.Microsecond), 1e8),
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !(r.Jobs[2].Start < r.Jobs[1].Start) {
		t.Fatalf("SJF should start the short job (at %v) before the long one (at %v)",
			r.Jobs[2].Start, r.Jobs[1].Start)
	}
	// FIFO on the same workload must preserve arrival order.
	ctx2 := newCtx(t, 1)
	s2, _ := New(ctx2, WithPolicy(FIFO()))
	r2, err := s2.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !(r2.Jobs[1].Start < r2.Jobs[2].Start) {
		t.Fatal("FIFO should preserve arrival order")
	}
}

func TestRoundRobinRotatesPlacement(t *testing.T) {
	ctx := newCtx(t, 4)
	s, err := New(ctx, WithPolicy(RoundRobin()))
	if err != nil {
		t.Fatal(err)
	}
	// Jobs spaced far apart: every dispatch sees all four streams
	// idle, so placement is purely the cursor's choice.
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, syntheticJob(i, "t", sim.Time(i)*sim.Time(100*sim.Millisecond), 1e8))
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range r.Jobs {
		if o.Stream != i%4 {
			t.Errorf("job %d placed on stream %d, want %d", i, o.Stream, i%4)
		}
	}
}

func TestFIFOPacksLowestStream(t *testing.T) {
	ctx := newCtx(t, 4)
	s, _ := New(ctx, WithPolicy(FIFO()))
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, syntheticJob(i, "t", sim.Time(i)*sim.Time(100*sim.Millisecond), 1e8))
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range r.Jobs {
		if o.Stream != 0 {
			t.Errorf("job %d placed on stream %d; FIFO packs idle stream 0", i, o.Stream)
		}
	}
}

func TestSequentialRunsCompose(t *testing.T) {
	ctx := newCtx(t, 2)
	s, _ := New(ctx, WithPolicy(FIFO()))
	r1, err := s.Run([]Job{syntheticJob(0, "a", 0, 1e8)})
	if err != nil {
		t.Fatal(err)
	}
	// Second run: arrivals before ctx.Now() clamp to it.
	r2, err := s.Run([]Job{syntheticJob(1, "a", 0, 1e8)})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Jobs[0].Arrival < r1.Jobs[0].Done {
		t.Fatalf("second run admitted at %v, before first run finished at %v",
			r2.Jobs[0].Arrival, r1.Jobs[0].Done)
	}
}

func TestSchedulerErrors(t *testing.T) {
	ctx := newCtx(t, 1)
	if _, err := New(nil); err == nil {
		t.Error("nil context should error")
	}
	if _, err := New(ctx, WithPolicy(nil)); err == nil {
		t.Error("nil policy should error")
	}
	s, _ := New(ctx)
	if _, err := s.Run([]Job{{ID: 0, Tenant: "x"}}); err == nil {
		t.Error("job without tasks should error")
	}
	if _, err := s.Run([]Job{syntheticJob(0, "x", -5, 1e6)}); err == nil {
		t.Error("negative arrival should error")
	}
	if _, err := ByName("lifo"); err == nil {
		t.Error("unknown policy name should error")
	}
	for _, name := range Policies() {
		p, err := ByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
	}
}

func TestBuildScenario(t *testing.T) {
	ctx := newCtx(t, 4)
	jobs, err := BuildScenario(ctx, ScenarioConfig{Pattern: "severe", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 5+10+40+80 {
		t.Fatalf("severe scenario has %d jobs, want 135", len(jobs))
	}
	counts := map[string]int{}
	for _, j := range jobs {
		counts[j.Tenant]++
		if len(j.Tasks) != 2 {
			t.Fatalf("job %d has %d tasks, want default 2", j.ID, len(j.Tasks))
		}
		if j.Arrival < 0 {
			t.Fatalf("job %d has negative arrival", j.ID)
		}
	}
	want := map[string]int{"A": 5, "B": 10, "C": 40, "D": 80}
	for tenant, n := range want {
		if counts[tenant] != n {
			t.Errorf("tenant %s has %d jobs, want %d", tenant, counts[tenant], n)
		}
	}
	if _, err := BuildScenario(ctx, ScenarioConfig{Pattern: "catastrophic"}); err == nil {
		t.Error("unknown pattern should error")
	}
	if _, err := BuildScenario(ctx, ScenarioConfig{Arrival: "uniform"}); err == nil {
		t.Error("unknown arrival process should error")
	}
}

func TestScenarioEndToEnd(t *testing.T) {
	for _, arrival := range []string{"poisson", "bursty", "heavytail"} {
		ctx := newCtx(t, 4)
		jobs, err := BuildScenario(ctx, ScenarioConfig{Pattern: "moderate", Arrival: arrival, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		s, _ := New(ctx, WithPolicy(SJF()))
		r, err := s.Run(jobs)
		if err != nil {
			t.Fatalf("%s: %v", arrival, err)
		}
		if len(r.Jobs) != len(jobs) || r.Makespan <= 0 {
			t.Fatalf("%s: incomplete run", arrival)
		}
	}
}

func TestRoundRobinResetsBetweenRuns(t *testing.T) {
	// Sequential runs on one scheduler must place like fresh runs:
	// the RR cursor is per-run state.
	batch := func() []Job {
		return []Job{
			syntheticJob(0, "t", 0, 1e8),
			syntheticJob(1, "t", sim.Time(100*sim.Millisecond), 1e8),
			syntheticJob(2, "t", sim.Time(200*sim.Millisecond), 1e8),
		}
	}
	ctx := newCtx(t, 4)
	s, _ := New(ctx, WithPolicy(RoundRobin()))
	r1, err := s.Run(batch())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(batch())
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Jobs {
		if r1.Jobs[i].Stream != r2.Jobs[i].Stream {
			t.Fatalf("job %d placed on stream %d in run 1 but %d in run 2; RR cursor not reset",
				i, r1.Jobs[i].Stream, r2.Jobs[i].Stream)
		}
	}
}

func TestScenarioRejectsNegativeSizes(t *testing.T) {
	ctx := newCtx(t, 2)
	if _, err := BuildScenario(ctx, ScenarioConfig{KernelFlops: -2e8}); err == nil {
		t.Error("negative KernelFlops should error")
	}
	if _, err := BuildScenario(ctx, ScenarioConfig{XferBytes: -1}); err == nil {
		t.Error("negative XferBytes should error")
	}
}

func TestRoundRobinRotatesOverPartitions(t *testing.T) {
	// 2 partitions × 2 streams: streams 0,1 share partition 0 and
	// streams 2,3 share partition 1. RR must alternate partitions —
	// 0,2,1,3 — not walk stream ids 0,1,2,3, which would co-schedule
	// consecutive jobs on a shared place while the other place idles.
	ctx, err := hstreams.Init(hstreams.Config{Partitions: 2, StreamsPerPartition: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(ctx, WithPolicy(RoundRobin()))
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, syntheticJob(i, "t", sim.Time(i)*sim.Time(100*sim.Millisecond), 1e8))
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Which stream of a partition's pair is irrelevant (they contend
	// for the same place); the property is that consecutive jobs land
	// on alternating partitions.
	for i, o := range r.Jobs {
		part := o.Stream / 2
		if part != i%2 {
			t.Errorf("job %d placed on stream %d (partition %d), want partition %d",
				i, o.Stream, part, i%2)
		}
	}
}

func TestScenarioOnFunctionalContext(t *testing.T) {
	// A functional context moves real data; scenario buffers must
	// have real backing instead of panicking on the first transfer.
	ctx, err := hstreams.Init(hstreams.Config{Partitions: 2, ExecuteKernels: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := BuildScenario(ctx, ScenarioConfig{Pattern: "balanced", Seed: 2, JobScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	// JobScale 0 defaults to 1 → 80 jobs; trim for speed.
	jobs = jobs[:8]
	s, _ := New(ctx)
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Jobs) != 8 {
		t.Fatalf("completed %d jobs, want 8", len(r.Jobs))
	}
}

func TestRunRejectsNilTask(t *testing.T) {
	ctx := newCtx(t, 1)
	s, _ := New(ctx)
	if _, err := s.Run([]Job{{ID: 3, Tenant: "x", Tasks: []*core.Task{nil}}}); err == nil {
		t.Error("nil task should error, not panic in the event loop")
	}
}

func TestPolicyCannotCorruptView(t *testing.T) {
	ctx := newCtx(t, 4)
	s, _ := New(ctx, WithPolicy(vandalPolicy{}))
	jobs := []Job{
		syntheticJob(0, "t", 0, 1e8),
		syntheticJob(1, "t", sim.Time(100*sim.Millisecond), 1e8),
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range r.Jobs {
		if o.Stream != 0 {
			t.Errorf("job %d on stream %d; mutating the View must not corrupt scheduler state", i, o.Stream)
		}
	}
}

func TestWithStreamsSubset(t *testing.T) {
	// 2 devices × 2 partitions: streams 0,1 belong to device 0 and
	// streams 2,3 to device 1. A scheduler owning device 1's streams
	// must place only there, report global stream ids, and expose a
	// 2-partition view to its policy.
	ctx, err := hstreams.Init(hstreams.Config{Devices: 2, Partitions: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ctx, WithStreams(2, 3), WithPolicy(RoundRobin()))
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, syntheticJob(i, "t", sim.Time(i)*sim.Time(100*sim.Millisecond), 1e8))
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range r.Jobs {
		if o.Stream != 2+i%2 {
			t.Errorf("job %d placed on stream %d, want %d", i, o.Stream, 2+i%2)
		}
	}
	if got := s.Streams(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Streams() = %v, want [2 3]", got)
	}

	if _, err := New(ctx, WithStreams()); err == nil {
		t.Error("empty stream set should error")
	}
	if _, err := New(ctx, WithStreams(0, 0)); err == nil {
		t.Error("duplicate stream id should error")
	}
	if _, err := New(ctx, WithStreams(9)); err == nil {
		t.Error("out-of-range stream id should error")
	}
}

func TestSubmitOnline(t *testing.T) {
	// The embedded mode: Reset + Submit at engine instants must match
	// the batch Run on the same arrivals.
	build := func() []Job {
		return []Job{
			syntheticJob(0, "a", 0, 5e8),
			syntheticJob(1, "b", sim.Time(sim.Millisecond), 2e8),
			syntheticJob(2, "a", 2*sim.Time(sim.Millisecond), 1e8),
		}
	}
	ctx1 := newCtx(t, 2)
	s1, _ := New(ctx1)
	batch, err := s1.Run(build())
	if err != nil {
		t.Fatal(err)
	}

	ctx2 := newCtx(t, 2)
	s2, _ := New(ctx2)
	s2.Reset()
	var completions []JobOutcome
	s2.SetOnDone(func(o JobOutcome) { completions = append(completions, o) })
	jobs := build()
	eng := ctx2.Engine()
	for i := range jobs {
		job, key := &jobs[i], i
		eng.At(job.Arrival, func() {
			if err := s2.Submit(key, job); err != nil {
				t.Errorf("Submit: %v", err)
			}
		})
	}
	eng.Run()
	if err := s2.Err(); err != nil {
		t.Fatal(err)
	}
	// The outcomes reach OnDone in completion order; the key Submit
	// was given puts each back at its job's position.
	online := make([]JobOutcome, len(batch.Jobs))
	seen := make([]bool, len(batch.Jobs))
	for _, o := range completions {
		if o.Index < 0 || o.Index >= len(online) || seen[o.Index] {
			t.Fatalf("OnDone reported key %d out of range or twice", o.Index)
		}
		seen[o.Index] = true
		online[o.Index] = o
	}
	for i := range online {
		if online[i].Start != batch.Jobs[i].Start || online[i].Done != batch.Jobs[i].Done ||
			online[i].Stream != batch.Jobs[i].Stream {
			t.Errorf("job %d: online %+v != batch %+v", i, online[i], batch.Jobs[i])
		}
	}
	if len(completions) != len(jobs) {
		t.Errorf("OnDone fired %d times, want %d", len(completions), len(jobs))
	}
	if s2.QueueDepth() != 0 || s2.InFlight() != 0 {
		t.Errorf("drained scheduler reports queue %d, in-flight %d", s2.QueueDepth(), s2.InFlight())
	}

	if err := s2.Submit(9, &Job{ID: 9}); err == nil {
		t.Error("Submit of a task-less job should error")
	}
}

func TestEarliestFreeEstimates(t *testing.T) {
	ctx := newCtx(t, 1)
	s, _ := New(ctx)
	s.Reset()
	if got, now := s.EarliestFree(), ctx.Now(); got != now {
		t.Fatalf("idle scheduler EarliestFree = %v, want now %v", got, now)
	}
	job := syntheticJob(0, "t", 0, 5e8)
	if err := s.Submit(0, &job); err != nil {
		t.Fatal(err)
	}
	if got := s.EarliestFree(); got <= ctx.Now() {
		t.Fatalf("busy scheduler EarliestFree = %v, want after now %v", got, ctx.Now())
	}
	if s.PendingBacklog() != 0 {
		t.Errorf("no queued jobs but backlog %v", s.PendingBacklog())
	}
	job2 := syntheticJob(1, "t", 0, 5e8)
	if err := s.Submit(1, &job2); err != nil {
		t.Fatal(err)
	}
	if s.PendingBacklog() <= 0 {
		t.Error("queued job should contribute backlog")
	}
	ctx.Drain()
}

// vandalPolicy scribbles over every View slice before picking like
// FIFO; the scheduler must be immune.
type vandalPolicy struct{}

func (vandalPolicy) Name() string { return "vandal" }
func (vandalPolicy) Pick(pending []*Pending, idle []int, v *View) (int, int) {
	for i := range v.StreamPartition {
		v.StreamPartition[i] = -1
	}
	for i := range v.StreamLoad {
		v.StreamLoad[i] = -1
	}
	return 0, idle[0]
}

// saboteurPolicy behaves like FIFO for its first good picks, then
// returns an invalid stream — the mid-run policy failure the error
// path must survive without silently dropping admitted jobs.
type saboteurPolicy struct {
	good  int
	picks int
}

func (p *saboteurPolicy) Name() string { return "saboteur" }

func (p *saboteurPolicy) Pick(pending []*Pending, idle []int, _ *View) (int, int) {
	p.picks++
	if p.picks > p.good {
		return 0, -1
	}
	return 0, idle[0]
}

func TestPolicyErrorSurfacesPendingJobs(t *testing.T) {
	// Regression: a policy error mid-run used to strand every job still
	// in the admission queue — no outcome, no onDone, a nil Result.
	// Jobs arrive far enough apart that the first two complete before
	// the saboteur's third pick aborts the run.
	ctx := newCtx(t, 1)
	s, err := New(ctx, WithPolicy(&saboteurPolicy{good: 2}))
	if err != nil {
		t.Fatal(err)
	}
	var fired []JobOutcome
	s.SetOnDone(func(o JobOutcome) { fired = append(fired, o) })
	gap := sim.Time(20 * sim.Millisecond)
	jobs := []Job{
		syntheticJob(0, "a", 0, 5e8),
		syntheticJob(1, "b", gap, 5e8),
		syntheticJob(2, "a", 2*gap, 5e8),
		syntheticJob(3, "b", 2*gap, 5e8),
		syntheticJob(4, "a", 3*gap, 5e8),
	}
	r, err := s.Run(jobs)
	if err == nil {
		t.Fatal("saboteur policy should abort the run")
	}
	if r == nil {
		t.Fatal("aborted run should still return the partial result")
	}
	if len(r.Jobs) != len(jobs) {
		t.Fatalf("partial result lists %d jobs, want %d", len(r.Jobs), len(jobs))
	}
	ran, failed := 0, 0
	for _, o := range r.Jobs {
		switch {
		case o.Failed:
			failed++
			if o.Done != 0 {
				t.Errorf("failed job %d has completion time %v", o.ID, o.Done)
			}
		default:
			ran++
			if o.Done <= o.Start {
				t.Errorf("completed job %d has no lifecycle", o.ID)
			}
		}
	}
	if ran != 2 || failed != 3 {
		t.Fatalf("got %d completed + %d failed, want 2 + 3", ran, failed)
	}
	if r.Failed != failed {
		t.Errorf("Result.Failed = %d, want %d", r.Failed, failed)
	}
	if len(fired) != len(jobs) {
		t.Errorf("onDone fired %d times, want one per admitted job (%d)", len(fired), len(jobs))
	}
	// Failed jobs must not pollute the per-tenant latency aggregates.
	for _, ts := range r.Tenants {
		if ts.Jobs != 1 {
			t.Errorf("tenant %s aggregates %d jobs, want only the completed one", ts.Tenant, ts.Jobs)
		}
	}
}

func TestWithdrawRemovesPendingJob(t *testing.T) {
	// Embedded mode: one stream, three simultaneous submissions under
	// caller keys — the first dispatches, the other two queue.
	// Withdrawing the middle job must remove exactly it, and an unknown,
	// a dispatched or an already withdrawn key must refuse.
	ctx := newCtx(t, 1)
	s, err := New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	var ended []JobOutcome
	s.SetOnDone(func(o JobOutcome) { ended = append(ended, o) })
	jobs := []Job{
		syntheticJob(0, "a", 0, 5e8),
		syntheticJob(1, "b", 0, 5e8),
		syntheticJob(2, "c", 0, 5e8),
	}
	keys := []int{70, 71, 72}
	for i := range jobs {
		if err := s.Submit(keys[i], &jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := pendingViews(s); len(got) != 2 || got[0].Index != keys[1] || got[1].Index != keys[2] {
		t.Fatalf("queue = %+v, want the two queued jobs in admission order", got)
	}
	if _, _, ok := s.Withdraw(99); ok {
		t.Fatal("withdrawing an unknown key should fail")
	}
	if _, _, ok := s.Withdraw(keys[0]); ok {
		t.Fatal("withdrawing a dispatched job should fail")
	}
	job, out, ok := s.Withdraw(keys[1])
	if !ok || job.ID != 1 {
		t.Fatalf("Withdraw(queued) = %v, %v; want job 1", job, ok)
	}
	if out.Index != keys[1] || out.Slices != 0 || out.Start != 0 || out.Stream != -1 {
		t.Fatalf("withdrawn never-dispatched job reports progress %+v", out)
	}
	if _, _, ok := s.Withdraw(keys[1]); ok {
		t.Fatal("double withdraw should fail")
	}
	if s.QueueDepth() != 1 {
		t.Fatalf("queue depth %d after withdraw, want 1", s.QueueDepth())
	}
	ctx.Drain()
	if len(ended) != 2 || ended[0].Index != keys[0] || ended[1].Index != keys[2] {
		t.Fatalf("ended %+v, want keys %d and %d (one withdrawn)", ended, keys[0], keys[2])
	}
	for _, o := range ended {
		if o.Failed || o.Done == 0 {
			t.Fatalf("job %d did not complete: %+v", o.Index, o)
		}
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
}

// TestWithdrawReportsRemainderProgress withdraws a sliced job between
// its slices: the returned outcome carries the dispatch instant and
// the slice count so far, which is all an embedding layer migrating
// the remainder needs from the scheduler.
func TestWithdrawReportsRemainderProgress(t *testing.T) {
	ctx := newCtx(t, 1)
	// LIFO: the remainder re-queued at a slice boundary waits behind
	// the later job instead of taking the stream straight back.
	lifo := policyFunc(func(pending []*Pending, idle []int, _ *View) (int, int) {
		return len(pending) - 1, idle[0]
	})
	s, err := New(ctx, WithPolicy(lifo), WithSlicing(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	var ended []JobOutcome
	s.SetOnDone(func(o JobOutcome) { ended = append(ended, o) })
	eng := ctx.Engine()
	at := sim.Time(sim.Millisecond)
	eng.StepUntil(at)
	a := multiTaskJob(0, "a", 0, 3, 1e8, false)
	b := multiTaskJob(1, "b", 0, 3, 1e8, false)
	if err := s.Submit(5, &a); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(6, &b); err != nil {
		t.Fatal(err)
	}
	queuedRemainder := func() bool {
		for _, pv := range pendingViews(s) {
			if pv.Index == 5 && pv.Next > 0 {
				return true
			}
		}
		return false
	}
	if !eng.RunUntil(queuedRemainder) {
		t.Fatal("job 5's remainder never waited in the queue")
	}
	_, out, ok := s.Withdraw(5)
	if !ok {
		t.Fatal("withdrawing a queued remainder should succeed")
	}
	if out.Index != 5 || out.Start != at || out.Slices != 1 || out.Failed {
		t.Fatalf("withdrawn remainder reports %+v, want key 5, start %v, 1 slice", out, at)
	}
	eng.Run()
	if len(ended) != 1 || ended[0].Index != 6 || ended[0].Slices != 3 {
		t.Fatalf("ended %+v, want only key 6 after 3 slices", ended)
	}
}

// TestEmbeddedSchedulerKeepsNoRecords drains an embedded scheduler and
// checks it holds nothing of the jobs it ran: no queued or in-flight
// record, no outcome history, and every Pending record released and
// zeroed, so no job's tasks stay reachable from the scheduler.
func TestEmbeddedSchedulerKeepsNoRecords(t *testing.T) {
	ctx := newCtx(t, 2)
	s, err := New(ctx, WithSlicing(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	const n = 6
	ended := 0
	s.SetOnDone(func(JobOutcome) { ended++ })
	for i := 0; i < n; i++ {
		job := multiTaskJob(i, "t", 0, 2, 1e8, true)
		if err := s.Submit(100+i, &job); err != nil {
			t.Fatal(err)
		}
	}
	ctx.Drain()
	if ended != n || s.Err() != nil {
		t.Fatalf("%d of %d jobs ended, err %v", ended, n, s.Err())
	}
	if s.QueueDepth() != 0 || s.InFlight() != 0 || s.results != nil {
		t.Fatalf("drained scheduler holds queue %d, in-flight %d, results %v", s.QueueDepth(), s.InFlight(), s.results)
	}
	for i, g := range s.grants {
		if g.p != nil {
			t.Fatalf("stream %d still holds a grant for key %d", i, g.p.out.Index)
		}
	}
	// All n jobs were live at once (two running, the rest queued), so n
	// records were taken; every one must be back, zeroed, on the spare
	// list.
	if len(s.spare) != n {
		t.Fatalf("%d records released, want %d", len(s.spare), n)
	}
	for _, p := range s.spare {
		if !reflect.DeepEqual(*p, Pending{}) {
			t.Fatalf("released record keeps %+v", *p)
		}
	}
}
