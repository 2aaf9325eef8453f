package sched

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/sim"
)

// multiTaskJob builds an n-task compute job; chained adds a linear
// DependsOn chain (task i waits on task i-1), the dependency-ordered
// shape slicing supports.
func multiTaskJob(id int, tenant string, arrival sim.Time, n int, flopsPerTask float64, chained bool) Job {
	tasks := make([]*core.Task, n)
	for i := range tasks {
		tasks[i] = &core.Task{
			ID:         i,
			Cost:       device.KernelCost{Name: "synthetic", Flops: flopsPerTask},
			StreamHint: -1,
		}
		if chained && i > 0 {
			tasks[i].DependsOn = []int{i - 1}
		}
	}
	return Job{ID: id, Tenant: tenant, Arrival: arrival, Tasks: tasks}
}

func TestSliceable(t *testing.T) {
	ordered := multiTaskJob(0, "t", 0, 4, 1e8, true).Tasks
	if err := Sliceable(ordered); err != nil {
		t.Fatalf("dependency-ordered chain rejected: %v", err)
	}
	forward := []*core.Task{
		{ID: 0, DependsOn: []int{1}, Cost: device.KernelCost{Name: "k", Flops: 1e8}},
		{ID: 1, Cost: device.KernelCost{Name: "k", Flops: 1e8}},
	}
	err := Sliceable(forward)
	if err == nil || !strings.Contains(err.Error(), "dependency-ordered") {
		t.Fatalf("forward dependency accepted: %v", err)
	}
}

// TestSlicingRejectsUnsliceableJobs checks both admission paths gate
// on the dependency-ordering invariant when slicing is on — and only
// then (the whole-job scheduler dispatches any EnqueuePhase-legal
// order).
func TestSlicingRejectsUnsliceableJobs(t *testing.T) {
	mk := func() Job {
		j := multiTaskJob(0, "t", 0, 2, 1e8, false)
		j.Tasks[0].DependsOn = []int{1} // forward reference
		return j
	}
	ctx := newCtx(t, 1)
	s, err := New(ctx, WithSlicing(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run([]Job{mk()}); err == nil || !strings.Contains(err.Error(), "dependency-ordered") {
		t.Fatalf("Run accepted an unsliceable job under WithSlicing: %v", err)
	}
	s.Reset()
	j := mk()
	if err := s.Submit(0, &j); err == nil || !strings.Contains(err.Error(), "dependency-ordered") {
		t.Fatalf("Submit accepted an unsliceable job under WithSlicing: %v", err)
	}
}

// TestSlicingWholeJobEquivalence asserts the compatibility contract:
// a cap at least as large as every task list dispatches whole jobs and
// must reproduce the unsliced scheduler bit for bit — and so must the
// off switch (cap 0).
func TestSlicingWholeJobEquivalence(t *testing.T) {
	build := func() []Job {
		var jobs []Job
		for i := 0; i < 10; i++ {
			jobs = append(jobs, multiTaskJob(i, string(rune('A'+i%3)),
				sim.Time(i)*sim.Time(sim.Millisecond)/3, 1+i%4, 3e8, i%2 == 0))
		}
		return jobs
	}
	run := func(opts ...Option) *Result {
		ctx := newCtx(t, 2)
		s, err := New(ctx, append([]Option{WithPolicy(SJF())}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(build())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain := run()
	if wide := run(WithSlicing(16)); !reflect.DeepEqual(plain, wide) {
		t.Error("cap 16 (≥ every task list) diverges from the unsliced scheduler")
	}
	if off := run(WithSlicing(0)); !reflect.DeepEqual(plain, off) {
		t.Error("cap 0 diverges from the unsliced scheduler")
	}
	for _, o := range plain.Jobs {
		if o.Slices != 1 {
			t.Fatalf("whole-job dispatch of job %d took %d slices, want 1", o.ID, o.Slices)
		}
	}
}

// TestSlicingSliceCounts checks a sliced job takes exactly
// ceil(tasks/cap) stream grants and completes with the same lifecycle
// shape as a whole-job run.
func TestSlicingSliceCounts(t *testing.T) {
	for _, tc := range []struct {
		tasks, cap, want int
	}{
		{7, 2, 4}, {6, 2, 3}, {6, 3, 2}, {1, 2, 1}, {5, 1, 5},
	} {
		ctx := newCtx(t, 1)
		s, err := New(ctx, WithSlicing(tc.cap))
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run([]Job{multiTaskJob(0, "t", 0, tc.tasks, 2e8, true)})
		if err != nil {
			t.Fatal(err)
		}
		o := r.Jobs[0]
		if o.Slices != tc.want {
			t.Errorf("%d tasks / cap %d: %d slices, want %d", tc.tasks, tc.cap, o.Slices, tc.want)
		}
		if o.Done <= o.Start || o.Start != 0 {
			t.Errorf("%d tasks / cap %d: lifecycle %v..%v", tc.tasks, tc.cap, o.Start, o.Done)
		}
	}
}

// TestSlicingLetsShortJobsOvertake is the convoy relief the feature
// exists for: on one stream, a light job arriving during a heavy job's
// first slice finishes before the heavy job under slicing (SJF grabs
// the slice boundary), while the whole-job scheduler strands it for
// the heavy job's full service.
func TestSlicingLetsShortJobsOvertake(t *testing.T) {
	build := func() []Job {
		return []Job{
			multiTaskJob(0, "heavy", 0, 6, 2e9, false),
			multiTaskJob(1, "light", sim.Time(sim.Millisecond), 1, 1e8, false),
		}
	}
	run := func(cap int) *Result {
		ctx := newCtx(t, 1)
		s, err := New(ctx, WithPolicy(SJF()), WithSlicing(cap))
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(build())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	whole, sliced := run(0), run(1)
	wh, wl := whole.Jobs[0], whole.Jobs[1]
	sh, sl := sliced.Jobs[0], sliced.Jobs[1]
	if wl.Start < wh.Done {
		t.Fatalf("whole-job run let the light job start at %v before the heavy job drained at %v", wl.Start, wh.Done)
	}
	if sl.Done >= sh.Done {
		t.Errorf("sliced run still convoys: light done %v, heavy done %v", sl.Done, sh.Done)
	}
	if sl.Wait() >= wl.Wait() {
		t.Errorf("slicing did not shrink the light job's wait: %v vs %v", sl.Wait(), wl.Wait())
	}
	if sh.Slices != 6 {
		t.Errorf("heavy job took %d slices, want 6", sh.Slices)
	}
}

// TestSlicingStripsCrossSliceDeps checks a linear dependency chain cut
// by slice boundaries still runs: dependencies on tasks of completed
// slices are satisfied temporally and must be stripped before
// EnqueuePhase sees the remainder.
func TestSlicingStripsCrossSliceDeps(t *testing.T) {
	ctx := newCtx(t, 2)
	s, err := New(ctx, WithSlicing(2))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run([]Job{
		multiTaskJob(0, "a", 0, 7, 5e8, true),
		multiTaskJob(1, "b", 0, 5, 5e8, true),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range r.Jobs {
		if o.Failed {
			t.Fatalf("job %d failed under sliced chained dependencies", o.ID)
		}
	}
	if r.Jobs[0].Slices != 4 || r.Jobs[1].Slices != 3 {
		t.Errorf("slice counts %d/%d, want 4/3", r.Jobs[0].Slices, r.Jobs[1].Slices)
	}
}

// TestPendingBacklogExcludesConsumedSlices is the regression test for
// the backlog overestimate: before slice-boundary re-estimation, a
// partially-dispatched job's pending remainder still carried the
// whole-job estimate, so PendingBacklog — the victim-selection signal
// work stealing reads — counted work that had already run. The probe
// observes the queue mid-run, at an instant when the heavy job's
// remainder waits behind a light job on the only stream.
func TestPendingBacklogExcludesConsumedSlices(t *testing.T) {
	ctx := newCtx(t, 1)
	s, err := New(ctx, WithPolicy(SJF()), WithSlicing(2))
	if err != nil {
		t.Fatal(err)
	}
	heavy := multiTaskJob(0, "heavy", 0, 6, 2e9, false)
	wholeEst := s.Estimate(heavy.Tasks)
	sliceEst := s.Estimate(heavy.Tasks[:2])
	remainEst := s.Estimate(heavy.Tasks[2:])
	if remainEst >= wholeEst || sliceEst <= 0 {
		t.Fatalf("estimates not ordered: slice %v, remainder %v, whole %v", sliceEst, remainEst, wholeEst)
	}
	// The light job arrives mid-slice-1 and wins the first slice
	// boundary under SJF, parking the remainder in the queue.
	light := multiTaskJob(1, "light", sim.Time(0).Add(sliceEst/2), 1, 1e8, false)
	lightEst := s.Estimate(light.Tasks)

	probed := false
	var gotBacklog sim.Duration
	var gotViews []PendingView
	ctx.Engine().At(sim.Time(0).Add(sliceEst).Add(lightEst/2), func() {
		probed = true
		gotBacklog = s.PendingBacklog()
		gotViews = pendingViews(s)
	})
	if _, err := s.Run([]Job{heavy, light}); err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Fatal("probe event never fired")
	}
	if len(gotViews) != 1 {
		t.Fatalf("probe saw %d pending jobs, want only the heavy remainder: %+v", len(gotViews), gotViews)
	}
	if gotViews[0].Next != 2 {
		t.Errorf("remainder view Next = %d, want 2 (one slice of two tasks consumed)", gotViews[0].Next)
	}
	if gotBacklog != remainEst {
		t.Errorf("PendingBacklog = %v, want the remainder-only estimate %v", gotBacklog, remainEst)
	}
	// The pre-fix failure mode: the whole-job estimate would overstate
	// the backlog by the consumed slice, misranking this device as the
	// deepest steal victim.
	if gotBacklog >= wholeEst {
		t.Errorf("PendingBacklog %v still counts consumed slices (whole-job estimate %v)", gotBacklog, wholeEst)
	}
}

// TestSlicedRemainderEndsAfterDispatchError is a regression test: a
// sliced job whose slice was running when a policy error aborted the
// run used to be re-queued at its slice boundary, where nothing
// dispatched or failed it, so it never ended — no onDone, and neither
// completed nor Failed in Run's partial Result. Two streams; the
// saboteur's third pick fails while the chain's first slice runs, and
// every job must still end exactly once.
func TestSlicedRemainderEndsAfterDispatchError(t *testing.T) {
	ctx := newCtx(t, 2)
	s, err := New(ctx, WithSlicing(1), WithPolicy(&saboteurPolicy{good: 2}))
	if err != nil {
		t.Fatal(err)
	}
	ends := map[int]int{}
	s.SetOnDone(func(o JobOutcome) { ends[o.Index]++ })
	jobs := []Job{
		multiTaskJob(0, "a", 0, 3, 1e9, true),
		syntheticJob(1, "b", 0, 1e7),
		syntheticJob(2, "b", 0, 1e7),
	}
	r, err := s.Run(jobs)
	if err == nil {
		t.Fatal("saboteur policy should abort the run")
	}
	for i := range jobs {
		if ends[i] != 1 {
			t.Errorf("job %d ended %d times, want once", i, ends[i])
		}
	}
	if r == nil {
		t.Fatal("aborted run should still return the partial result")
	}
	for i, o := range r.Jobs {
		if o.Done == 0 && !o.Failed {
			t.Errorf("job %d is neither done nor failed: %+v", i, o)
		}
	}
	if s.QueueDepth() != 0 || s.InFlight() != 0 {
		t.Errorf("%d jobs left queued and %d in flight", s.QueueDepth(), s.InFlight())
	}
}

// estChecker is FIFO that, at every decision, checks each queued
// remainder's estimate against a fresh pricing of its remaining tasks.
type estChecker struct {
	s       *Scheduler
	checked int
	bad     string
}

func (c *estChecker) Name() string { return "est-checker" }

func (c *estChecker) Pick(pending []*Pending, idle []int, _ *View) (int, int) {
	for _, p := range pending {
		if p.Next == 0 {
			continue
		}
		c.checked++
		if want := c.s.Estimate(p.Job.Tasks[p.Next:]); p.Est != want && c.bad == "" {
			c.bad = fmt.Sprintf("job %d at task %d: Est %v, Estimate of the remainder %v", p.Job.ID, p.Next, p.Est, want)
		}
	}
	return 0, idle[0]
}

// A slice boundary subtracts the slice just run from the remainder's
// price instead of re-pricing the remainder: under WithSlicing(1) the
// remainder's Est after every slice equals Estimate(tasks[next:]),
// transfers included.
func TestSliceBoundaryEstimateMatchesRepricing(t *testing.T) {
	ctx := newCtx(t, 1)
	buf := hstreams.AllocVirtual(ctx, "est", 1<<20, 1)
	var jobs []Job
	for j := 0; j < 3; j++ {
		job := multiTaskJob(j, "t", 0, 9, 1e8*float64(j+1), true)
		for k, task := range job.Tasks {
			task.Cost.Flops *= float64(1 + k%3)
			if k%2 == 0 {
				task.H2D = []core.TransferSpec{core.Xfer(buf, 0, 4096*(k+1))}
			}
			if k%3 == 0 {
				task.D2H = []core.TransferSpec{core.Xfer(buf, 0, 1024*(j+1))}
			}
		}
		jobs = append(jobs, job)
	}
	c := &estChecker{}
	s, err := New(ctx, WithSlicing(1), WithPolicy(c))
	if err != nil {
		t.Fatal(err)
	}
	c.s = s
	if _, err := s.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if c.bad != "" {
		t.Fatal(c.bad)
	}
	if want := 3 * 8; c.checked < want {
		t.Fatalf("checked %d queued remainders, want at least the %d slice boundaries", c.checked, want)
	}
}
