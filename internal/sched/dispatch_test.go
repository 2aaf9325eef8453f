package sched

import (
	"reflect"
	"testing"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
)

// hostile wraps a policy and, after its inner twin has picked, scribbles
// over everything the scheduler handed it: every View slice, the idle
// list, and the View's slice headers. It also keeps the last View. The
// dispatch scratch is reused across decisions, so this checks that the
// scratch still only ever reaches a policy as copies.
type hostile struct {
	inner Policy
	kept  *View
}

func (h *hostile) Name() string { return h.inner.Name() }

func (h *hostile) bind(ctx *hstreams.Context) {
	if b, ok := h.inner.(binder); ok {
		b.bind(ctx)
	}
}

func (h *hostile) reset() {
	if r, ok := h.inner.(resetter); ok {
		r.reset()
	}
}

func (h *hostile) Pick(pending []*Pending, idle []int, v *View) (int, int) {
	pi, stream := h.inner.Pick(pending, idle, v)
	for i := range v.StreamLoad {
		v.StreamLoad[i] = -1 << 40
	}
	for i := range v.StreamPartition {
		v.StreamPartition[i] = -7
	}
	for i := range v.StreamTenant {
		v.StreamTenant[i] = "mallory"
	}
	for i := range idle {
		idle[i] = -3
	}
	v.StreamLoad, v.StreamPartition, v.StreamTenant = nil, idle, nil
	v.Partitions = -1
	h.kept = v
	return pi, stream
}

// A policy that overwrites every slice it is handed and keeps the View
// leaves every Result DeepEqual to its well-behaved twin, for every
// built-in policy, whole-job and sliced.
func TestHostilePolicyCannotCorruptScheduler(t *testing.T) {
	for _, name := range Policies() {
		for _, slicing := range []int{0, 1} {
			run := func(wrap bool) *Result {
				t.Helper()
				ctx, err := hstreams.Init(hstreams.Config{Partitions: 4, StreamsPerPartition: 2})
				if err != nil {
					t.Fatal(err)
				}
				pol, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				if wrap {
					pol = &hostile{inner: pol}
				}
				s, err := New(ctx, WithPolicy(pol), WithSlicing(slicing))
				if err != nil {
					t.Fatal(err)
				}
				jobs, err := BuildScenario(ctx, ScenarioConfig{Pattern: "severe", Arrival: "bursty", Seed: 5, TilesPerJob: 3})
				if err != nil {
					t.Fatal(err)
				}
				r, err := s.Run(jobs)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			want, got := run(false), run(true)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s slicing=%d: hostile policy changed the result", name, slicing)
			}
		}
	}
}

// A warmed scheduler's steady-state submit → dispatch → complete of a
// one-task job allocates the job's Pending and its stream operation's
// share of an event chunk, nothing per dispatch or per grant: the View,
// idle list, phase and grant record are all reused scratch, and the
// pinned task copy lives on the stack.
func TestSteadyStateDispatchAllocs(t *testing.T) {
	ctx, err := hstreams.Init(hstreams.Config{Partitions: 2, StreamsPerPartition: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ctx, WithPolicy(SJF()))
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{ID: 1, Tenant: "A", Tasks: []*core.Task{{
		ID: 0, Cost: device.KernelCost{Name: "k", Flops: 1e6}, StreamHint: -1,
	}}}
	var last JobOutcome
	s.SetOnDone(func(o JobOutcome) { last = o })
	cycle := func() {
		if err := s.Submit(1, job); err != nil {
			t.Fatal(err)
		}
		ctx.Drain()
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the scratch and the engine heap
	}
	// AllocsPerRun truncates, so the event chunks — one per 64 jobs —
	// round away. The Pending is a released record reused, and the
	// outcome lives in it: the scheduler keeps none after the job ends.
	allocs := testing.AllocsPerRun(1000, cycle)
	if allocs > 0 {
		t.Fatalf("submit+dispatch+complete allocated %.0f objects/job, want 0", allocs)
	}
	if last.Index != 1 || last.Done == 0 {
		t.Fatalf("last job did not complete: %+v", last)
	}
}
