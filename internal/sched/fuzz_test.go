package sched

import (
	"testing"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
)

// FuzzSubmit fuzzes online admission over the job shapes validation
// gates on — empty task lists, nil tasks, arbitrary dependency edges —
// under every slicing cap. The invariants: Submit never panics,
// structurally invalid jobs are rejected before admission (nothing
// queued, nothing in flight, no outcome), an active slicing cap
// additionally rejects any job whose dependency edges are not
// dependency-ordered, and a well-formed job is admitted, dispatched
// and completed by the engine, its one outcome carrying the caller's
// key.
func FuzzSubmit(f *testing.F) {
	f.Add(uint8(3), int8(-1), int8(0), uint8(9), uint8(2))
	f.Add(uint8(0), int8(-1), int8(0), uint8(9), uint8(0))  // no tasks
	f.Add(uint8(4), int8(2), int8(0), uint8(9), uint8(1))   // nil task
	f.Add(uint8(4), int8(-1), int8(3), uint8(1), uint8(1))  // forward dep
	f.Add(uint8(4), int8(-1), int8(0), uint8(1), uint8(2))  // backward dep
	f.Add(uint8(8), int8(-1), int8(-2), uint8(5), uint8(0)) // dangling dep, no slicing
	f.Fuzz(func(t *testing.T, nTasks uint8, nilAt, depTarget int8, depAt, sliceCap uint8) {
		n := int(nTasks) % 9
		tasks := make([]*core.Task, n)
		for k := range tasks {
			tasks[k] = &core.Task{
				ID:         k,
				Cost:       device.KernelCost{Name: "synthetic", Flops: 1e8},
				StreamHint: -1,
			}
		}
		if i := int(nilAt); i >= 0 && i < n {
			tasks[i] = nil
		}
		if i := int(depAt) % 9; i < n && tasks[i] != nil {
			tasks[i].DependsOn = []int{int(depTarget)}
		}
		job := Job{ID: 1, Tenant: "fuzz", Tasks: tasks}

		ctx, err := hstreams.Init(hstreams.Config{Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(ctx, WithSlicing(int(sliceCap)%3))
		if err != nil {
			t.Fatal(err)
		}
		var ended []JobOutcome
		s.SetOnDone(func(o JobOutcome) { ended = append(ended, o) })
		const key = 41
		err = s.Submit(key, &job)
		admitted := s.QueueDepth() > 0 || s.InFlight() > 0 || len(ended) > 0
		structurallyBad := n == 0 || (int(nilAt) >= 0 && int(nilAt) < n)
		switch {
		case structurallyBad:
			if err == nil || admitted {
				t.Fatalf("Submit admitted a structurally invalid job: err %v, admitted %v", err, admitted)
			}
			return
		case s.sliceMax > 0 && Sliceable(tasks) != nil:
			if err == nil || admitted {
				t.Fatalf("Submit admitted an unsliceable job under WithSlicing(%d): err %v, admitted %v", s.sliceMax, err, admitted)
			}
			return
		case err != nil:
			// Dependency edges the slicing gate does not police (cap 0)
			// can still be illegal at dispatch; rejection is fine, a
			// panic is not.
			return
		}
		ctx.Engine().Run()
		if s.Err() != nil {
			return // failed at dispatch (e.g. dangling dependency), not a panic
		}
		if len(ended) != 1 {
			t.Fatalf("admitted job ended %d times, want once", len(ended))
		}
		if o := ended[0]; o.Index != key || o.Failed || o.Done < o.Start {
			t.Fatalf("admitted job finished in a broken state: %+v", o)
		}
	})
}
