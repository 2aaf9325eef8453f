package sim

import (
	"testing"
)

func TestQuiescentAndNextAt(t *testing.T) {
	e := NewEngine()
	if !e.Quiescent() {
		t.Fatal("new engine is not quiescent")
	}
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt reported an event on a quiescent engine")
	}
	e.At(40, func() {})
	e.At(10, func() {})
	if e.Quiescent() {
		t.Fatal("engine with pending events reported quiescent")
	}
	if at, ok := e.NextAt(); !ok || at != 10 {
		t.Fatalf("NextAt = (%v, %v), want (10, true)", at, ok)
	}
	e.Run()
	if !e.Quiescent() {
		t.Fatal("engine not quiescent after Run")
	}
}

func TestStepUntilDispatchesWindowAndLandsOnBoundary(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	if n := e.StepUntil(20); n != 2 {
		t.Fatalf("StepUntil(20) dispatched %d events, want 2", n)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v, want the boundary 20", e.Now())
	}
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [5 15]", fired)
	}
	// A boundary at or before now is a no-op, not a clock rewind.
	if n := e.StepUntil(20); n != 0 {
		t.Fatalf("StepUntil(now) dispatched %d events, want 0", n)
	}
	if n := e.StepUntil(10); n != 0 || e.Now() != 20 {
		t.Fatalf("StepUntil(past) = %d, clock %v; want 0, 20", n, e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatal("event at 25 lost after StepUntil")
	}
}

func TestStepUntilDispatchesCascadesInsideWindow(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 10 {
			e.After(1, recurse)
		}
	}
	e.At(0, recurse)
	if n := e.StepUntil(5); n != 6 {
		t.Fatalf("StepUntil(5) dispatched %d events, want 6 (t=0..5)", n)
	}
	if depth != 6 {
		t.Fatalf("depth = %d, want 6", depth)
	}
}

// The steady-state scheduling path must be allocation-free: once the
// heap's backing array has grown to the loop's high-water mark,
// At+Step cycles reuse it. This is the alloc guard behind the service
// mode's hot loop (DESIGN.md §15); the telemetry recorder's disabled
// path has the same style of guard.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	// Pre-allocate the closure once; the engine must not add to it.
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 1<<20 {
			e.After(3, tick)
		}
	}
	e.At(0, tick)
	e.Step() // warm the heap's backing array
	allocs := testing.AllocsPerRun(10000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocated %.1f objects/event, want 0", allocs)
	}
}

// BenchmarkEngineSteadyState measures the pooled event path: one
// self-rescheduling event per iteration — the exact shape of the
// service-mode hot loop, where every dispatch schedules a successor.
// It reports allocs/op; TestEngineSteadyStateZeroAlloc is the guard
// that fails when the pooled path allocates.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := NewEngine()
	var tick func()
	tick = func() { e.After(3, tick) }
	e.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineChurn measures schedule/dispatch pairs across a fan
// of pending events (heap depth 1024), the shape of a loaded cluster:
// many in-flight completions racing one dispatch loop.
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	for i := 0; i < 1024; i++ {
		e.At(Time(i), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now().Add(1024), nop)
		e.Step()
	}
}
