package sim

import (
	"fmt"
)

// Handler is a scheduled callback in method form. A pointer type
// implementing it converts to a Handler without allocating, so a
// long-lived object such as an hstreams event can be its own completion
// target where a closure would cost one heap object per scheduling
// (DESIGN.md §4).
type Handler interface{ Fire() }

// Func adapts a plain function to Handler; the conversion does not
// allocate beyond the function value itself.
type Func func()

// Fire implements Handler.
func (f Func) Fire() { f() }

// event is a scheduled callback. Events with equal timestamps dispatch
// in scheduling order (seq), which makes the whole simulation
// deterministic.
type event struct {
	at  Time
	seq uint64
	h   Handler
}

// eventHeap is a min-heap ordered by (at, seq), maintained by the
// hand-rolled sift routines below instead of container/heap: the
// standard interface forces every Push and Pop through an interface{}
// box, which allocates one event-sized heap object per scheduled
// event. In service mode the engine is a steady-state hot loop that
// schedules and dispatches events forever, so the heap operates
// in-place on the backing array — once the array has grown to the
// session's high-water mark, scheduling is allocation-free
// (DESIGN.md §15; BenchmarkEngineSteadyState guards this).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends ev and restores the heap order (sift-up).
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the minimum event (sift-down). The vacated
// slot's handler is cleared so the backing array does not pin it (and
// whatever it references) until the slot is overwritten.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return ev
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; the platform drives it from one goroutine and
// parallelizes only *inside* kernel callbacks (which execute at a fixed
// virtual instant and therefore cannot perturb the schedule).
type Engine struct {
	now    Time
	heap   eventHeap
	seq    uint64
	nsteps uint64
}

// NewEngine returns an engine with the virtual clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have been dispatched so far; useful for
// tests and for detecting runaway simulations.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending reports the number of scheduled-but-undelivered events.
func (e *Engine) Pending() int { return len(e.heap) }

// Quiescent reports whether no events remain — the epoch boundary of a
// long-running session: an engine driven by a persistent server is
// quiescent between ingest batches, not finished (DESIGN.md §15).
func (e *Engine) Quiescent() bool { return len(e.heap) == 0 }

// NextAt reports the timestamp of the earliest pending event; ok is
// false when the engine is quiescent.
func (e *Engine) NextAt() (at Time, ok bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// At schedules fn to run at the given virtual time. Scheduling in the
// past is a programming error in the platform layers and panics, since
// a causality violation would silently corrupt every measurement.
func (e *Engine) At(t Time, fn func()) { e.Schedule(t, Func(fn)) }

// Schedule is At for a Handler: h.Fire runs at virtual time t, ordered
// with At's callbacks by the same (time, scheduling order) rule.
func (e *Engine) Schedule(t Time, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.heap.push(event{at: t, seq: e.seq, h: h})
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// Step dispatches the single earliest pending event, advancing the
// clock to its timestamp. It reports whether an event was dispatched.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap.pop()
	e.now = ev.at
	e.nsteps++
	ev.h.Fire()
	return true
}

// Run dispatches events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// StepUntil dispatches every event scheduled at or before t (including
// events those dispatches schedule inside the window) and then advances
// the clock to t, reporting how many events ran. A t at or before the
// current time dispatches nothing and leaves the clock alone. This is
// the incremental session form of Run: a persistent server steps the
// engine epoch by epoch instead of running it to exhaustion, and the
// clock landing exactly on the boundary keeps successive epochs'
// admission instants deterministic (DESIGN.md §15).
func (e *Engine) StepUntil(t Time) int {
	if t <= e.now {
		return 0
	}
	n := 0
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
		n++
	}
	e.now = t
	return n
}

// RunUntil dispatches events until done reports true or no events
// remain; it returns the final value of done. This is what lets the
// hstreams layer implement blocking synchronization (stream sync,
// device sync) lazily: the program enqueues work imperatively and the
// simulation advances only as far as each sync point requires.
func (e *Engine) RunUntil(done func() bool) bool {
	for !done() {
		if !e.Step() {
			return done()
		}
	}
	return true
}

// Advance moves the clock forward by d, dispatching any events that
// fall within the window. It models host-side work performed between
// device synchronization points (e.g. Kmeans' centroid recomputation on
// the CPU): device-side events scheduled inside the window still fire
// at their proper times, because host work does not block the DMA
// engine or the coprocessor.
func (e *Engine) Advance(d Duration) {
	if d < 0 {
		panic("sim: negative Advance")
	}
	deadline := e.now.Add(d)
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
	}
	e.now = deadline
}
