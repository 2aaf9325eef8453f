package sim

import (
	"cmp"
	"fmt"
	"slices"
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

// key orders one scheduled callback: events with equal timestamps
// dispatch in scheduling order (seq), which makes the whole simulation
// deterministic. slot indexes the engine's slot table, where the
// callback itself waits; a negative slot ^f marks the next arrival of
// feed f instead. A key holds no pointers, so the collector never
// scans the heap array and a sift writes no pointer: the write barrier
// stays off the engine's hottest path.
type key struct {
	at   Time
	seq  uint64
	slot int32
}

func (k key) less(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// eventHeap is a min-heap of keys ordered by (at, seq), maintained by
// the hand-rolled sift routines below instead of container/heap: the
// standard interface forces every Push and Pop through an interface{}
// box, which allocates one key-sized heap object per scheduled event.
// In service mode the engine is a steady-state hot loop that schedules
// and dispatches events forever, so the heap operates in-place on the
// backing array — once the array has grown to the session's high-water
// mark, scheduling is allocation-free (DESIGN.md §15;
// TestEngineSteadyStateZeroAlloc guards this). Both sifts move a hole
// rather than swapping, so each level costs one key copy.
type eventHeap []key

// push appends k and restores the heap order (sift-up).
func (h *eventHeap) push(k key) {
	*h = append(*h, k)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = k
}

// pop removes and returns the minimum key (sift-down).
func (h *eventHeap) pop() key {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && q[right].less(q[child]) {
			child = right
		}
		if !q[child].less(last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
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
	// slots holds the callbacks of the pending events, indexed by
	// their keys' slot; free lists the vacant slots, reused most
	// recently vacated first.
	slots []Handler
	free  []int32
	// feeds holds every Feed the engine has handed out, live or not;
	// freeFeeds lists the idle ones, and fed counts the arrivals
	// that live feeds still hold outside the heap.
	feeds     []*Feed
	freeFeeds []int32
	fed       int
}

// NewEngine returns an engine with the virtual clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset empties the engine and puts its clock back to zero, as
// NewEngine would, keeping its heap and slot storage. Events still
// pending are dropped undelivered.
func (e *Engine) Reset() {
	clear(e.slots)
	e.now, e.heap, e.seq, e.nsteps = 0, e.heap[:0], 0, 0
	e.slots, e.free = e.slots[:0], e.free[:0]
	e.freeFeeds, e.fed = e.freeFeeds[:0], 0
	for _, f := range e.feeds {
		e.recycle(f)
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have been dispatched so far; useful for
// tests and for detecting runaway simulations.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending reports the number of scheduled-but-undelivered events,
// counting every arrival a feed still holds.
func (e *Engine) Pending() int { return len(e.heap) + e.fed }

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
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[slot] = h
	} else {
		slot = int32(len(e.slots))
		e.slots = append(e.slots, h)
	}
	e.seq++
	e.heap.push(key{at: t, seq: e.seq, slot: slot})
}

// Arrivals receives the arrivals of a Feed.
type Arrivals interface {
	// Arrive is called at the instant of the arrival that Feed.Add
	// registered under i.
	Arrive(i int)
}

// Feed is a batch of arrivals that takes one entry of the engine's
// heap however many it holds (DESIGN.md §1). Each Add reserves the order
// number that an At call in its place would take, and the feed keeps
// its arrivals sorted by (time, order number) outside the heap: only
// the next due one waits in the heap, and firing it pushes the one
// after. Every arrival therefore dispatches exactly when, and in
// exactly the order that, one At call per arrival would dispatch it,
// while the heap stays as small as the work in flight and no arrival
// needs a callback of its own.
//
// A Feed comes from Engine.Feed, takes its arrivals through Add and is
// handed to the engine by Start. The engine recycles it after its last
// arrival fires (or at Reset), so the caller must not keep it past
// Start.
type Feed struct {
	e     *Engine
	id    int32
	dst   Arrivals
	items []fedArrival
	next  int
}

// fedArrival is one arrival of a feed: its instant, its reserved
// order number and the index its Arrivals target knows it by.
type fedArrival struct {
	at  Time
	seq uint64
	i   int
}

// Feed returns an empty arrival feed whose arrivals go to dst, reusing
// the storage of a drained feed when there is one.
func (e *Engine) Feed(dst Arrivals) *Feed {
	var f *Feed
	if n := len(e.freeFeeds); n > 0 {
		f = e.feeds[e.freeFeeds[n-1]]
		e.freeFeeds = e.freeFeeds[:n-1]
	} else {
		f = &Feed{e: e, id: int32(len(e.feeds))}
		e.feeds = append(e.feeds, f)
	}
	f.dst = dst
	return f
}

// Add registers arrival i at virtual time t, taking the order number
// an At call made now would take. Like At, a time in the past panics.
func (f *Feed) Add(t Time, i int) {
	e := f.e
	if t < e.now {
		panic(fmt.Sprintf("sim: feeding an arrival at %v before now %v", t, e.now))
	}
	e.seq++
	f.items = append(f.items, fedArrival{at: t, seq: e.seq, i: i})
}

// Reserve makes room for n more arrivals, so that many Adds grow the
// feed's storage at most once, here.
func (f *Feed) Reserve(n int) { f.items = slices.Grow(f.items, n) }

// Start hands the feed to the engine: its earliest arrival enters the
// heap. A feed with no arrivals is recycled at once.
func (f *Feed) Start() {
	if len(f.items) == 0 {
		f.e.recycle(f)
		return
	}
	// Order numbers ascend in Add order, so arrivals added in time
	// order are sorted already, which the sort detects in one pass.
	slices.SortFunc(f.items, func(a, b fedArrival) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	f.e.fed += len(f.items) - 1
	f.push()
}

// push puts the feed's next arrival into the heap under its reserved
// order number.
func (f *Feed) push() {
	a := f.items[f.next]
	f.e.heap.push(key{at: a.at, seq: a.seq, slot: ^f.id})
}

// fire dispatches the feed's next arrival, first pushing the one after
// it, or recycling the feed after its last.
func (f *Feed) fire() {
	dst, i := f.dst, f.items[f.next].i
	f.next++
	if f.next < len(f.items) {
		f.e.fed--
		f.push()
	} else {
		f.e.recycle(f)
	}
	dst.Arrive(i)
}

// recycle empties a feed, keeping its storage, and returns it to the
// engine's free list.
func (e *Engine) recycle(f *Feed) {
	f.dst, f.items, f.next = nil, f.items[:0], 0
	e.freeFeeds = append(e.freeFeeds, f.id)
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
	k := e.heap.pop()
	if k.slot < 0 {
		e.now = k.at
		e.nsteps++
		e.feeds[^k.slot].fire()
		return true
	}
	// The vacated slot is cleared so the table does not pin the
	// handler (and whatever it references) until the slot is reused.
	h := e.slots[k.slot]
	e.slots[k.slot] = nil
	e.free = append(e.free, k.slot)
	e.now = k.at
	e.nsteps++
	h.Fire()
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
