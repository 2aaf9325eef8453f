package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// refEvent is a pending event of the reference model.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refEngine is the engine's specification written the slow, obvious
// way: the pending events in a plain list, the next one found by a
// scan for the least (at, seq).
type refEngine struct {
	now     Time
	seq     uint64
	pending []refEvent
}

func (r *refEngine) schedule(at Time, id int) {
	r.seq++
	r.pending = append(r.pending, refEvent{at, r.seq, id})
}

// next reports the index of the least pending event, or -1.
func (r *refEngine) next() int {
	best := -1
	for i, ev := range r.pending {
		if best < 0 || ev.at < r.pending[best].at ||
			ev.at == r.pending[best].at && ev.seq < r.pending[best].seq {
			best = i
		}
	}
	return best
}

// pop removes the least pending event, advances the clock to it and
// returns it.
func (r *refEngine) pop() refEvent {
	i := r.next()
	ev := r.pending[i]
	r.pending = append(r.pending[:i], r.pending[i+1:]...)
	r.now = ev.at
	return ev
}

// probe is a handler that reports its id when fired.
type probe struct {
	id   int
	fire func(id int)
}

func (p *probe) Fire() { p.fire(p.id) }

// Property: over random interleavings of Schedule, At, Step, StepUntil
// and Advance — timestamps drawn from a narrow range so most events
// tie, and handlers that schedule more events while they fire — the
// engine dispatches exactly the events the reference does, in the
// same order and at the same instants, with the same clock, pending
// count and next timestamp after every operation. Handlers' successors
// join the reference at once, which is sound because a successor never
// precedes the event that scheduled it. The slot table grows exactly
// to the most events pending at once, so vacated slots are reused.
func TestPropertyEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 200; trial++ {
		e, ref := NewEngine(), &refEngine{}
		type dispatch struct {
			at Time
			id int
		}
		var fired, want []dispatch
		ids := 0
		peak := 0
		var schedule func(at Time)
		fire := func(id int) {
			fired = append(fired, dispatch{e.Now(), id})
			// A third of the handlers schedule a successor, often
			// at the current instant.
			if id%3 == 0 && len(ref.pending) < 400 {
				schedule(e.Now().Add(Duration(rng.Intn(3))))
			}
		}
		schedule = func(at Time) {
			id := ids
			ids++
			ref.schedule(at, id)
			if rng.Intn(2) == 0 {
				e.Schedule(at, &probe{id, fire})
			} else {
				e.At(at, func() { fire(id) })
			}
			peak = max(peak, e.Pending())
		}
		pop := func() {
			ev := ref.pop()
			want = append(want, dispatch{ev.at, ev.id})
		}
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k < 4:
				for range 1 + rng.Intn(4) {
					schedule(e.Now().Add(Duration(rng.Intn(4))))
				}
			case k < 7:
				stepped := e.Step()
				if stepped != (len(ref.pending) > 0) {
					t.Fatalf("trial %d op %d: Step = %v with %d pending in the reference", trial, op, stepped, len(ref.pending))
				}
				if stepped {
					pop()
				}
			case k < 9:
				until := e.Now().Add(Duration(rng.Intn(5) - 1))
				n := e.StepUntil(until)
				wantN := 0
				if until > ref.now {
					for i := ref.next(); i >= 0 && ref.pending[i].at <= until; i = ref.next() {
						pop()
						wantN++
					}
					ref.now = until
				}
				if n != wantN {
					t.Fatalf("trial %d op %d: StepUntil(%v) dispatched %d, reference %d", trial, op, until, n, wantN)
				}
			default:
				d := Duration(rng.Intn(4))
				deadline := ref.now.Add(d)
				e.Advance(d)
				for i := ref.next(); i >= 0 && ref.pending[i].at <= deadline; i = ref.next() {
					pop()
				}
				ref.now = deadline
			}
			if len(fired) != len(want) {
				t.Fatalf("trial %d op %d: fired %d events, reference %d", trial, op, len(fired), len(want))
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("trial %d op %d: dispatch %d was %+v, reference %+v", trial, op, i, fired[i], want[i])
				}
			}
			if e.Now() != ref.now || e.Pending() != len(ref.pending) {
				t.Fatalf("trial %d op %d: clock %v pending %d, reference %v %d", trial, op, e.Now(), e.Pending(), ref.now, len(ref.pending))
			}
			at, ok := e.NextAt()
			if i := ref.next(); ok != (i >= 0) || ok && at != ref.pending[i].at {
				t.Fatalf("trial %d op %d: NextAt = (%v, %v), reference has %d pending", trial, op, at, ok, len(ref.pending))
			}
		}
		if len(e.slots) != peak {
			t.Fatalf("trial %d: slot table grew to %d with at most %d events pending", trial, len(e.slots), peak)
		}
	}
}

// arrivalLog is a feed target that reports each arrival's id.
type arrivalLog func(id int)

func (l arrivalLog) Arrive(i int) { l(i) }

// Property: a Feed dispatches its arrivals exactly as one At call per
// arrival would. Each trial drives two engines through the same seeded
// sequence of operations, one scheduling every arrival with At and the
// other through feeds. The arrival sets are unsorted and tie often;
// ordinary At calls interleave with a feed's Adds, several feeds are
// live at once, and a third of the fired events schedule a successor,
// usually at the instant they fire. Both engines must dispatch the
// same events in the same order at the same instants, with the same
// clock, pending count and next timestamp after every operation.
func TestPropertyFeedMatchesAt(t *testing.T) {
	type dispatch struct {
		at Time
		id int
	}
	type state struct {
		now     Time
		pending int
		next    Time
		steps   uint64
	}
	run := func(seed int64, feed bool) (fired []dispatch, states []state) {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ids := 0
		var fire func(id int)
		succ := func() {
			id := ids
			ids++
			e.At(e.Now().Add(Duration(rng.Intn(3))), func() { fire(id) })
		}
		fire = func(id int) {
			fired = append(fired, dispatch{e.Now(), id})
			if rng.Intn(3) == 0 && e.Pending() < 400 {
				succ()
			}
		}
		for op := 0; op < 200; op++ {
			switch k := rng.Intn(10); {
			case k < 3:
				// A batch of arrivals, with ordinary events scheduled
				// between its Adds.
				var f *Feed
				if feed {
					f = e.Feed(arrivalLog(fire))
				}
				for range rng.Intn(12) {
					if rng.Intn(4) == 0 {
						succ()
					}
					id := ids
					ids++
					at := e.Now().Add(Duration(rng.Intn(6)))
					if feed {
						f.Add(at, id)
					} else {
						e.At(at, func() { fire(id) })
					}
				}
				if feed {
					f.Start()
				}
			case k < 6:
				e.Step()
			case k < 8:
				e.StepUntil(e.Now().Add(Duration(rng.Intn(5) - 1)))
			case k < 9:
				e.Advance(Duration(rng.Intn(4)))
			default:
				succ()
			}
			next, _ := e.NextAt()
			states = append(states, state{e.Now(), e.Pending(), next, e.Steps()})
		}
		e.Run()
		return fired, states
	}
	for trial := int64(0); trial < 300; trial++ {
		wantFired, wantStates := run(trial, false)
		gotFired, gotStates := run(trial, true)
		if !reflect.DeepEqual(gotStates, wantStates) {
			t.Fatalf("trial %d: engine states diverge:\nfeed %v\nAt   %v", trial, gotStates, wantStates)
		}
		if !reflect.DeepEqual(gotFired, wantFired) {
			t.Fatalf("trial %d: dispatch order diverges:\nfeed %v\nAt   %v", trial, gotFired, wantFired)
		}
	}
}

// A Reset drops the arrivals of live feeds with every other pending
// event, and the feeds' storage serves the next ones.
func TestFeedReset(t *testing.T) {
	e := NewEngine()
	var got []int
	f := e.Feed(arrivalLog(func(id int) { got = append(got, id) }))
	for i := range 5 {
		f.Add(Time(i), i)
	}
	f.Start()
	e.Step()
	e.Reset()
	if e.Pending() != 0 || !e.Quiescent() {
		t.Fatalf("after Reset: %d pending", e.Pending())
	}
	g := e.Feed(arrivalLog(func(id int) { got = append(got, 10+id) }))
	if g != f {
		t.Fatal("Reset did not recycle the feed")
	}
	g.Add(3, 0)
	g.Add(1, 1)
	g.Start()
	e.Run()
	if want := []int{0, 11, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("arrivals %v, want %v", got, want)
	}
}
