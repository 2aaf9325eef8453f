package hstreams

import (
	"runtime"
	"sync"
	"testing"

	"micstream/internal/device"
	"micstream/internal/sim"
	"micstream/internal/trace"
)

// An event with 1–100 waiters — OnDone callbacks interleaved with
// actions on other streams that depend on it — runs them in
// registration order at its resolution: each callback sees exactly the
// dependent actions registered before it already started.
func TestManyWaitersRunInRegistrationOrder(t *testing.T) {
	c := newCtx(t, Config{Partitions: 2, StreamsPerPartition: 26})
	cost := device.KernelCost{Name: "k", Flops: 1e9}
	part := c.Device(0).Partition(1)
	kt := part.KernelTime(cost)
	// started counts the kernels reserved on partition 1 so far.
	started := func() int { return int(part.BusyTime() / kt) }
	for n := 1; n <= 100; n++ {
		a := c.Stream(0).EnqueueKernel(cost, 0, nil)
		base := started()
		var want, got []int
		deps := 0
		for i := 0; i < n; i++ {
			if i%4 == 3 {
				c.StreamAt(0, 1, deps).EnqueueKernel(cost, i, nil, a)
				deps++
				continue
			}
			want = append(want, deps)
			a.OnDone(func() { got = append(got, started()-base) })
		}
		c.Drain()
		if len(got) != len(want) {
			t.Fatalf("%d waiters: %d callbacks ran, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d waiters: callbacks saw %v dependents started, want %v", n, got, want)
			}
		}
	}
}

// waiterRun is one waiter's record: who ran, which one, and when.
type waiterRun struct {
	who string
	i   int
	at  sim.Time
}

// refillRun enqueues an action with n OnDone callbacks; the one at
// position at enqueues a new action on another stream, with three
// callbacks and a dependent action of its own. With recycle set, that
// callback first recycles the event invoking it, so the new action
// reuses it while the old action's later waiters are still listed.
func refillRun(t *testing.T, n, at int, recycle bool) []waiterRun {
	c := newCtx(t, Config{Partitions: 3})
	cost := device.KernelCost{Name: "k", Flops: 1e9}
	var log []waiterRun
	note := func(who string, i int) { log = append(log, waiterRun{who, i, c.Now()}) }
	a := c.Stream(0).EnqueueKernel(cost, 0, nil)
	for i := 0; i < n; i++ {
		if i != at {
			a.OnDone(func() { note("a", i) })
			continue
		}
		a.OnDone(func() {
			note("refill", i)
			if recycle {
				c.Recycle([]*Event{a})
			}
			b := c.Stream(1).EnqueueKernel(cost, 1, nil)
			if recycle && b != a {
				t.Fatal("the refill did not reuse the recycled event")
			}
			for j := 0; j < 3; j++ {
				b.OnDone(func() { note("b", j) })
			}
			d := c.Stream(2).EnqueueKernel(cost, 2, nil, b)
			d.OnDone(func() { note("d", 0) })
		})
	}
	c.Drain()
	return log
}

// An OnDone callback that recycles and refills the event invoking it,
// while later waiters are still listed, changes nothing: the old
// action's waiters all run, in order, at its resolution, and the new
// action's at its own, exactly as when the new action gets a fresh
// event.
func TestRefillFromOnDoneKeepsLaterWaiters(t *testing.T) {
	for n := 1; n <= 100; n++ {
		for _, at := range []int{0, n / 2, n - 1} {
			want := refillRun(t, n, at, false)
			got := refillRun(t, n, at, true)
			if len(got) != len(want) || len(want) != n+4 {
				t.Fatalf("n %d refill at %d: %d waiters ran recycled, %d fresh, want %d", n, at, len(got), len(want), n+4)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n %d refill at %d: waiter %d ran as %+v recycled, %+v fresh", n, at, i, got[i], want[i])
				}
			}
			for i := 0; i < n; i++ {
				if w := want[i]; w.i != i || w.at != want[0].at {
					t.Fatalf("n %d refill at %d: waiter %d ran as %+v, want position %d at %v", n, at, i, w, i, want[0].at)
				}
			}
		}
	}
}

// Close keeps at most maxSpares spares and hands out the most recent
// first, and a collection drops every spare that no Init has taken.
func TestSparesAreBoundedAndWeak(t *testing.T) {
	runtime.GC()
	ctxs := make([]*Context, 2*maxSpares)
	for i := range ctxs {
		ctxs[i] = newCtx(t, Config{Stages: true})
	}
	last := ctxs[len(ctxs)-1].Recorder()
	for _, c := range ctxs {
		c.Close()
	}
	spares.mu.Lock()
	n := len(spares.list)
	spares.mu.Unlock()
	if n != maxSpares {
		t.Fatalf("%d closed contexts left %d spares, want %d", len(ctxs), n, maxSpares)
	}
	if sp := takeSpare(); sp == nil || sp.rec != last {
		t.Fatal("the first spare taken is not the last context closed")
	}
	runtime.GC()
	if takeSpare() != nil {
		t.Fatal("a spare survived a collection with nothing referencing it")
	}
}

// spareRun plays a small pipeline — two streams, every kernel gating
// the next transfer on the other stream and carrying a second waiter —
// on a stage-recording context, recycles its events, closes the
// context and returns what it measured.
func spareRun(t *testing.T) [3]sim.Duration {
	c, err := Init(Config{Partitions: 2, Stages: true})
	if err != nil {
		t.Error(err)
		return [3]sim.Duration{}
	}
	buf := AllocVirtual(c, "b", 1<<16, 4)
	cost := device.KernelCost{Name: "k", Flops: 1e8}
	var evs []*Event
	var prev *Event
	for i := 0; i < 40; i++ {
		s := c.Stream(i % 2)
		h, err := s.EnqueueH2D(buf, 0, 1<<12, i, prev)
		if err != nil {
			t.Error(err)
			return [3]sim.Duration{}
		}
		k := s.EnqueueKernel(cost, i, nil)
		k.OnDone(func() {})
		evs, prev = append(evs, h, k), k
	}
	end := c.Barrier()
	rec := c.Recorder()
	got := [3]sim.Duration{sim.Duration(end), rec.BusyTime(trace.H2D), rec.BusyTime(trace.Kernel)}
	c.Recycle(evs)
	c.Close()
	return got
}

// Contexts closed and built on several goroutines at once, as the
// paper sweeps' workers do, share the spare list safely and measure
// exactly what a context built from fresh storage measures.
func TestConcurrentCloseAndInit(t *testing.T) {
	runtime.GC()
	want := spareRun(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := spareRun(t); got != want {
					t.Errorf("run on shared spares measured %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
