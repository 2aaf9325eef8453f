package hstreams

import (
	"testing"

	"micstream/internal/device"
	"micstream/internal/pcie"
	"micstream/internal/sim"
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

// A Reset to a configuration that Init rejects returns Init's error and
// changes nothing: the context keeps its previous shape, clock, record
// and pending work, and runs on as if Reset had not been called.
func TestResetRejectsBadConfigAndKeepsShape(t *testing.T) {
	badDevice := device.Xeon31SP()
	badDevice.ClockHz = -1
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative devices", Config{Devices: -1}},
		{"partitions beyond threads", Config{Partitions: device.Xeon31SP().TotalThreads() + 1}},
		{"streams per partition below one", Config{StreamsPerPartition: -1}},
		{"invalid device", Config{Device: badDevice}},
		{"invalid link", Config{Link: pcie.Config{BandwidthBps: -1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, initErr := Init(tc.cfg)
			if initErr == nil {
				t.Fatal("Init accepted the configuration")
			}
			c := newCtx(t, Config{Devices: 2, Partitions: 3, StreamsPerPartition: 2, Stages: true})
			cost := device.KernelCost{Name: "k", Flops: 1e9}
			c.Stream(0).EnqueueKernel(cost, 0, nil)
			c.Barrier()
			pending := c.Stream(c.NumStreams()-1).EnqueueKernel(cost, 1, nil)
			cfg, now, stages := c.Config(), c.Now(), c.Recorder().StageTimes()
			err := c.Reset(tc.cfg)
			if err == nil || err.Error() != initErr.Error() {
				t.Fatalf("Reset returned %v, want Init's %v", err, initErr)
			}
			if c.Config() != cfg || c.Now() != now || c.NumStreams() != 12 || c.Device(1).NumPartitions() != 3 {
				t.Fatalf("a failed Reset changed the context: %+v at %v with %d streams", c.Config(), c.Now(), c.NumStreams())
			}
			if got := c.Recorder().StageTimes(); got != stages {
				t.Fatalf("a failed Reset changed the record: %+v, want %+v", got, stages)
			}
			c.Barrier()
			if !pending.Done() || pending.CompletedAt() <= now {
				t.Fatal("work pending before a failed Reset did not run after it")
			}
		})
	}
}

// Reset keeps the recorder, devices and links while the recorder kind
// and the device and link configurations are unchanged, and rebuilds
// the devices and links when any of them changes.
func TestResetKeepsWhatTheShapeAllows(t *testing.T) {
	c := newCtx(t, Config{Devices: 2, Partitions: 4, Stages: true})
	dev, link, rec := c.Device(0), c.Link(0), c.Recorder()
	if err := c.Reset(Config{Partitions: 8, StreamsPerPartition: 2, Stages: true}); err != nil {
		t.Fatal(err)
	}
	if c.Device(0) != dev || c.Link(0) != link || c.Recorder() != rec {
		t.Fatal("a reshape with the same configurations and recorder kind rebuilt the platform")
	}
	if c.NumDevices() != 1 || c.NumStreams() != 16 || c.Device(0).NumPartitions() != 8 || c.StreamAt(0, 7, 1) != c.Stream(15) {
		t.Fatalf("reshaped to %d devices, %d streams, %d partitions", c.NumDevices(), c.NumStreams(), c.Device(0).NumPartitions())
	}
	if err := c.Reset(Config{Partitions: 8, Trace: true}); err != nil {
		t.Fatal(err)
	}
	if c.Device(0) == dev || c.Link(0) == link || !c.Recorder().KeepsSpans() {
		t.Fatal("a new recorder kind kept the devices or links built for the old one")
	}
	dev, link = c.Device(0), c.Link(0)
	if err := c.Reset(Config{Partitions: 8, Trace: true, Link: pcie.Config{BandwidthBps: 1e9, FullDuplex: true}}); err != nil {
		t.Fatal(err)
	}
	if c.Device(0) == dev || c.Link(0) == link || !c.Link(0).Config().FullDuplex {
		t.Fatal("a new link configuration kept the devices or links built for the old one")
	}
}
