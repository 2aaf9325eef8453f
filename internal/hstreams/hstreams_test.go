package hstreams

import (
	"testing"

	"micstream/internal/device"
	"micstream/internal/pcie"
	"micstream/internal/sim"
	"micstream/internal/trace"
)

func newCtx(t *testing.T, cfg Config) *Context {
	t.Helper()
	c, err := Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInitDefaults(t *testing.T) {
	c := newCtx(t, Config{})
	if c.NumDevices() != 1 {
		t.Fatalf("devices = %d, want 1", c.NumDevices())
	}
	if c.NumStreams() != 1 {
		t.Fatalf("streams = %d, want 1", c.NumStreams())
	}
	if c.Config().Device.Name != "Xeon Phi 31SP" {
		t.Fatalf("default device = %q", c.Config().Device.Name)
	}
	if c.Config().Link.BandwidthBps != pcie.DefaultConfig().BandwidthBps {
		t.Fatal("default link config not applied")
	}
}

func TestInitTopology(t *testing.T) {
	c := newCtx(t, Config{Devices: 2, Partitions: 4, StreamsPerPartition: 2})
	if c.NumStreams() != 16 {
		t.Fatalf("streams = %d, want 16", c.NumStreams())
	}
	// Stream enumeration is device-major, partition-major.
	s := c.StreamAt(1, 3, 1)
	if s.DeviceIndex() != 1 || s.Partition().Index() != 3 {
		t.Fatalf("StreamAt(1,3,1) bound to dev %d part %d", s.DeviceIndex(), s.Partition().Index())
	}
	if s.ID() != 15 {
		t.Fatalf("StreamAt(1,3,1).ID = %d, want 15", s.ID())
	}
	// Streams sharing a partition reference the same object.
	if c.StreamAt(0, 2, 0).Partition() != c.StreamAt(0, 2, 1).Partition() {
		t.Fatal("streams of one place should share the partition")
	}
}

// Trace keeps the span log and implies Stages; Stages alone keeps only
// stage intervals; neither records nothing.
func TestInitPicksRecorder(t *testing.T) {
	for _, c := range []struct {
		cfg             Config
		recorded, spans bool
	}{
		{Config{}, false, false},
		{Config{Stages: true}, true, false},
		{Config{Trace: true}, true, true},
		{Config{Trace: true, Stages: true}, true, true},
	} {
		rec := newCtx(t, c.cfg).Recorder()
		if (rec != nil) != c.recorded || rec.KeepsSpans() != c.spans {
			t.Errorf("%+v: recorder %v, keeps spans %v; want %v, %v", c.cfg, rec != nil, rec.KeepsSpans(), c.recorded, c.spans)
		}
	}
}

func TestInitRejectsBadConfig(t *testing.T) {
	if _, err := Init(Config{Devices: -1}); err == nil {
		t.Fatal("negative device count accepted")
	}
	if _, err := Init(Config{StreamsPerPartition: -2}); err == nil {
		t.Fatal("negative streams per partition accepted")
	}
	bad := Config{}
	bad.Device = device.Xeon31SP()
	bad.Device.ClockHz = -1
	if _, err := Init(bad); err == nil {
		t.Fatal("invalid device config accepted")
	}
}

func TestStreamFIFOOrdering(t *testing.T) {
	c := newCtx(t, Config{Trace: true})
	s := c.Stream(0)
	cost := device.KernelCost{Name: "k", Flops: 1e8}
	e1 := s.EnqueueKernel(cost, 0, nil)
	e2 := s.EnqueueKernel(cost, 1, nil)
	c.Barrier()
	if !e1.Done() || !e2.Done() {
		t.Fatal("events not resolved after barrier")
	}
	if e2.CompletedAt() <= e1.CompletedAt() {
		t.Fatalf("FIFO violated: %v then %v", e1.CompletedAt(), e2.CompletedAt())
	}
}

func TestKernelsOnDifferentPartitionsOverlap(t *testing.T) {
	c := newCtx(t, Config{Partitions: 2, Trace: true})
	cost := device.KernelCost{Name: "k", Flops: 5e9}
	e0 := c.Stream(0).EnqueueKernel(cost, 0, nil)
	e1 := c.Stream(1).EnqueueKernel(cost, 1, nil)
	c.Barrier()
	// Both kernels are identical and started together on disjoint
	// partitions: completion must be simultaneous, i.e. spatial
	// sharing worked.
	if e0.CompletedAt() != e1.CompletedAt() {
		t.Fatalf("parallel kernels finished at %v and %v", e0.CompletedAt(), e1.CompletedAt())
	}
}

func TestStreamsSharingPartitionSerialize(t *testing.T) {
	c := newCtx(t, Config{Partitions: 1, StreamsPerPartition: 2, Trace: true})
	cost := device.KernelCost{Name: "k", Flops: 5e9}
	e0 := c.Stream(0).EnqueueKernel(cost, 0, nil)
	e1 := c.Stream(1).EnqueueKernel(cost, 1, nil)
	c.Barrier()
	if e1.CompletedAt() <= e0.CompletedAt() {
		t.Fatal("streams sharing a place must serialize kernels")
	}
}

// The core temporal-sharing behaviour (paper Fig. 1): with two streams,
// the H2D of task 1 overlaps the kernel of task 0, so two pipelined
// tasks finish sooner than 2× one task, but the two H2D transfers still
// serialize on the link.
func TestPipelineOverlapsTransferWithCompute(t *testing.T) {
	mkrun := func(streams int) sim.Time {
		c := newCtx(t, Config{Partitions: streams, Trace: true})
		buf := AllocVirtual(c, "a", 1<<22, 4) // 16 MB
		cost := device.KernelCost{Name: "k", Flops: 3e9}
		for task := 0; task < 2; task++ {
			s := c.Stream(task % streams)
			h, err := s.EnqueueH2D(buf, 0, buf.Len(), task)
			if err != nil {
				t.Fatal(err)
			}
			_ = h
			s.EnqueueKernel(cost, task, nil)
			if _, err := s.EnqueueD2H(buf, 0, buf.Len(), task); err != nil {
				t.Fatal(err)
			}
		}
		return c.Barrier()
	}
	serial := mkrun(1)
	streamed := mkrun(2)
	if streamed >= serial {
		t.Fatalf("2-stream pipeline (%v) not faster than single stream (%v)", streamed, serial)
	}
}

func TestTransfersOfDifferentStreamsSerializeOnLink(t *testing.T) {
	c := newCtx(t, Config{Partitions: 2, Trace: true})
	buf := AllocVirtual(c, "a", 1<<20, 1)
	e0, err := c.Stream(0).EnqueueH2D(buf, 0, buf.Len(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := c.Stream(1).EnqueueH2D(buf, 0, buf.Len(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	want := e0.CompletedAt().Add(c.Config().Link.TransferTime(int64(buf.Len())))
	if e1.CompletedAt() != want {
		t.Fatalf("second transfer completed at %v, want %v (serialized after first)", e1.CompletedAt(), want)
	}
}

func TestCrossStreamDependency(t *testing.T) {
	c := newCtx(t, Config{Partitions: 2, Trace: true})
	cost := device.KernelCost{Name: "k", Flops: 1e9}
	e0 := c.Stream(0).EnqueueKernel(cost, 0, nil)
	// Stream 1's kernel must wait for stream 0's even though the
	// partitions are disjoint.
	e1 := c.Stream(1).EnqueueKernel(cost, 1, nil, e0)
	c.Barrier()
	if e1.CompletedAt() <= e0.CompletedAt() {
		t.Fatal("dependency across streams not honoured")
	}
	// Without the dep they would have completed simultaneously; with
	// it the gap is at least a full kernel duration.
	gap := e1.CompletedAt().Sub(e0.CompletedAt())
	kt := c.Device(0).Partition(1).KernelTime(cost)
	if gap < kt {
		t.Fatalf("gap %v < kernel time %v", gap, kt)
	}
}

func TestFunctionalH2DKernelD2H(t *testing.T) {
	c := newCtx(t, Config{ExecuteKernels: true, Trace: true})
	host := []float64{1, 2, 3, 4}
	buf := Alloc1D(c, "v", host)
	s := c.Stream(0)
	if _, err := s.EnqueueH2D(buf, 0, 4, 0); err != nil {
		t.Fatal(err)
	}
	s.EnqueueKernel(device.KernelCost{Name: "inc", Flops: 4}, 0, func(k *KernelCtx) {
		dev := DeviceSlice[float64](buf, k.DeviceIndex)
		for i := range dev {
			dev[i] += 10
		}
	})
	if _, err := s.EnqueueD2H(buf, 0, 4, 0); err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	want := []float64{11, 12, 13, 14}
	for i := range want {
		if host[i] != want[i] {
			t.Fatalf("host[%d] = %v, want %v", i, host[i], want[i])
		}
	}
}

func TestPartialTransfers(t *testing.T) {
	c := newCtx(t, Config{ExecuteKernels: true})
	host := []float32{1, 2, 3, 4, 5, 6}
	buf := Alloc1D(c, "v", host)
	s := c.Stream(0)
	if _, err := s.EnqueueH2D(buf, 2, 2, 0); err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	dev := DeviceSlice[float32](buf, 0)
	if dev[2] != 3 || dev[3] != 4 {
		t.Fatalf("partial H2D wrong: %v", dev)
	}
	if dev[0] != 0 || dev[5] != 0 {
		t.Fatalf("partial H2D touched out-of-range elements: %v", dev)
	}
	// Mutate device, pull back only one element.
	dev[2] = 42
	dev[3] = 43
	if _, err := s.EnqueueD2H(buf, 3, 1, 0); err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	if host[3] != 43 {
		t.Fatalf("partial D2H missed: %v", host)
	}
	if host[2] != 3 {
		t.Fatalf("partial D2H overwrote out-of-range element: %v", host)
	}
}

func TestTimingOnlyModeMovesNoData(t *testing.T) {
	c := newCtx(t, Config{ExecuteKernels: false})
	host := []float64{1, 2}
	buf := Alloc1D(c, "v", host)
	s := c.Stream(0)
	ran := false
	if _, err := s.EnqueueH2D(buf, 0, 2, 0); err != nil {
		t.Fatal(err)
	}
	s.EnqueueKernel(device.KernelCost{Flops: 10}, 0, func(*KernelCtx) { ran = true })
	c.Barrier()
	if ran {
		t.Fatal("kernel body ran in timing-only mode")
	}
	dev := DeviceSlice[float64](buf, 0)
	if dev[0] != 0 {
		t.Fatal("H2D moved data in timing-only mode")
	}
}

func TestTransferValidation(t *testing.T) {
	c := newCtx(t, Config{})
	buf := AllocVirtual(c, "v", 10, 4)
	s := c.Stream(0)
	if _, err := s.EnqueueH2D(buf, 8, 4, 0); err == nil {
		t.Fatal("out-of-range transfer accepted")
	}
	if _, err := s.EnqueueD2H(buf, -1, 2, 0); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := s.EnqueueH2D(nil, 0, 0, 0); err == nil {
		t.Fatal("nil buffer accepted")
	}
}

func TestVirtualBufferPanicsOnAccess(t *testing.T) {
	c := newCtx(t, Config{})
	buf := AllocVirtual(c, "v", 10, 8)
	if buf.Bytes() != 80 {
		t.Fatalf("Bytes = %d, want 80", buf.Bytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DeviceSlice on virtual buffer did not panic")
		}
	}()
	DeviceSlice[float64](buf, 0)
}

func TestTypeMismatchPanics(t *testing.T) {
	c := newCtx(t, Config{ExecuteKernels: true})
	buf := Alloc1D(c, "v", []float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("DeviceSlice type mismatch did not panic")
		}
	}()
	DeviceSlice[float32](buf, 0)
}

func TestHostWorkAdvancesClockWithoutBlockingDevice(t *testing.T) {
	c := newCtx(t, Config{Trace: true})
	s := c.Stream(0)
	cost := device.KernelCost{Name: "k", Flops: 5e9}
	ev := s.EnqueueKernel(cost, 0, nil)
	// Host does 1 s of work while the kernel runs.
	c.HostWork(sim.Second, "host-side prep")
	if c.Now() != sim.Time(sim.Second) {
		t.Fatalf("host clock = %v, want 1s", c.Now())
	}
	// The kernel completed during the host window (it takes ≪ 1s).
	if !ev.Done() {
		t.Fatal("device did not progress during host work")
	}
	if ev.CompletedAt() >= sim.Time(sim.Second) {
		t.Fatalf("kernel completed at %v, should have finished during host window", ev.CompletedAt())
	}
}

func TestBarrierIdempotent(t *testing.T) {
	c := newCtx(t, Config{})
	s := c.Stream(0)
	ev := s.EnqueueKernel(device.KernelCost{Flops: 1e6}, 0, nil)
	t1 := c.Barrier()
	t2 := c.Barrier()
	if t1 != t2 {
		t.Fatalf("second barrier moved time: %v -> %v", t1, t2)
	}
	if !ev.Done() {
		t.Fatal("stream's last event not resolved")
	}
}

func TestWaitNilEventIsNoop(t *testing.T) {
	c := newCtx(t, Config{})
	c.Wait(nil)
	if c.Now() != 0 {
		t.Fatal("Wait(nil) advanced the clock")
	}
}

func TestEventAccessors(t *testing.T) {
	var nilEv *Event
	if nilEv.Done() {
		t.Fatal("nil event reports done")
	}
	c := newCtx(t, Config{})
	ev := c.Stream(0).EnqueueKernel(device.KernelCost{Flops: 1e6}, 0, nil)
	if ev.Done() {
		t.Fatal("event done before simulation ran")
	}
	c.Wait(ev)
	if !ev.Done() || ev.CompletedAt() <= 0 {
		t.Fatalf("event not resolved properly: done=%v at=%v", ev.Done(), ev.CompletedAt())
	}
}

func TestMultiDeviceIndependentLinks(t *testing.T) {
	c := newCtx(t, Config{Devices: 2, Trace: true})
	buf := AllocVirtual(c, "v", 1<<20, 1)
	e0, err := c.Stream(0).EnqueueH2D(buf, 0, buf.Len(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := c.Stream(1).EnqueueH2D(buf, 0, buf.Len(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	// Different devices have independent PCIe links: the transfers
	// run concurrently and finish together.
	if e0.CompletedAt() != e1.CompletedAt() {
		t.Fatalf("transfers on separate devices serialized: %v vs %v", e0.CompletedAt(), e1.CompletedAt())
	}
}

func TestTraceRecordsAllStages(t *testing.T) {
	c := newCtx(t, Config{Trace: true})
	buf := AllocVirtual(c, "v", 1<<20, 4)
	s := c.Stream(0)
	if _, err := s.EnqueueH2D(buf, 0, buf.Len(), 0); err != nil {
		t.Fatal(err)
	}
	s.EnqueueKernel(device.KernelCost{Name: "k", Flops: 1e8}, 0, nil)
	if _, err := s.EnqueueD2H(buf, 0, buf.Len(), 0); err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	rec := c.Recorder()
	if rec.BusyTime(trace.H2D) == 0 || rec.BusyTime(trace.D2H) == 0 || rec.BusyTime(trace.Kernel) == 0 {
		t.Fatal("missing stage spans in trace")
	}
	// The three stages of a single task are strictly sequential:
	// zero overlap between any pair.
	if rec.Overlap(trace.H2D, trace.Kernel) != 0 || rec.Overlap(trace.Kernel, trace.D2H) != 0 {
		t.Fatal("single-task stages overlapped")
	}
}

// At an event's resolution its OnDone callbacks and the actions that
// depend on it run in one sequence, in registration order. B and C
// share a partition, so the partition's reservations at each callback
// show which actions have already started.
func TestWaitersRunInRegistrationOrder(t *testing.T) {
	c := newCtx(t, Config{Partitions: 2, StreamsPerPartition: 2})
	cost := device.KernelCost{Name: "k", Flops: 1e9}
	part := c.Device(0).Partition(1)
	kt := part.KernelTime(cost)
	var log []int64
	a := c.Stream(0).EnqueueKernel(cost, 0, nil)
	b := c.StreamAt(0, 1, 0).EnqueueKernel(cost, 1, nil, a)
	a.OnDone(func() { log = append(log, int64(part.BusyTime()/kt)) })
	cc := c.StreamAt(0, 1, 1).EnqueueKernel(cost, 2, nil, a)
	a.OnDone(func() { log = append(log, int64(part.BusyTime()/kt)) })
	c.Drain()
	if len(log) != 2 || log[0] != 1 || log[1] != 2 {
		t.Fatalf("kernels reserved at each OnDone = %v, want [1 2] (B, f1, C, f2)", log)
	}
	if got, want := b.CompletedAt(), a.CompletedAt().Add(kt); got != want {
		t.Fatalf("B completed at %v, want %v (first on the partition)", got, want)
	}
	if got, want := cc.CompletedAt(), b.CompletedAt().Add(kt); got != want {
		t.Fatalf("C completed at %v, want %v (after B)", got, want)
	}
}

// A steady-state stream operation on an untraced context allocates
// only its share of the context's event chunks: the event carries the
// action's parameters and is itself the completion target the link or
// partition schedules — nothing per dependency, per completion or for
// spans — and events come eventSlab to a heap object.
func TestUntracedEnqueueAllocs(t *testing.T) {
	c := newCtx(t, Config{})
	s := c.Stream(0)
	buf := AllocVirtual(c, "buf", 1<<20, 1)
	cost := device.KernelCost{Name: "k", Flops: 1e6}
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"EnqueueKernel", func() { s.EnqueueKernel(cost, 0, nil) }},
		{"EnqueueH2D", func() {
			if _, err := s.EnqueueH2D(buf, 0, 1<<20, 0); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		tc.op()
		c.Drain() // warm the engine's heap
		// One measured run of ops operations crosses at most
		// ops/eventSlab+1 chunk boundaries.
		const ops = 16 * eventSlab
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < ops; i++ {
				tc.op()
				c.Drain()
			}
		})
		if allocs > ops/eventSlab+1 {
			t.Errorf("%d × (%s + Drain) allocated %.0f objects, want <= %d (one per %d operations)",
				ops, tc.name, allocs, ops/eventSlab+1, eventSlab)
		}
	}
}
