// Package hstreams reimplements the programming model of Intel's
// hStreams library (the paper's multi-stream runtime, v3.5.2) on top of
// the simulated platform: logical streams are bound to partitions
// ("places") of a partitioned coprocessor, every stream executes its
// enqueued actions in FIFO order, actions in different streams run
// concurrently subject to resource contention (the PCIe DMA engine, the
// partition's cores), and explicit events express cross-stream
// dependencies.
//
// As in hStreams, a context owns one or more devices ("domains"), each
// split into partitions; the logical stream view is what applications
// program against, while the physical mapping is handled here. The two
// deliberate simplifications relative to the C library are (1) buffers
// are typed Go slices rather than raw pointers and (2) kernels are Go
// closures invoked at their scheduled start time (the functional model)
// with an analytic device.KernelCost driving their simulated duration
// (the timing model). Timing-only runs — used for paper-scale inputs
// where functional execution in pure Go would be infeasible — skip the
// closure and the data movement but preserve every timing interaction.
package hstreams

import (
	"fmt"

	"micstream/internal/device"
	"micstream/internal/pcie"
	"micstream/internal/sim"
	"micstream/internal/trace"
)

// Config assembles a platform.
type Config struct {
	// Device is the coprocessor model; zero value means Xeon31SP.
	Device device.Config
	// Link is the PCIe model; zero value means pcie.DefaultConfig.
	Link pcie.Config
	// Devices is the number of coprocessors (domains); 0 means 1.
	Devices int
	// Partitions is the number of places each device is split into;
	// 0 means 1.
	Partitions int
	// StreamsPerPartition is the number of logical streams bound to
	// each place; 0 means 1. Streams sharing a place contend for it.
	StreamsPerPartition int
	// ExecuteKernels enables the functional model: kernel closures
	// run and buffer transfers move real data. Disable for
	// paper-scale timing-only experiments.
	ExecuteKernels bool
	// Trace keeps the full span log, for readers of the spans
	// themselves: Gantt charts (cmd/micgantt, the Platform facade)
	// and Cluster.Trace. It implies Stages.
	Trace bool
	// Stages records per-class busy intervals for core.Summarize,
	// without the span log (trace.NewStageRecorder). With neither
	// field set, nothing is recorded and Recorder returns nil.
	Stages bool
}

func (c Config) withDefaults() Config {
	if c.Device.Cores == 0 {
		c.Device = device.Xeon31SP()
	}
	if c.Link.BandwidthBps == 0 {
		c.Link = pcie.DefaultConfig()
	}
	if c.Devices == 0 {
		c.Devices = 1
	}
	if c.Partitions == 0 {
		c.Partitions = 1
	}
	if c.StreamsPerPartition == 0 {
		c.StreamsPerPartition = 1
	}
	return c
}

// validate reports why a defaulted configuration cannot be built, or
// nil.
func (c Config) validate() error {
	if c.Devices < 0 {
		return fmt.Errorf("hstreams: negative device count %d", c.Devices)
	}
	if c.StreamsPerPartition < 1 {
		return fmt.Errorf("hstreams: streams per partition %d < 1", c.StreamsPerPartition)
	}
	if err := c.Device.Validate(); err != nil {
		return err
	}
	if err := c.Device.CheckPartitions(c.Partitions); err != nil {
		return err
	}
	return c.Link.Validate()
}

// Context is an initialized platform: the hStreams "app context".
type Context struct {
	cfg     Config
	eng     *sim.Engine
	rec     *trace.Recorder
	devs    []*device.Device
	links   []*pcie.Link
	streams []Stream
	// free holds the events handed back by Recycle, and events is the
	// unused tail of the current event chunk; see newEvent.
	free   []*Event
	events []Event
	// waiters holds the nodes of the events' waiter lists past each
	// event's inline first waiter; node 0 is never used, so index 0
	// ends a list. freeWaiter heads the list of vacant nodes.
	waiters    []waiter
	freeWaiter int32
}

// waiter is one node of an event's waiter list.
type waiter struct {
	h    sim.Handler
	next int32
}

// eventSlab is the number of events a context allocates at once.
const eventSlab = 64

// newEvent hands out a zeroed event: the most recently recycled one if
// any, else the next slot of the context's current chunk, allocating a
// chunk of eventSlab events when it runs out. A caller that recycles
// each phase's events (core.Phase does) therefore allocates chunks
// only while a phase is larger than every phase before it, and a
// caller that never recycles pays a sixty-fourth of a heap object per
// stream operation. Reset keeps the free list and the chunk tail, so a
// sweep of runs on one context, each recycling its events, carves
// chunks only for its largest run. A chunk stays live while any of its
// events is referenced or waits on a free list.
func (c *Context) newEvent() *Event {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free = c.free[:n-1]
		*e = Event{}
		return e
	}
	if len(c.events) == 0 {
		c.events = make([]Event, eventSlab)
	}
	e := &c.events[0]
	c.events = c.events[1:]
	return e
}

// newWaiter stores h in a vacant waiter node and returns its index.
func (c *Context) newWaiter(h sim.Handler) int32 {
	if i := c.freeWaiter; i != 0 {
		c.freeWaiter = c.waiters[i].next
		c.waiters[i] = waiter{h: h}
		return i
	}
	if len(c.waiters) == 0 {
		c.waiters = append(c.waiters, waiter{})
	}
	c.waiters = append(c.waiters, waiter{h: h})
	return int32(len(c.waiters) - 1)
}

// Recycle hands the resolved events of evs back to the context, which
// reuses them for later enqueues; unresolved events are skipped and
// never reused. evs must come from this context and hold no event
// twice, and the caller must drop every reference to the resolved ones:
// a recycled event may become any later action, so reading it or
// gating on it afterwards sees that action instead. An event that is
// still running its waiters counts as resolved, so an OnDone callback
// may recycle the event that invoked it. A stream whose last event is
// recycled forgets it, since a resolved event gates nothing, and its
// Last reads nil until its next enqueue.
func (c *Context) Recycle(evs []*Event) {
	for _, e := range evs {
		if !e.done {
			continue
		}
		if e.s.last == e {
			e.s.last = nil
		}
		// A recycled event keeps no stream, so the free list, which
		// Reset keeps, pins no stream of an earlier shape.
		e.s = nil
		c.free = append(c.free, e)
	}
}

// Init builds the platform: Devices coprocessors, each partitioned into
// Partitions places with StreamsPerPartition streams per place —
// the analogue of hStreams_app_init(places, streams_per_place).
func Init(cfg Config) (*Context, error) {
	c := new(Context)
	if err := c.Reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebuilds the context in place as Init(cfg) would, so one
// context serves run after run. It validates cfg first, so a failed
// Reset returns Init's error and changes nothing. It keeps the engine's
// heap and slots, the event free list and chunk tail, the waiter nodes
// (cleared), and the recorder (reset) if its kind is unchanged; while
// the recorder, device and link configurations are unchanged, it keeps
// the devices and links too, idle and repartitioned, each device
// reusing the partitions of its earlier splits. Nothing of the previous
// run may be used after Reset: not its streams, events, buffers or
// spans. Its pending events are dropped undelivered, and only events
// handed back by Recycle are reused.
func (c *Context) Reset(cfg Config) error {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	if c.eng == nil {
		c.eng = sim.NewEngine()
	}
	c.eng.Reset()
	rec := recorderFor(c.rec, cfg)
	if rec != c.rec || cfg.Device != c.cfg.Device || cfg.Link != c.cfg.Link {
		c.devs, c.links, c.rec = c.devs[:0], c.links[:0], rec
	}
	kept := min(len(c.devs), cfg.Devices) // devs and links have one length
	c.devs, c.links = c.devs[:kept], c.links[:kept]
	// cfg is valid, so neither building nor repartitioning can fail.
	for i := len(c.devs); i < cfg.Devices; i++ {
		name := fmt.Sprintf("mic%d", i)
		dev, _ := device.New(c.eng, cfg.Device, name, c.rec)
		link, _ := pcie.NewLink(c.eng, cfg.Link, name, c.rec)
		c.devs, c.links = append(c.devs, dev), append(c.links, link)
	}
	for i, dev := range c.devs {
		_ = dev.SetPartitions(cfg.Partitions)
		c.links[i].Reset()
	}
	perDev := cfg.Partitions * cfg.StreamsPerPartition
	if n := cfg.Devices * perDev; cap(c.streams) < n {
		c.streams = make([]Stream, n)
	} else {
		c.streams = c.streams[:n]
	}
	for id := range c.streams {
		i, part := id/perDev, id%perDev/cfg.StreamsPerPartition
		c.streams[id] = Stream{ctx: c, id: id, devIdx: i, part: c.devs[i].Partition(part), link: c.links[i]}
	}
	clear(c.waiters)
	c.waiters, c.freeWaiter = c.waiters[:0], 0
	c.cfg = cfg
	return nil
}

// recorderFor returns an empty recorder of the kind cfg asks for — full
// with Trace, stage-only with Stages, else none: rec itself, reset, if
// it is of that kind. Reset comes first because a stopped full
// recorder keeps no spans until it is reset.
func recorderFor(rec *trace.Recorder, cfg Config) *trace.Recorder {
	if !cfg.Trace && !cfg.Stages {
		return nil
	}
	if rec != nil {
		rec.Reset()
		if rec.KeepsSpans() == cfg.Trace {
			return rec
		}
	}
	if cfg.Trace {
		return trace.NewRecorder()
	}
	return trace.NewStageRecorder()
}

// Config returns the effective (defaulted) configuration.
func (c *Context) Config() Config { return c.cfg }

// Engine exposes the underlying simulation engine.
func (c *Context) Engine() *sim.Engine { return c.eng }

// Recorder returns the trace recorder, or nil when neither Trace nor
// Stages is set.
func (c *Context) Recorder() *trace.Recorder { return c.rec }

// Now reports the current virtual time (host clock).
func (c *Context) Now() sim.Time { return c.eng.Now() }

// NumDevices reports the number of coprocessors.
func (c *Context) NumDevices() int { return len(c.devs) }

// Device returns coprocessor i.
func (c *Context) Device(i int) *device.Device { return c.devs[i] }

// Link returns the PCIe link of coprocessor i.
func (c *Context) Link(i int) *pcie.Link { return c.links[i] }

// NumStreams reports the total logical stream count across devices.
func (c *Context) NumStreams() int { return len(c.streams) }

// Stream returns logical stream i. Streams are enumerated device-major
// then partition-major, so stream 0 is (device 0, partition 0).
func (c *Context) Stream(i int) *Stream { return &c.streams[i] }

// StreamAt returns the k-th stream bound to (device dev, partition p).
func (c *Context) StreamAt(dev, p, k int) *Stream {
	base := dev*c.cfg.Partitions*c.cfg.StreamsPerPartition + p*c.cfg.StreamsPerPartition
	return &c.streams[base+k]
}

// HostWork advances the host clock by d, modeling CPU-side computation
// between synchronization points (device work already scheduled keeps
// running during the window).
func (c *Context) HostWork(d sim.Duration, label string) {
	start := c.eng.Now()
	c.eng.Advance(d)
	c.rec.Add(trace.Span{
		Resource: "host",
		Stream:   -1,
		Task:     -1,
		Kind:     trace.Host,
		Label:    label,
		Start:    start,
		End:      c.eng.Now(),
	})
}

// Wait blocks the host until ev completes, advancing virtual time.
func (c *Context) Wait(ev *Event) {
	if ev == nil {
		return
	}
	c.eng.RunUntil(func() bool { return ev.done })
}

// Barrier synchronizes the host with every stream (the analogue of
// hStreams_app_thread_sync) and returns the virtual time afterwards.
func (c *Context) Barrier() sim.Time {
	for i := range c.streams {
		c.Wait(c.streams[i].last)
	}
	return c.eng.Now()
}

// Drain runs the simulation until no scheduled events remain.
func (c *Context) Drain() sim.Time {
	c.eng.Run()
	return c.eng.Now()
}

// Stream is one logical FIFO pipeline bound to a partition.
type Stream struct {
	ctx    *Context
	id     int
	devIdx int
	part   *device.Partition
	link   *pcie.Link
	last   *Event
}

// ID reports the stream's context-wide index.
func (s *Stream) ID() int { return s.id }

// DeviceIndex reports which coprocessor the stream is bound to.
func (s *Stream) DeviceIndex() int { return s.devIdx }

// Partition reports the place the stream is bound to.
func (s *Stream) Partition() *device.Partition { return s.part }

// Sync blocks the host until everything enqueued on the stream so far
// has completed (hStreams_app_stream_sync).
func (s *Stream) Sync() { s.ctx.Wait(s.last) }

// Event marks the completion of one enqueued action. Events resolve at
// a definite virtual time and can gate actions in other streams.
//
// An event is also the action itself: it carries the action's
// parameters, the count of unresolved predecessors, and the list of
// waiters to run at its resolution, and it is the completion target the
// simulation fires. The waiter list keeps no slice of its own: past
// the inline first waiter, its nodes live in the context's waiter
// array, so a resolved event holds nothing to drop and an event costs
// 128 B however many waiters it has had. An untraced enqueue therefore
// allocates nothing but its share of the context's event chunk, and
// nothing at all when it reuses a recycled event (Context.Recycle,
// DESIGN.md §4).
type Event struct {
	done bool
	kind actionKind
	dir  pcie.Direction
	at   sim.Time

	// w0 is the first waiter, held inline because almost every event
	// has at most one successor; head and tail index the rest, in
	// registration order, in the context's waiter nodes (0: none).
	w0         sim.Handler
	head, tail int32

	s       *Stream
	pending int
	task    int

	// Transfer parameters: elements [off, off+n) of buf.
	buf    *Buffer
	off, n int
	// Kernel parameters: the kernel priced on the stream's partition at
	// enqueue (a third of a KernelCost's size) and its body.
	inv  device.Invocation
	body func(*KernelCtx)
}

// actionKind distinguishes the two action types an event can carry.
type actionKind uint8

const (
	xferAction actionKind = iota
	kernelAction
)

// completion is an event in its role as the simulation's completion
// target: the link or partition fires it at the action's end instant.
type completion Event

// Fire implements sim.Handler: it lands a functional transfer's data and
// resolves the event.
func (c *completion) Fire() {
	e := (*Event)(c)
	ctx := e.s.ctx
	if e.kind == xferAction && ctx.cfg.ExecuteKernels {
		e.buf.move(e.s.devIdx, e.off, e.n, e.dir == pcie.H2D)
	}
	e.resolve(ctx.eng.Now())
}

// successor is an event in its role as a waiter on one of its action's
// predecessors.
type successor Event

// Fire implements sim.Handler: one predecessor of the event's action
// has resolved.
func (w *successor) Fire() { (*Event)(w).predecessorDone() }

// Done reports whether the event has completed.
func (e *Event) Done() bool { return e != nil && e.done }

// CompletedAt reports the completion time; valid only once Done.
func (e *Event) CompletedAt() sim.Time { return e.at }

// resolve marks the event complete and runs its waiters — OnDone
// callbacks and dependent actions alike — in exact registration order.
// It detaches the list before firing anything and then reads only the
// nodes, each of which it frees before firing its waiter, so a waiter
// may recycle and refill the event, or register waiters anywhere,
// without touching the rest of the list.
func (e *Event) resolve(at sim.Time) {
	e.done = true
	e.at = at
	e.buf, e.body = nil, nil
	c := e.s.ctx
	w0, i := e.w0, e.head
	e.w0, e.head, e.tail = nil, 0, 0
	if w0 != nil {
		w0.Fire()
	}
	for i != 0 {
		n := &c.waiters[i]
		h, next := n.h, n.next
		*n = waiter{next: c.freeWaiter}
		c.freeWaiter = i
		h.Fire()
		i = next
	}
}

// wait appends h to the event's waiter list.
func (e *Event) wait(h sim.Handler) {
	if e.w0 == nil {
		e.w0 = h
		return
	}
	c := e.s.ctx
	i := c.newWaiter(h)
	if e.tail == 0 {
		e.head = i
	} else {
		c.waiters[e.tail].next = i
	}
	e.tail = i
}

// after registers d as a predecessor of e's action when d is still
// unresolved.
func (e *Event) after(d *Event) {
	if d == nil || d.done {
		return
	}
	e.pending++
	d.wait((*successor)(e))
}

// predecessorDone counts one predecessor of e's action as resolved and
// starts the action when none remain.
func (e *Event) predecessorDone() {
	e.pending--
	if e.pending == 0 {
		e.start(e.s.ctx.eng.Now())
	}
}

// start books the action on its resource, eligible at ready; the event
// itself is the completion target.
func (e *Event) start(ready sim.Time) {
	s := e.s
	if e.kind == xferAction {
		bytes := int64(e.n) * int64(e.buf.elemSize)
		s.link.Transfer(e.dir, bytes, ready, s.id, e.task, (*completion)(e))
		return
	}
	var fn func()
	if e.body != nil && s.ctx.cfg.ExecuteKernels {
		body, task := e.body, e.task
		fn = func() {
			body(&KernelCtx{Ctx: s.ctx, DeviceIndex: s.devIdx, Stream: s, Task: task})
		}
	}
	s.part.Launch(ready, e.inv, s.id, e.task, fn, (*completion)(e))
}

// OnDone registers fn to run at the event's resolution instant (or
// immediately when already resolved). Callbacks run in registration
// order inside the simulation's event dispatch, so they observe the
// completion time as Context.Now() and may enqueue further work — this
// is the hook the online scheduler (internal/sched) uses to make
// dispatch decisions at job-completion instants. Registering allocates
// nothing once the context's waiter nodes have grown to its largest
// list.
func (e *Event) OnDone(fn func()) {
	if e == nil || e.done {
		fn()
		return
	}
	e.wait(sim.Func(fn))
}

// enqueue appends the action ev describes to the stream: it becomes
// ready when the stream's previous action and all explicit deps have
// completed, and then starts on its resource.
func (s *Stream) enqueue(ev *Event, deps []*Event) *Event {
	ev.s = s
	ev.after(s.last)
	for _, d := range deps {
		ev.after(d)
	}
	s.last = ev
	if ev.pending == 0 {
		ev.start(s.ctx.eng.Now())
	}
	return ev
}

// EnqueueH2D asynchronously moves elements [off, off+n) of b from host
// to the stream's device (hStreams_app_xfer_memory HSTR_SRC_TO_SINK).
// task annotates the trace; deps gate the transfer on other events.
func (s *Stream) EnqueueH2D(b *Buffer, off, n int, task int, deps ...*Event) (*Event, error) {
	return s.enqueueXfer(pcie.H2D, b, off, n, task, deps)
}

// EnqueueD2H asynchronously moves elements [off, off+n) of b from the
// stream's device to the host (HSTR_SINK_TO_SRC).
func (s *Stream) EnqueueD2H(b *Buffer, off, n int, task int, deps ...*Event) (*Event, error) {
	return s.enqueueXfer(pcie.D2H, b, off, n, task, deps)
}

func (s *Stream) enqueueXfer(dir pcie.Direction, b *Buffer, off, n, task int, deps []*Event) (*Event, error) {
	if b == nil {
		return nil, fmt.Errorf("hstreams: transfer on nil buffer")
	}
	if off < 0 || n < 0 || off+n > b.elems {
		return nil, fmt.Errorf("hstreams: transfer range [%d,%d) out of buffer %q (%d elements)", off, off+n, b.name, b.elems)
	}
	ev := s.ctx.newEvent()
	ev.kind, ev.dir, ev.task, ev.buf, ev.off, ev.n = xferAction, dir, task, b, off, n
	return s.enqueue(ev, deps), nil
}

// KernelCtx is passed to kernel closures in the functional model.
type KernelCtx struct {
	// Ctx is the owning context.
	Ctx *Context
	// DeviceIndex identifies the device the kernel runs on, for
	// DeviceSlice lookups.
	DeviceIndex int
	// Stream is the stream executing the kernel.
	Stream *Stream
	// Task is the application task id.
	Task int
}

// EnqueueKernel asynchronously launches a kernel on the stream's
// partition (hStreams_app_invoke). cost drives the timing model; body
// (optional) is the functional implementation, invoked at the kernel's
// scheduled start when the context executes kernels.
func (s *Stream) EnqueueKernel(cost device.KernelCost, task int, body func(*KernelCtx), deps ...*Event) *Event {
	ev := s.ctx.newEvent()
	ev.kind, ev.task, ev.inv, ev.body = kernelAction, task, s.part.Price(&cost), body
	return s.enqueue(ev, deps)
}
