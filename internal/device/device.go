// Package device models the coprocessor side of the reproduced
// platform: an Intel Xeon Phi 31SP-like many-core device that can be
// partitioned into groups of cores, with each partition executing the
// kernels of the streams bound to it.
//
// The model is the substitution for real MIC silicon (see DESIGN.md §2)
// and deliberately encodes, as explicit terms, every effect the paper
// attributes to the hardware:
//
//   - 57 cores × 4 hardware threads, one core reserved for the uOS,
//     leaving 56 cores / 224 usable threads (§V-B-1);
//   - partitioning at thread granularity, so partition counts that do
//     not divide 56 split a physical core's 4 threads across two
//     partitions and suffer shared-core contention — the reason the
//     paper recommends P ∈ {2,4,7,8,14,28,56} (Fig. 9a/9b);
//   - a roofline kernel-duration model max(compute, memory) with a
//     per-thread parallel-efficiency saturation term, so that tiny
//     tasks spread over many threads run poorly (left edge of Fig. 7,
//     right edge of Fig. 10);
//   - per-launch fixed overhead plus management overhead growing with
//     the number of partitions (right edge of Fig. 7);
//   - per-launch temporary-memory allocation cost proportional to the
//     partition's thread count — the effect behind Kmeans' monotone
//     improvement with the number of partitions (Fig. 9c);
//   - an L2-locality bonus for cache-sensitive kernels on partitions
//     spanning few cores — the Hotspot dip at P ∈ [33,37] (Fig. 9d).
package device

import (
	"fmt"

	"micstream/internal/sim"
	"micstream/internal/trace"
)

// Config describes a coprocessor. All timing constants are model
// parameters calibrated in this package's tests against the absolute
// numbers the paper reports.
type Config struct {
	// Name labels the device type in diagnostics.
	Name string
	// Cores is the number of physical cores, including reserved ones.
	Cores int
	// ReservedCores is the number of cores held back for the device
	// OS (the paper's uOS occupies one of the 31SP's 57 cores).
	ReservedCores int
	// ThreadsPerCore is the number of hardware threads per core.
	ThreadsPerCore int
	// ClockHz is the core clock.
	ClockHz float64
	// FlopsPerCyclePerThread is the peak floating-point throughput of
	// one hardware thread in flops/cycle, amortizing the vector unit
	// across the core's threads.
	FlopsPerCyclePerThread float64
	// MemBandwidthBps is the aggregate device-memory bandwidth,
	// shared by partitions in proportion to their thread count.
	MemBandwidthBps float64
	// L2PerCoreBytes is the per-core L2 capacity (locality model).
	L2PerCoreBytes int64
	// KernelLaunchNs is the fixed cost of one kernel launch on a
	// partition (offload descriptor, thread wakeup).
	KernelLaunchNs int64
	// StreamMgmtNsPerPartition is the additional per-launch runtime
	// bookkeeping cost paid for every active partition: more streams
	// mean more management overhead (§IV-B).
	StreamMgmtNsPerPartition int64
	// HalfWorkFlopsPerThread is the parallel-efficiency half-point:
	// a thread reaches 50% efficiency when its share of a kernel's
	// flops equals this value (vector-machine n½ analogue).
	HalfWorkFlopsPerThread float64
	// AllocNsPerByte is the cost of allocating one byte of temporary
	// device memory at kernel launch, charged per thread.
	AllocNsPerByte float64
	// ContentionPenalty multiplies the compute-bound portion of a
	// kernel when the partition shares a physical core with a
	// neighbouring partition (≥ 1).
	ContentionPenalty float64
	// CacheAffinityBonus is the maximum speedup of the memory-bound
	// portion for cache-sensitive kernels running on a partition
	// concentrated on few cores (≥ 0; 0 disables the effect).
	CacheAffinityBonus float64
}

// Xeon31SP returns the model of the paper's coprocessor: Intel Xeon Phi
// 31SP, 57 cores at 1.1 GHz, 4 threads/core, one core reserved.
// Timing constants are calibrated against §IV (see device tests).
func Xeon31SP() Config {
	return Config{
		Name:                     "Xeon Phi 31SP",
		Cores:                    57,
		ReservedCores:            1,
		ThreadsPerCore:           4,
		ClockHz:                  1.1e9,
		FlopsPerCyclePerThread:   4.0, // 1.1 GHz × 4 = 4.4 GFLOPS/thread, 985 GFLOPS device peak
		MemBandwidthBps:          160e9,
		L2PerCoreBytes:           512 << 10,
		KernelLaunchNs:           25_000,
		StreamMgmtNsPerPartition: 900,
		HalfWorkFlopsPerThread:   5_000,
		AllocNsPerByte:           0.22,
		ContentionPenalty:        1.35,
		CacheAffinityBonus:       0.35,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("device: cores must be positive, got %d", c.Cores)
	case c.ReservedCores < 0 || c.ReservedCores >= c.Cores:
		return fmt.Errorf("device: reserved cores %d out of range [0,%d)", c.ReservedCores, c.Cores)
	case c.ThreadsPerCore <= 0:
		return fmt.Errorf("device: threads/core must be positive, got %d", c.ThreadsPerCore)
	case c.ClockHz <= 0:
		return fmt.Errorf("device: clock must be positive")
	case c.FlopsPerCyclePerThread <= 0:
		return fmt.Errorf("device: flops/cycle must be positive")
	case c.MemBandwidthBps <= 0:
		return fmt.Errorf("device: memory bandwidth must be positive")
	case c.ContentionPenalty < 1:
		return fmt.Errorf("device: contention penalty must be ≥ 1, got %g", c.ContentionPenalty)
	case c.CacheAffinityBonus < 0:
		return fmt.Errorf("device: cache affinity bonus must be ≥ 0")
	}
	return nil
}

// UsableCores reports cores available to kernels (total minus reserved).
func (c Config) UsableCores() int { return c.Cores - c.ReservedCores }

// TotalThreads reports the usable hardware thread count (224 on 31SP).
func (c Config) TotalThreads() int { return c.UsableCores() * c.ThreadsPerCore }

// PerThreadFlops reports the peak flops/second of one hardware thread.
func (c Config) PerThreadFlops() float64 { return c.ClockHz * c.FlopsPerCyclePerThread }

// PeakFlops reports the device's aggregate peak flops/second.
func (c Config) PeakFlops() float64 {
	return c.PerThreadFlops() * float64(c.TotalThreads())
}

// KernelCost describes one kernel invocation to the timing model.
// Application packages construct these from their analytic operation
// counts (e.g. 2·n³ flops for an n×n×n matrix-multiply tile).
type KernelCost struct {
	// Name labels the kernel in traces.
	Name string
	// Flops is the useful floating-point work of the invocation.
	Flops float64
	// Bytes is the device-memory traffic of the invocation.
	Bytes float64
	// SerialNs is non-parallelizable time inside the kernel
	// (e.g. a master thread merging per-thread partials).
	SerialNs int64
	// AllocBytesPerThread is temporary memory allocated (and freed)
	// per thread at every launch; the paper identifies this as the
	// dominant overhead in Kmeans (§V-B-1).
	AllocBytesPerThread int64
	// WorkingSetBytes is the memory the kernel re-touches; used by
	// the L2-locality model for cache-sensitive kernels.
	WorkingSetBytes int64
	// CacheSensitive marks stencil-like kernels whose memory-bound
	// portion benefits from partitions concentrated on few cores.
	CacheSensitive bool
	// FitBonus is the maximum speedup of the memory-bound portion
	// when WorkingSetBytes fits in the partition's aggregate L2 —
	// for kernels that re-read a tile across phases of the same
	// iteration (SRAD's two stencil passes). 0 disables the effect.
	FitBonus float64
	// Efficiency is the kernel's arithmetic efficiency relative to
	// peak (vectorization quality, instruction mix); (0,1], with 0
	// treated as 1.
	Efficiency float64
	// ScalingPenalty models synchronization and ring-interconnect
	// contention that grows with the number of threads a single
	// kernel spans: the compute-bound portion is multiplied by
	// 1 + ScalingPenalty·(t-1)/TotalThreads. Compute-bound kernels
	// with frequent barriers (GEMM, factorizations) set this; it is
	// why four 56-thread tiles outrun one 224-thread kernel even
	// without any transfer overlap (part of the paper's §V-A gains).
	ScalingPenalty float64
}

// Device is a partitioned coprocessor instance bound to an engine.
type Device struct {
	cfg   Config
	eng   *sim.Engine
	rec   *trace.Recorder
	name  string
	parts []*Partition
	// pool holds every partition built so far, parts being its
	// prefix; see SetPartitions.
	pool []*Partition
}

// New builds a device with a single partition covering every usable
// thread. name scopes trace resources (e.g. "mic0").
func New(eng *sim.Engine, cfg Config, name string, rec *trace.Recorder) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg, eng: eng, rec: rec, name: name}
	if err := d.SetPartitions(1); err != nil {
		return nil, err
	}
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Name returns the device instance name.
func (d *Device) Name() string { return d.name }

// PartitionShape is the geometry of one partition of an n-way split:
// everything the timing model needs to know about where the partition's
// threads sit on the die. It is a pure description — analytic layers
// (internal/model) evaluate kernel times on shapes without building a
// Device.
type PartitionShape struct {
	// FirstThread is the partition's first global thread index.
	FirstThread int
	// Threads is the partition's hardware thread count.
	Threads int
	// CoresSpanned is how many physical cores hold any of the
	// partition's threads.
	CoresSpanned int
	// SharesCore reports whether a boundary of the thread range
	// splits a physical core with a neighbouring partition.
	SharesCore bool
}

// PartitionLayout divides the usable hardware threads contiguously into
// n partitions and returns their shapes: base threads each, with the
// remainder spread over the leading partitions (mirroring hStreams'
// even places). It returns nil when n is out of [1, TotalThreads].
func (c Config) PartitionLayout(n int) []PartitionShape {
	if c.CheckPartitions(n) != nil {
		return nil
	}
	shapes := make([]PartitionShape, n)
	for i := range shapes {
		shapes[i] = c.partitionShape(n, i)
	}
	return shapes
}

// CheckPartitions reports whether n partitions fit the device: at least
// one, and no more than one per usable hardware thread.
func (c Config) CheckPartitions(n int) error {
	if total := c.TotalThreads(); n < 1 || n > total {
		return fmt.Errorf("device: partition count %d out of range [1,%d]", n, total)
	}
	return nil
}

// partitionShape is the shape of partition i of PartitionLayout(n).
func (c *Config) partitionShape(n, i int) PartitionShape {
	total := (c.Cores - c.ReservedCores) * c.ThreadsPerCore
	base, rem := total/n, total%n
	first, threads := i*base+min(i, rem), base
	if i < rem {
		threads++
	}
	return PartitionShape{
		FirstThread:  first,
		Threads:      threads,
		CoresSpanned: coresSpanned(first, threads, c.ThreadsPerCore),
		SharesCore:   sharesCore(first, threads, c.ThreadsPerCore, total),
	}
}

// SetPartitions divides the usable hardware threads contiguously into n
// partitions following PartitionLayout, each starting idle.
// Re-partitioning discards the previous partitions' state; callers must
// not hold kernels in flight across a repartition. The device keeps
// every partition it has built, with its server and name, and reuses
// it at the same index, so a split into no more partitions than an
// earlier one allocates nothing.
func (d *Device) SetPartitions(n int) error {
	if err := d.cfg.CheckPartitions(n); err != nil {
		return err
	}
	for i := len(d.pool); i < n; i++ {
		srv := sim.NewServer(d.eng, fmt.Sprintf("%s/part%d", d.name, i))
		d.pool = append(d.pool, &Partition{dev: d, idx: i, srv: srv})
	}
	d.parts = d.pool[:n:n]
	for i, p := range d.parts {
		p.shape = d.cfg.partitionShape(n, i)
		p.srv.Reset()
	}
	return nil
}

// coresSpanned counts how many physical cores hold any of the
// partition's threads.
func coresSpanned(first, threads, tpc int) int {
	if threads <= 0 {
		return 0
	}
	lo := first / tpc
	hi := (first + threads - 1) / tpc
	return hi - lo + 1
}

// sharesCore reports whether either boundary of the partition's thread
// range splits a physical core shared with a neighbouring partition.
func sharesCore(first, threads, tpc, total int) bool {
	lo, hi := first, first+threads
	if lo%tpc != 0 {
		return true
	}
	if hi != total && hi%tpc != 0 {
		return true
	}
	return false
}

// Partitions returns the current partitions in index order.
func (d *Device) Partitions() []*Partition { return d.parts }

// NumPartitions reports the current partition count.
func (d *Device) NumPartitions() int { return len(d.parts) }

// Partition returns partition i.
func (d *Device) Partition(i int) *Partition { return d.parts[i] }

// Partition is one group of hardware threads executing kernels
// serially. Streams bound to the same partition contend for it.
type Partition struct {
	dev   *Device
	idx   int
	shape PartitionShape
	srv   *sim.Server
}

// Index reports the partition's position on its device.
func (p *Partition) Index() int { return p.idx }

// Threads reports the partition's hardware thread count.
func (p *Partition) Threads() int { return p.shape.Threads }

// CoresSpanned reports how many physical cores the partition touches.
func (p *Partition) CoresSpanned() int { return p.shape.CoresSpanned }

// SharesCore reports whether the partition splits a physical core with
// a neighbour — the condition behind the paper's divisor-of-56 rule.
func (p *Partition) SharesCore() bool { return p.shape.SharesCore }

// Device returns the partition's device.
func (p *Partition) Device() *Device { return p.dev }

// BusyTime reports the partition's cumulative kernel occupancy.
func (p *Partition) BusyTime() sim.Duration { return p.srv.Busy() }

// FreeAt reports when the partition next becomes idle.
func (p *Partition) FreeAt() sim.Time { return p.srv.FreeAt() }

// KernelTime evaluates the timing model for one invocation of cost c on
// this partition, independent of queueing.
func (p *Partition) KernelTime(c KernelCost) sim.Duration { return p.Price(&c).Dur }

// AllocTime reports the per-launch temporary-allocation cost of c on
// this partition (part of KernelTime; exposed for analysis).
func (p *Partition) AllocTime(c KernelCost) sim.Duration { return p.Price(&c).Alloc }

// KernelTimeOn evaluates the timing model for one invocation of cost c
// on a partition of the given shape, with partitions active partitions
// on the device. This is the simulator's closed-form kernel equation
// (DESIGN.md §2) exposed as a pure function so the analytic performance
// model predicts with exactly the terms the simulation charges.
func (cfg *Config) KernelTimeOn(c *KernelCost, shape *PartitionShape, partitions int) sim.Duration {
	dur, _ := price(cfg, c, shape, partitions)
	return dur
}

// AllocTimeOn is the pure form of AllocTime: the per-launch
// temporary-allocation cost of c on a partition of threads threads.
func (cfg *Config) AllocTimeOn(c *KernelCost, threads int) sim.Duration {
	if c.AllocBytesPerThread <= 0 {
		return 0
	}
	ns := float64(c.AllocBytesPerThread) * float64(threads) * cfg.AllocNsPerByte
	return sim.DurationOf(ns / 1e9)
}

// price is the closed form behind every kernel price: the duration of
// one invocation of c on a partition of the given shape, with
// partitions active partitions on the device, and the per-launch
// temporary-allocation cost included in it. It reads its arguments in
// place, so pricing a kernel copies neither the configuration nor the
// cost.
func price(cfg *Config, c *KernelCost, shape *PartitionShape, partitions int) (dur, alloc sim.Duration) {
	// The device totals are spelled out from cfg's fields: calling
	// Config's value-receiver helpers through the pointer copies the
	// whole Config per call.
	usable := cfg.Cores - cfg.ReservedCores
	total := float64(usable * cfg.ThreadsPerCore)
	t := float64(shape.Threads)

	eff := c.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}

	// Parallel efficiency: a thread's share of the work against the
	// fork/join and scheduling quantum it must amortize.
	parEff := 1.0
	if c.Flops > 0 && cfg.HalfWorkFlopsPerThread > 0 {
		perThread := c.Flops / t
		parEff = perThread / (perThread + cfg.HalfWorkFlopsPerThread)
	}

	computeSec := 0.0
	if c.Flops > 0 {
		computeSec = c.Flops / (t * parEff * (cfg.ClockHz * cfg.FlopsPerCyclePerThread) * eff)
		if c.ScalingPenalty > 0 {
			computeSec *= 1 + c.ScalingPenalty*(t-1)/total
		}
	}

	// Memory-bound term: bandwidth share is proportional to threads;
	// cache-sensitive kernels recover locality when concentrated on
	// few cores (the partition's slice of the data stays resident in
	// the L2s it owns instead of being diluted across the ring).
	memSec := 0.0
	if c.Bytes > 0 {
		share := cfg.MemBandwidthBps * t / total
		locality := 1.0
		if c.CacheSensitive && cfg.CacheAffinityBonus > 0 && usable > 1 {
			concentration := 1 - float64(shape.CoresSpanned-1)/float64(usable-1)
			locality = 1 + cfg.CacheAffinityBonus*concentration
		}
		if c.FitBonus > 0 && c.WorkingSetBytes > 0 && cfg.L2PerCoreBytes > 0 {
			l2 := float64(shape.CoresSpanned) * float64(cfg.L2PerCoreBytes)
			fit := l2 / float64(c.WorkingSetBytes)
			if fit > 1 {
				fit = 1
			}
			locality *= 1 + c.FitBonus*fit
		}
		memSec = c.Bytes / (share * locality)
	}

	body := computeSec
	if memSec > body {
		body = memSec
	}
	// Shared-core contention slows execution-unit-bound kernels; a
	// memory-bound kernel's stalled threads barely notice a core
	// neighbour, so the penalty applies to compute-dominated bodies.
	if shape.SharesCore && computeSec >= memSec {
		body *= cfg.ContentionPenalty
	}

	alloc = cfg.AllocTimeOn(c, shape.Threads)
	dur = sim.Duration(cfg.KernelLaunchNs) +
		sim.Duration(cfg.StreamMgmtNsPerPartition)*sim.Duration(partitions) +
		sim.Duration(c.SerialNs) +
		alloc +
		sim.DurationOf(body)
	return dur, alloc
}

// Invocation is one kernel launch priced on a partition: the part of a
// KernelCost that scheduling and tracing need once the timing model has
// run. It is about a third of a KernelCost's size, which is why the
// streams runtime prices a kernel at enqueue and keeps only this.
type Invocation struct {
	// Name labels the kernel in traces.
	Name string
	// Dur is the invocation's KernelTime.
	Dur sim.Duration
	// Alloc is its AllocTime, the leading share of Dur.
	Alloc sim.Duration
}

// Price evaluates the timing model once for one invocation of cost c on
// the partition. Pricing depends on the partition count, so an
// invocation priced before a repartition must not launch after it.
func (p *Partition) Price(c *KernelCost) Invocation {
	dur, alloc := price(&p.dev.cfg, c, &p.shape, len(p.dev.parts))
	return Invocation{Name: c.Name, Dur: dur, Alloc: alloc}
}

// Launch schedules the invocation inv, priced on this partition by
// Price, eligible at ready. The partition serves launches in ready
// order. body, if non-nil, executes at the invocation's start time (the
// functional model: real Go code operating on device buffers). done,
// if non-nil, fires at completion. The stream and task ids annotate the
// trace.
func (p *Partition) Launch(ready sim.Time, inv Invocation, stream, task int, body func(), done sim.Handler) (start, end sim.Time) {
	start, end = p.srv.Reserve(ready, inv.Dur, done)
	if body != nil {
		p.dev.eng.At(start, body)
	}
	rec := p.dev.rec
	if rec == nil {
		return start, end
	}
	alloc := inv.Alloc
	if alloc > 0 {
		var label string
		if rec.KeepsSpans() {
			label = inv.Name + "/alloc"
		}
		rec.Add(trace.Span{
			Resource: p.srv.Name(),
			Stream:   stream,
			Task:     task,
			Kind:     trace.Alloc,
			Label:    label,
			Start:    start,
			End:      start.Add(alloc),
		})
	}
	rec.Add(trace.Span{
		Resource: p.srv.Name(),
		Stream:   stream,
		Task:     task,
		Kind:     trace.Kernel,
		Label:    inv.Name,
		Start:    start.Add(alloc),
		End:      end,
	})
	return start, end
}
