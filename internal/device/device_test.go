package device

import (
	"math/rand"
	"testing"
	"testing/quick"

	"micstream/internal/sim"
	"micstream/internal/trace"
)

func newDev(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := New(eng, Xeon31SP(), "mic0", trace.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestXeon31SPTopology(t *testing.T) {
	cfg := Xeon31SP()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.UsableCores(); got != 56 {
		t.Fatalf("usable cores = %d, want 56 (57 minus one for the uOS)", got)
	}
	if got := cfg.TotalThreads(); got != 224 {
		t.Fatalf("total threads = %d, want 224", got)
	}
	// 985 GFLOPS DP peak for the 31SP.
	if peak := cfg.PeakFlops() / 1e9; peak < 900 || peak > 1100 {
		t.Fatalf("peak = %.0f GFLOPS, want ≈985", peak)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.ReservedCores = -1 },
		func(c *Config) { c.ReservedCores = 57 },
		func(c *Config) { c.ThreadsPerCore = 0 },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.FlopsPerCyclePerThread = 0 },
		func(c *Config) { c.MemBandwidthBps = 0 },
		func(c *Config) { c.ContentionPenalty = 0.5 },
		func(c *Config) { c.CacheAffinityBonus = -1 },
	}
	for i, mutate := range bad {
		cfg := Xeon31SP()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestPartitioningSplitsAllThreads(t *testing.T) {
	_, d := newDev(t)
	for _, n := range []int{1, 2, 4, 7, 8, 14, 28, 56, 3, 5, 33, 100, 224} {
		if err := d.SetPartitions(n); err != nil {
			t.Fatalf("SetPartitions(%d): %v", n, err)
		}
		total := 0
		for _, p := range d.Partitions() {
			if p.Threads() <= 0 {
				t.Fatalf("P=%d: partition %d has %d threads", n, p.Index(), p.Threads())
			}
			total += p.Threads()
		}
		if total != 224 {
			t.Fatalf("P=%d: threads sum to %d, want 224", n, total)
		}
	}
}

func TestPartitionCountBounds(t *testing.T) {
	_, d := newDev(t)
	if err := d.SetPartitions(0); err == nil {
		t.Fatal("P=0 accepted")
	}
	if err := d.SetPartitions(225); err == nil {
		t.Fatal("P=225 accepted (only 224 threads exist)")
	}
	if err := d.SetPartitions(224); err != nil {
		t.Fatalf("P=224 rejected: %v", err)
	}
}

// The paper's §V-B-1 rule: P ∈ {2,4,7,8,14,28,56} avoids splitting any
// core's threads across partitions; other values share cores.
func TestDivisorsOf56DoNotShareCores(t *testing.T) {
	_, d := newDev(t)
	divisors := map[int]bool{1: true, 2: true, 4: true, 7: true, 8: true, 14: true, 28: true, 56: true}
	for n := 1; n <= 56; n++ {
		if err := d.SetPartitions(n); err != nil {
			t.Fatal(err)
		}
		shared := false
		for _, p := range d.Partitions() {
			if p.SharesCore() {
				shared = true
				break
			}
		}
		if divisors[n] && shared {
			t.Errorf("P=%d (divisor of 56) unexpectedly shares a core", n)
		}
		if !divisors[n] && !shared {
			t.Errorf("P=%d (non-divisor) unexpectedly shares no core", n)
		}
	}
}

func TestCoresSpanned(t *testing.T) {
	_, d := newDev(t)
	if err := d.SetPartitions(4); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Partitions() {
		if p.CoresSpanned() != 14 {
			t.Fatalf("P=4: partition spans %d cores, want 14", p.CoresSpanned())
		}
	}
	if err := d.SetPartitions(224); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Partitions() {
		if p.CoresSpanned() != 1 {
			t.Fatalf("P=224: partition spans %d cores, want 1", p.CoresSpanned())
		}
	}
}

func TestKernelTimeScalesWithFlops(t *testing.T) {
	_, d := newDev(t)
	p := d.Partition(0)
	small := p.KernelTime(KernelCost{Flops: 1e9})
	large := p.KernelTime(KernelCost{Flops: 4e9})
	if large <= small {
		t.Fatalf("4x flops not slower: %v vs %v", large, small)
	}
}

func TestKernelTimeMoreThreadsFaster(t *testing.T) {
	_, d := newDev(t)
	cost := KernelCost{Flops: 1e9}
	if err := d.SetPartitions(1); err != nil {
		t.Fatal(err)
	}
	t224 := d.Partition(0).KernelTime(cost)
	if err := d.SetPartitions(4); err != nil {
		t.Fatal(err)
	}
	t56 := d.Partition(0).KernelTime(cost)
	if t224 >= t56 {
		t.Fatalf("224 threads (%v) not faster than 56 (%v) on 1 GFLOP kernel", t224, t56)
	}
}

// Tiny kernels cannot exploit wide partitions: the parallel-efficiency
// saturation term means a 100 KFLOP kernel gains almost nothing going
// from 14 to 224 threads, while a 10 GFLOP kernel speeds up nearly
// linearly. This is the model term behind Fig. 7's left edge and
// Fig. 10's right edge: spreading tiny tasks across the whole device
// wastes it.
func TestTinyKernelGainsNothingFromWidePartition(t *testing.T) {
	_, d := newDev(t)
	speedup := func(cost KernelCost) float64 {
		if err := d.SetPartitions(16); err != nil {
			t.Fatal(err)
		}
		narrow := d.Partition(0).KernelTime(cost) - sim.Duration(d.Config().StreamMgmtNsPerPartition)*16
		if err := d.SetPartitions(1); err != nil {
			t.Fatal(err)
		}
		wide := d.Partition(0).KernelTime(cost) - sim.Duration(d.Config().StreamMgmtNsPerPartition)
		return float64(narrow) / float64(wide)
	}
	if s := speedup(KernelCost{Flops: 100_000}); s > 2 {
		t.Fatalf("tiny kernel speedup 14→224 threads = %.2fx, want <2x (saturated)", s)
	}
	if s := speedup(KernelCost{Flops: 10e9}); s < 8 {
		t.Fatalf("large kernel speedup 14→224 threads = %.2fx, want ≳16x-ish (>8)", s)
	}
}

func TestSharedCoreContentionPenalizesComputeBound(t *testing.T) {
	_, d := newDev(t)
	cost := KernelCost{Flops: 1e9}
	// P=8 divides 56: no sharing. P=9 does not.
	if err := d.SetPartitions(8); err != nil {
		t.Fatal(err)
	}
	aligned := d.Partition(0).KernelTime(cost)
	alignedThreads := d.Partition(0).Threads()
	if err := d.SetPartitions(9); err != nil {
		t.Fatal(err)
	}
	var shared *Partition
	for _, p := range d.Partitions() {
		if p.SharesCore() {
			shared = p
			break
		}
	}
	if shared == nil {
		t.Fatal("P=9 produced no shared-core partition")
	}
	// Normalize for thread-count difference: scale by threads ratio.
	norm := float64(shared.KernelTime(cost)) * float64(shared.Threads()) / float64(alignedThreads)
	if norm <= float64(aligned)*1.05 {
		t.Fatalf("shared-core partition not penalized: normalized %v vs aligned %v", sim.Duration(norm), aligned)
	}
}

func TestMemoryBoundKernelIgnoresContention(t *testing.T) {
	_, d := newDev(t)
	// Pure memory-bound cost: no flops.
	cost := KernelCost{Bytes: 100 << 20}
	if err := d.SetPartitions(9); err != nil {
		t.Fatal(err)
	}
	var shared *Partition
	for _, p := range d.Partitions() {
		if p.SharesCore() {
			shared = p
		}
	}
	if shared == nil {
		t.Fatal("no shared partition at P=9")
	}
	// Compare against an identical-thread partition without sharing
	// by computing the expected bandwidth-limited time directly.
	cfg := d.Config()
	share := cfg.MemBandwidthBps * float64(shared.Threads()) / float64(cfg.TotalThreads())
	wantBody := sim.DurationOf(float64(cost.Bytes) / share)
	overhead := sim.Duration(cfg.KernelLaunchNs) + sim.Duration(cfg.StreamMgmtNsPerPartition)*9
	got := shared.KernelTime(cost)
	if got != wantBody+overhead {
		t.Fatalf("memory-bound kernel time = %v, want %v (no contention penalty)", got, wantBody+overhead)
	}
}

func TestCacheSensitiveKernelFasterOnConcentratedPartition(t *testing.T) {
	_, d := newDev(t)
	cost := KernelCost{Bytes: 64 << 20, CacheSensitive: true}
	if err := d.SetPartitions(1); err != nil {
		t.Fatal(err)
	}
	wide := d.Partition(0).KernelTime(cost)
	wideThreads := d.Partition(0).Threads()
	if err := d.SetPartitions(56); err != nil {
		t.Fatal(err)
	}
	narrow := d.Partition(0).KernelTime(cost)
	narrowThreads := d.Partition(0).Threads()
	// Normalize to per-thread bandwidth terms: time × threads is the
	// thread-seconds of the memory phase; concentration should reduce it.
	wideTS := float64(wide-sim.Duration(d.Config().KernelLaunchNs)) * float64(wideThreads)
	narrowTS := float64(narrow-sim.Duration(d.Config().KernelLaunchNs)-56*sim.Duration(d.Config().StreamMgmtNsPerPartition)) * float64(narrowThreads)
	if narrowTS >= wideTS {
		t.Fatalf("cache-sensitive kernel gained nothing from concentration: %v vs %v thread-ns", narrowTS, wideTS)
	}
}

// A kernel with ScalingPenalty loses efficiency as it spans more
// threads: thread-seconds grow with partition width, so four quarter-
// device kernels beat one full-device kernel — a source of the paper's
// spatial-sharing gains for GEMM-like code.
func TestScalingPenaltyMakesWideKernelsLessEfficient(t *testing.T) {
	_, d := newDev(t)
	cost := KernelCost{Flops: 1e11, ScalingPenalty: 0.1}
	threadSeconds := func(parts int) float64 {
		if err := d.SetPartitions(parts); err != nil {
			t.Fatal(err)
		}
		p := d.Partition(0)
		// Scale the per-partition share of the work.
		c := cost
		c.Flops /= float64(parts)
		return p.KernelTime(c).Seconds() * float64(p.Threads())
	}
	wide := threadSeconds(1)
	quarter := threadSeconds(4)
	if wide <= quarter {
		t.Fatalf("224-thread kernel (%.4f thread-s) should be less efficient than 56-thread (%.4f)", wide, quarter)
	}
	// Without the penalty, thread-seconds are width-independent
	// (up to fixed overheads).
	cost.ScalingPenalty = 0
	if err := d.SetPartitions(1); err != nil {
		t.Fatal(err)
	}
	a := d.Partition(0).KernelTime(cost).Seconds() * 224
	if err := d.SetPartitions(4); err != nil {
		t.Fatal(err)
	}
	c2 := cost
	c2.Flops /= 4
	b := d.Partition(0).KernelTime(c2).Seconds() * 56 * 4
	if ratio := a / b; ratio < 0.98 || ratio > 1.02 {
		t.Fatalf("without penalty thread-seconds should match: %.4f vs %.4f", a, b)
	}
}

// Kernels with cross-phase reuse (FitBonus) run the memory phase faster
// when their working set fits in the partition's aggregate L2 — smaller
// tiles on the same partition are faster per byte.
func TestFitBonusRewardsL2ResidentWorkingSets(t *testing.T) {
	_, d := newDev(t)
	if err := d.SetPartitions(4); err != nil {
		t.Fatal(err)
	}
	p := d.Partition(0) // 14 cores → 7 MB aggregate L2
	perByte := func(ws int64) float64 {
		c := KernelCost{Bytes: float64(ws), WorkingSetBytes: ws, FitBonus: 0.8}
		dt := p.KernelTime(c) - p.KernelTime(KernelCost{})
		return float64(dt) / float64(ws)
	}
	small := perByte(2 << 20)   // fits: 2 MB < 7 MB
	large := perByte(256 << 20) // does not fit
	if small >= large {
		t.Fatalf("L2-resident working set not faster per byte: %.3f vs %.3f ns/B", small, large)
	}
	// Without the bonus the two are identical per byte.
	noBonus := func(ws int64) float64 {
		c := KernelCost{Bytes: float64(ws), WorkingSetBytes: ws}
		dt := p.KernelTime(c) - p.KernelTime(KernelCost{})
		return float64(dt) / float64(ws)
	}
	a, b := noBonus(2<<20), noBonus(256<<20)
	if diff := a/b - 1; diff > 0.01 || diff < -0.01 {
		t.Fatalf("FitBonus=0 should be size-neutral: %.3f vs %.3f", a, b)
	}
}

func TestAllocCostScalesWithThreads(t *testing.T) {
	_, d := newDev(t)
	cost := KernelCost{Flops: 1, AllocBytesPerThread: 1 << 20}
	if err := d.SetPartitions(1); err != nil {
		t.Fatal(err)
	}
	wide := d.Partition(0).AllocTime(cost)
	if err := d.SetPartitions(56); err != nil {
		t.Fatal(err)
	}
	narrow := d.Partition(0).AllocTime(cost)
	if wide <= narrow {
		t.Fatalf("alloc on 224 threads (%v) should cost more than on 4 (%v)", wide, narrow)
	}
	ratio := float64(wide) / float64(narrow)
	if ratio < 50 || ratio > 60 {
		t.Fatalf("alloc ratio = %.1f, want ≈56 (linear in threads)", ratio)
	}
	if d.Partition(0).AllocTime(KernelCost{}) != 0 {
		t.Fatal("zero alloc bytes should cost nothing")
	}
}

// Property: a partition prices a kernel with exactly the closed form
// the analytic model evaluates (DESIGN.md §8). For random costs that
// switch every term on and off, and for every partition of every split
// with P from 1 to 56, Price's duration and allocation share are
// bit-equal to KernelTimeOn and AllocTimeOn on the PartitionLayout
// shape.
func TestPropertyPriceMatchesClosedForm(t *testing.T) {
	_, d := newDev(t)
	cfg := d.Config()
	rng := rand.New(rand.NewSource(8))
	maybe := func(v float64) float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return v
	}
	costs := make([]KernelCost, 64)
	for i := range costs {
		costs[i] = KernelCost{
			Name:                "k",
			Flops:               maybe(rng.ExpFloat64() * 1e8),
			Bytes:               maybe(rng.ExpFloat64() * 1e7),
			SerialNs:            int64(maybe(float64(rng.Intn(50_000)))),
			AllocBytesPerThread: int64(maybe(float64(rng.Intn(1 << 20)))),
			WorkingSetBytes:     int64(maybe(float64(rng.Intn(64 << 20)))),
			CacheSensitive:      rng.Intn(2) == 0,
			FitBonus:            maybe(rng.Float64()),
			Efficiency:          maybe(rng.Float64()*1.2 - 0.1),
			ScalingPenalty:      maybe(rng.Float64() * 2),
		}
	}
	for n := 1; n <= 56; n++ {
		if err := d.SetPartitions(n); err != nil {
			t.Fatal(err)
		}
		layout := cfg.PartitionLayout(n)
		for i, p := range d.Partitions() {
			for ci := range costs {
				c := &costs[ci]
				inv := p.Price(c)
				if want := cfg.KernelTimeOn(c, &layout[i], n); inv.Dur != want {
					t.Fatalf("P=%d partition %d cost %+v: Price.Dur %d, KernelTimeOn %d", n, i, *c, inv.Dur, want)
				}
				if want := cfg.AllocTimeOn(c, layout[i].Threads); inv.Alloc != want {
					t.Fatalf("P=%d partition %d cost %+v: Price.Alloc %d, AllocTimeOn %d", n, i, *c, inv.Alloc, want)
				}
				if inv.Name != c.Name || inv.Alloc > inv.Dur {
					t.Fatalf("P=%d partition %d: invocation %+v for cost %+v", n, i, inv, *c)
				}
			}
		}
	}
}

func TestLaunchSerializesOnPartition(t *testing.T) {
	eng, d := newDev(t)
	p := d.Partition(0)
	cost := KernelCost{Flops: 1e8}
	_, end1 := p.Launch(0, p.Price(&cost), 0, 0, nil, nil)
	start2, _ := p.Launch(0, p.Price(&cost), 0, 1, nil, nil)
	if start2 != end1 {
		t.Fatalf("second launch at %v, want %v (partition must serialize)", start2, end1)
	}
	eng.Run()
}

func TestLaunchRunsBodyAtStartAndDoneAtEnd(t *testing.T) {
	eng, d := newDev(t)
	p := d.Partition(0)
	var bodyAt, doneAt sim.Time = -1, -1
	start, end := p.Launch(10, p.Price(&KernelCost{Flops: 1e8}), 0, 0,
		func() { bodyAt = eng.Now() },
		sim.Func(func() { doneAt = eng.Now() }))
	eng.Run()
	if bodyAt != start {
		t.Fatalf("body ran at %v, want start %v", bodyAt, start)
	}
	if doneAt != end {
		t.Fatalf("done ran at %v, want end %v", doneAt, end)
	}
}

func TestLaunchTracesKernelAndAllocSpans(t *testing.T) {
	eng := sim.NewEngine()
	rec := trace.NewRecorder()
	d, err := New(eng, Xeon31SP(), "mic0", rec)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Partition(0)
	p.Launch(0, p.Price(&KernelCost{Name: "k", Flops: 1e8, AllocBytesPerThread: 1 << 16}), 2, 3, nil, nil)
	var kernels, allocs int
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.Kernel:
			kernels++
			if s.Stream != 2 || s.Task != 3 || s.Label != "k" {
				t.Fatalf("bad kernel span %+v", s)
			}
		case trace.Alloc:
			allocs++
		}
	}
	if kernels != 1 || allocs != 1 {
		t.Fatalf("spans: %d kernel, %d alloc; want 1 and 1", kernels, allocs)
	}
}

// A stage recorder keeps no span, so a launch with an alloc cost builds
// no "/alloc" label and, once the recorder's interval slices are warm,
// allocates no more than without a recorder. A full recorder still
// labels the alloc span.
func TestStageRecorderLaunchFormatsNoLabel(t *testing.T) {
	cost := KernelCost{Name: "k", Flops: 1e6, AllocBytesPerThread: 1 << 10}
	allocs := func(rec *trace.Recorder) float64 {
		d, err := New(sim.NewEngine(), Xeon31SP(), "mic0", rec)
		if err != nil {
			t.Fatal(err)
		}
		p := d.Partition(0)
		launch := func() { p.Launch(0, p.Price(&cost), 0, 0, nil, nil) }
		// Back-to-back launches leave a gap between alloc spans, so
		// each adds an interval: grow the slices past the measured
		// count, then keep their capacity across Reset.
		for i := 0; i < 2048; i++ {
			launch()
		}
		rec.Reset()
		return testing.AllocsPerRun(1000, launch)
	}
	if staged, bare := allocs(trace.NewStageRecorder()), allocs(nil); staged > bare {
		t.Fatalf("Launch with a stage recorder allocated %.1f objects/op, without a recorder %.1f", staged, bare)
	}

	rec := trace.NewRecorder()
	d, err := New(sim.NewEngine(), Xeon31SP(), "mic0", rec)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Partition(0)
	p.Launch(0, p.Price(&cost), 0, 0, nil, nil)
	if s := rec.Spans(); len(s) != 2 || s[0].Kind != trace.Alloc || s[0].Label != "k/alloc" {
		t.Fatalf("spans %+v; want the alloc span labelled \"k/alloc\" first", s)
	}
}

func TestZeroEfficiencyTreatedAsFull(t *testing.T) {
	_, d := newDev(t)
	p := d.Partition(0)
	a := p.KernelTime(KernelCost{Flops: 1e9, Efficiency: 0})
	b := p.KernelTime(KernelCost{Flops: 1e9, Efficiency: 1})
	if a != b {
		t.Fatalf("Efficiency 0 (%v) should equal 1 (%v)", a, b)
	}
}

// Property: kernel time is monotone non-decreasing in flops and bytes
// for any partitioning.
func TestPropertyKernelTimeMonotone(t *testing.T) {
	_, d := newDev(t)
	f := func(p8 uint8, flops, bytes uint32) bool {
		n := 1 + int(p8)%56
		if err := d.SetPartitions(n); err != nil {
			return false
		}
		p := d.Partition(0)
		base := KernelCost{Flops: float64(flops), Bytes: float64(bytes)}
		more := KernelCost{Flops: float64(flops) * 2, Bytes: float64(bytes) * 2}
		return p.KernelTime(more) >= p.KernelTime(base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every partitioning covers threads exactly once with
// contiguous, non-overlapping ranges.
func TestPropertyPartitionCoverage(t *testing.T) {
	_, d := newDev(t)
	f := func(p8 uint8) bool {
		n := 1 + int(p8)%224
		if err := d.SetPartitions(n); err != nil {
			return false
		}
		next := 0
		for _, p := range d.Partitions() {
			if p.shape.FirstThread != next {
				return false
			}
			next += p.Threads()
		}
		return next == 224
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 224}); err != nil {
		t.Fatal(err)
	}
}
