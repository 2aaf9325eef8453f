package core

import (
	"reflect"
	"testing"

	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/sim"
	"micstream/internal/trace"
)

func ctx(t *testing.T, cfg hstreams.Config) *hstreams.Context {
	t.Helper()
	c, err := hstreams.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func simpleTask(id int, buf *hstreams.Buffer, flops float64) *Task {
	return &Task{
		ID:         id,
		H2D:        []TransferSpec{Xfer(buf, 0, buf.Len())},
		Cost:       device.KernelCost{Name: "k", Flops: flops},
		D2H:        []TransferSpec{Xfer(buf, 0, buf.Len())},
		StreamHint: -1,
	}
}

func TestEnqueuePhaseRoundRobin(t *testing.T) {
	c := ctx(t, hstreams.Config{Partitions: 4, Trace: true})
	buf := hstreams.AllocVirtual(c, "b", 1<<20, 4)
	var tasks []*Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, simpleTask(i, buf, 1e9))
	}
	ev, err := EnqueuePhase(c, tasks)
	if err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	for id := 0; id < 8; id++ {
		if ev.Kernel(id) == nil || !ev.Done(id).Done() {
			t.Fatalf("task %d not completed", id)
		}
	}
	if ev.Kernel(8) != nil || ev.Done(-1) != nil {
		t.Fatal("events reported for a task not in the phase")
	}
}

func TestStreamHintPinsTask(t *testing.T) {
	c := ctx(t, hstreams.Config{Partitions: 4, Trace: true})
	cost := device.KernelCost{Name: "k", Flops: 2e9}
	// Pin two heavy kernels to the same stream: they must serialize.
	tasks := []*Task{
		{ID: 0, Cost: cost, StreamHint: 2},
		{ID: 1, Cost: cost, StreamHint: 2},
		{ID: 2, Cost: cost, StreamHint: 3},
	}
	ev, err := EnqueuePhase(c, tasks)
	if err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	if ev.Done(1).CompletedAt() <= ev.Done(0).CompletedAt() {
		t.Fatal("pinned tasks did not serialize")
	}
	if ev.Done(2).CompletedAt() != ev.Done(0).CompletedAt() {
		t.Fatal("task on different partition should finish with task 0")
	}
}

func TestDependencyGatesKernel(t *testing.T) {
	c := ctx(t, hstreams.Config{Partitions: 2, Trace: true})
	cost := device.KernelCost{Name: "k", Flops: 2e9}
	tasks := []*Task{
		{ID: 0, Cost: cost, StreamHint: 0},
		{ID: 1, Cost: cost, StreamHint: 1, DependsOn: []int{0}},
	}
	ev, err := EnqueuePhase(c, tasks)
	if err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	if ev.Kernel(1).CompletedAt() <= ev.Kernel(0).CompletedAt() {
		t.Fatal("dependent kernel ran concurrently with its dependency")
	}
}

// A gated H2D (XferAfter) must wait for the producer task's final
// event — the cross-device staging pattern used by multi-MIC CF.
func TestGatedTransferWaitsForProducer(t *testing.T) {
	c := ctx(t, hstreams.Config{Devices: 2, Trace: true})
	buf := hstreams.AllocVirtual(c, "tile", 1<<20, 8)
	producer := &Task{
		ID:         0,
		Cost:       device.KernelCost{Name: "produce", Flops: 5e9},
		D2H:        []TransferSpec{Xfer(buf, 0, buf.Len())},
		StreamHint: 0, // device 0
	}
	consumer := &Task{
		ID:         1,
		H2D:        []TransferSpec{XferAfter(buf, 0, buf.Len(), 0)},
		Cost:       device.KernelCost{Name: "consume", Flops: 1e6},
		StreamHint: 1, // device 1
	}
	ev, err := EnqueuePhase(c, []*Task{producer, consumer})
	if err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	// Consumer kernel must start after producer's D2H plus its own
	// H2D: strictly after producer completion plus one transfer.
	gap := ev.Kernel(1).CompletedAt().Sub(ev.Done(0).CompletedAt())
	if gap < c.Config().Link.TransferTime(buf.Bytes()) {
		t.Fatalf("consumer not gated on producer: gap %v", gap)
	}

	// Gating on a not-yet-enqueued task is an error.
	if _, err := EnqueuePhase(c, []*Task{
		{ID: 7, H2D: []TransferSpec{XferAfter(buf, 0, 1, 99)}, Cost: device.KernelCost{Flops: 1}, StreamHint: -1},
	}); err == nil {
		t.Fatal("gate on unknown task accepted")
	}
}

func TestEnqueuePhaseErrors(t *testing.T) {
	c := ctx(t, hstreams.Config{Partitions: 2})
	cost := device.KernelCost{Flops: 1}
	if _, err := EnqueuePhase(c, []*Task{
		{ID: 0, Cost: cost, StreamHint: -1},
		{ID: 0, Cost: cost, StreamHint: -1},
	}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if _, err := EnqueuePhase(c, []*Task{
		{ID: 0, Cost: cost, StreamHint: 99},
	}); err == nil {
		t.Fatal("bad stream hint accepted")
	}
	if _, err := EnqueuePhase(c, []*Task{
		{ID: 0, Cost: cost, DependsOn: []int{5}, StreamHint: -1},
	}); err == nil {
		t.Fatal("forward/unknown dependency accepted")
	}
	buf := hstreams.AllocVirtual(c, "b", 4, 4)
	if _, err := EnqueuePhase(c, []*Task{
		{ID: 0, Cost: cost, H2D: []TransferSpec{Xfer(buf, 2, 8)}, StreamHint: -1},
	}); err == nil {
		t.Fatal("out-of-range transfer accepted")
	}
}

// A D2H-only transfer task ships its outputs with no kernel: its
// Kernel and Done events are both its last D2H, its dependencies gate
// its first D2H, and a dependent gates on that last D2H. A
// transfer-only task that carries a kernel body or cost, moves data
// both ways, or moves nothing is rejected before anything is enqueued.
func TestTransferOnlyD2H(t *testing.T) {
	c := ctx(t, hstreams.Config{Partitions: 2})
	buf := hstreams.AllocVirtual(c, "b", 1<<20, 4)
	cost := device.KernelCost{Name: "k", Flops: 3e8}
	out := []TransferSpec{Xfer(buf, 0, 1<<18), Xfer(buf, 1<<18, 1<<18)}
	ev, err := EnqueuePhase(c, []*Task{
		{ID: 0, Cost: cost, StreamHint: 0},
		{ID: 1, D2H: out, DependsOn: []int{0}, StreamHint: 1, TransferOnly: true},
		{ID: 2, Cost: cost, DependsOn: []int{1}, StreamHint: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	k0, k1, d1, k2 := ev.Kernel(0), ev.Kernel(1), ev.Done(1), ev.Kernel(2)
	if k1 != d1 {
		t.Fatalf("D2H-only task: Kernel %p != Done %p", k1, d1)
	}
	xfer := c.Config().Link.TransferTime(int64(out[0].N) * 4)
	if got, want := d1.CompletedAt(), k0.CompletedAt().Add(2*xfer); got != want {
		t.Fatalf("last D2H done at %v, want kernel 0's end %v plus two transfers (%v)", got, k0.CompletedAt(), want)
	}
	kt := c.Device(0).Partition(0).KernelTime(cost)
	if got, want := k2.CompletedAt(), d1.CompletedAt().Add(kt); got != want {
		t.Fatalf("dependent kernel done at %v, want the last D2H's end plus a kernel (%v)", got, want)
	}
	in := []TransferSpec{Xfer(buf, 0, 1)}
	for _, bad := range []Task{
		{ID: 0, D2H: in, Body: func(*hstreams.KernelCtx) {}},
		{ID: 0, D2H: in, Cost: cost},
		{ID: 0, H2D: in, D2H: in},
		{ID: 0},
	} {
		bad.StreamHint, bad.TransferOnly = -1, true
		var ph Phase
		ph.Reset(c, 1)
		if err := ph.Add(&bad); err == nil {
			t.Fatalf("transfer-only task %+v accepted", bad)
		}
		if ph.Events().Kernel(0) != nil || c.Engine().Pending() != 0 {
			t.Fatalf("rejected transfer-only task %+v enqueued work", bad)
		}
	}
}

func TestRunProducesMetrics(t *testing.T) {
	c := ctx(t, hstreams.Config{Partitions: 2, Trace: true})
	buf := hstreams.AllocVirtual(c, "b", 1<<20, 4)
	var tasks []*Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, simpleTask(i, buf, 1e9))
	}
	res, err := Run(c, tasks, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall <= 0 {
		t.Fatal("zero wall time")
	}
	if res.GFlops <= 0 {
		t.Fatal("zero GFLOPS")
	}
	if res.KernelBusy <= 0 || res.H2DBusy <= 0 || res.D2HBusy <= 0 {
		t.Fatalf("missing busy times: %+v", res)
	}
	// 4 tasks on 2 streams: some transfer/compute overlap must occur.
	if res.OverlapFraction <= 0 {
		t.Fatal("no overlap achieved in pipelined run")
	}
	if res.Partitions != 2 || res.Streams != 2 {
		t.Fatalf("granularity not recorded: %+v", res)
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

// A context built with Stages summarizes a run exactly as one built
// with Trace: a multi-task DAG on 2 devices × 3 partitions, with
// transfer-only panels, cross-task dependencies, gated staging and a
// kernel that pays an alloc cost.
func TestStagesSummarizeAsTrace(t *testing.T) {
	run := func(cfg hstreams.Config) Result {
		cfg.Devices, cfg.Partitions = 2, 3
		c := ctx(t, cfg)
		buf := hstreams.AllocVirtual(c, "b", 1<<20, 4)
		per := buf.Len() / 8
		cost := device.KernelCost{Name: "k", Flops: 3e8, AllocBytesPerThread: 1 << 14, Efficiency: 0.5}
		tasks := []*Task{{ID: 0, H2D: []TransferSpec{Xfer(buf, 0, per)}, TransferOnly: true, StreamHint: 0}}
		for i := 1; i < 8; i++ {
			tk := &Task{
				ID:         i,
				H2D:        []TransferSpec{Xfer(buf, i*per, per)},
				Cost:       cost,
				D2H:        []TransferSpec{Xfer(buf, i*per, per/2)},
				DependsOn:  []int{0},
				StreamHint: -1,
			}
			if i >= 4 {
				tk.DependsOn = append(tk.DependsOn, i-3)
				tk.H2D = append(tk.H2D, XferAfter(buf, (i-3)*per, per/4, i-3))
			}
			tasks = append(tasks, tk)
		}
		res, err := Run(c, tasks, 7*cost.Flops)
		if err != nil {
			t.Fatal(err)
		}
		rec := c.Recorder()
		if res.H2DBusy != rec.BusyTime(trace.H2D) || res.D2HBusy != rec.BusyTime(trace.D2H) || res.KernelBusy != rec.BusyTime(trace.Kernel) {
			t.Fatalf("busy times %+v differ from the recorder's BusyTime", res)
		}
		return res
	}
	traced, staged := run(hstreams.Config{Trace: true}), run(hstreams.Config{Stages: true})
	if traced.H2DBusy == 0 || traced.D2HBusy == 0 || traced.KernelBusy == 0 || traced.OverlapFraction == 0 {
		t.Fatalf("traced run recorded no stage times: %+v", traced)
	}
	if !reflect.DeepEqual(traced, staged) {
		t.Fatalf("Stages result %+v differs from Trace result %+v", staged, traced)
	}
	bare := run(hstreams.Config{})
	if bare.Wall != traced.Wall || bare.H2DBusy != 0 || bare.D2HBusy != 0 || bare.KernelBusy != 0 || bare.OverlapFraction != 0 {
		t.Fatalf("unrecorded run %+v: want the traced wall %v and zero stage times", bare, traced.Wall)
	}
}

// More streams must not make a pipelined workload slower, and must beat
// the single stream for overlappable work (paper Fig. 1, §V-A).
func TestStreamedBeatsNonStreamed(t *testing.T) {
	run := func(parts, tiles int) sim.Duration {
		c := ctx(t, hstreams.Config{Partitions: parts, Trace: true})
		buf := hstreams.AllocVirtual(c, "b", 4<<20, 4)
		per := buf.Len() / tiles
		var tasks []*Task
		for i := 0; i < tiles; i++ {
			tasks = append(tasks, &Task{
				ID:         i,
				H2D:        []TransferSpec{Xfer(buf, i*per, per)},
				Cost:       device.KernelCost{Name: "k", Flops: 40e9 / float64(tiles)},
				D2H:        []TransferSpec{Xfer(buf, i*per, per)},
				StreamHint: -1,
			})
		}
		res, err := Run(c, tasks, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Wall
	}
	single := run(1, 1)
	streamed := run(4, 8)
	if streamed >= single {
		t.Fatalf("streamed %v not faster than non-streamed %v", streamed, single)
	}
}

func TestCandidatePartitionsAreDivisors(t *testing.T) {
	got := CandidatePartitions(device.Xeon31SP())
	want := []int{1, 2, 4, 7, 8, 14, 28, 56}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
}

func TestCandidateTilesAreMultiplesOfP(t *testing.T) {
	for _, p := range []int{2, 4, 7, 14} {
		tiles := CandidateTiles(p, 400)
		if len(tiles) == 0 {
			t.Fatalf("no tile candidates for P=%d", p)
		}
		for _, tt := range tiles[:len(tiles)-1] { // last entry is maxTiles itself
			if tt%p != 0 {
				t.Fatalf("P=%d: tile candidate %d not a multiple", p, tt)
			}
			if tt > 400 {
				t.Fatalf("P=%d: tile candidate %d exceeds max", p, tt)
			}
		}
	}
	if CandidateTiles(0, 10) != nil || CandidateTiles(4, 0) != nil {
		t.Fatal("degenerate inputs should give nil")
	}
}

func TestHeuristicSpaceMuchSmallerThanExhaustive(t *testing.T) {
	ex := ExhaustiveSpace(56, 400)
	he := HeuristicSpace(56, 400)
	if ex.Size() != 56*400 {
		t.Fatalf("exhaustive size = %d", ex.Size())
	}
	if he.Size() >= ex.Size()/50 {
		t.Fatalf("heuristic space %d not ≪ exhaustive %d", he.Size(), ex.Size())
	}
	// Pruned P values exclude 1 (the degenerate non-streamed case).
	for _, p := range he.Partitions {
		if p < 2 || 56%p != 0 {
			t.Fatalf("bad pruned partition %d", p)
		}
	}
}

func TestTuneFindsMinimum(t *testing.T) {
	// Synthetic landscape with a unique optimum at P=8, T=32.
	eval := func(p, tiles int) (float64, error) {
		dp := float64(p - 8)
		dt := float64(tiles - 32)
		return 1 + dp*dp + dt*dt/100, nil
	}
	space := SearchSpace{
		Partitions: []int{2, 4, 8, 16},
		TilesFor:   func(p int) []int { return []int{8, 16, 32, 64} },
	}
	res, err := Tune(space, eval)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 8 || res.Tiles != 32 {
		t.Fatalf("tuner found (%d,%d), want (8,32)", res.Partitions, res.Tiles)
	}
	if res.Evaluations != space.Size() {
		t.Fatalf("evaluations = %d, want %d", res.Evaluations, space.Size())
	}
}

func TestTuneClusterJointOptimum(t *testing.T) {
	// Synthetic landscape over (D, P, T): per-device time shrinks with
	// D but a staging penalty grows with it, putting the optimum at
	// D=2 rather than the largest device count; (P, T) optimum at
	// (8, 32) as in the single-device landscape.
	eval := func(d, p, tiles int) (float64, error) {
		dp := float64(p - 8)
		dt := float64(tiles - 32)
		per := (10 + dp*dp + dt*dt/100) / float64(d)
		staging := 3 * float64(d-1)
		return per + staging, nil
	}
	space := SearchSpace{
		Partitions: []int{2, 4, 8, 16},
		TilesFor:   func(int) []int { return []int{8, 16, 32, 64} },
	}
	res, err := TuneCluster([]int{1, 2, 4}, space, eval)
	if err != nil {
		t.Fatal(err)
	}
	if res.Devices != 2 || res.Partitions != 8 || res.Tiles != 32 {
		t.Fatalf("cluster tuner found (D=%d,P=%d,T=%d), want (2,8,32)", res.Devices, res.Partitions, res.Tiles)
	}
	if res.Evaluations != 3*space.Size() {
		t.Fatalf("evaluations = %d, want %d", res.Evaluations, 3*space.Size())
	}

	// The guided search with a perfect predictor needs only one
	// simulated point to land on the same optimum.
	guided, err := TuneClusterGuided([]int{1, 2, 4}, space, eval, eval, 1)
	if err != nil {
		t.Fatal(err)
	}
	if guided.Devices != res.Devices || guided.Partitions != res.Partitions || guided.Tiles != res.Tiles {
		t.Fatalf("guided cluster tuner found (D=%d,P=%d,T=%d), want (D=%d,P=%d,T=%d)",
			guided.Devices, guided.Partitions, guided.Tiles, res.Devices, res.Partitions, res.Tiles)
	}
	if guided.Evaluations != 1 {
		t.Fatalf("guided evaluations = %d, want 1", guided.Evaluations)
	}

	if _, err := TuneCluster(nil, space, eval); err == nil {
		t.Error("empty device list should error")
	}
	if _, err := TuneCluster([]int{0}, space, eval); err == nil {
		t.Error("non-positive device count should error")
	}
	if _, err := TuneClusterGuided([]int{-1}, space, eval, eval, 1); err == nil {
		t.Error("guided non-positive device count should error")
	}
}

func TestCoordinateDescentFindsUnimodalOptimum(t *testing.T) {
	// Separable bowl: coordinate descent must find the exact optimum
	// with far fewer evaluations than the 16-point product space.
	eval := func(p, tiles int) (float64, error) {
		dp := float64(p - 8)
		dt := float64(tiles - 32)
		return 1 + dp*dp + dt*dt/100, nil
	}
	space := SearchSpace{
		Partitions: []int{2, 4, 8, 16},
		TilesFor:   func(int) []int { return []int{8, 16, 32, 64} },
	}
	res, err := TuneCoordinateDescent(space, eval, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 8 || res.Tiles != 32 {
		t.Fatalf("found (%d,%d), want (8,32)", res.Partitions, res.Tiles)
	}
	full, err := Tune(space, eval)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations >= full.Evaluations {
		t.Fatalf("descent used %d evals, exhaustive %d — no saving", res.Evaluations, full.Evaluations)
	}
	if res.Seconds != full.Seconds {
		t.Fatalf("descent optimum %v != exhaustive %v", res.Seconds, full.Seconds)
	}
}

func TestCoordinateDescentCachesRepeats(t *testing.T) {
	calls := 0
	eval := func(p, tiles int) (float64, error) {
		calls++
		return float64(p + tiles), nil
	}
	space := SearchSpace{
		Partitions: []int{1, 2},
		TilesFor:   func(int) []int { return []int{1, 2} },
	}
	res, err := TuneCoordinateDescent(space, eval, 5)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Evaluations {
		t.Fatalf("eval called %d times but %d evaluations reported (cache broken)", calls, res.Evaluations)
	}
	if calls > 4 {
		t.Fatalf("tiny space needed %d calls; caching should bound it by the space size", calls)
	}
}

func TestCoordinateDescentEmptySpaceFails(t *testing.T) {
	if _, err := TuneCoordinateDescent(SearchSpace{TilesFor: func(int) []int { return nil }}, nil, 1); err == nil {
		t.Fatal("empty space accepted")
	}
}

func TestTuneEmptySpaceFails(t *testing.T) {
	if _, err := Tune(SearchSpace{TilesFor: func(int) []int { return nil }}, nil); err == nil {
		t.Fatal("empty space accepted")
	}
}

func TestTunePropagatesEvalError(t *testing.T) {
	space := SearchSpace{Partitions: []int{1}, TilesFor: func(int) []int { return []int{1} }}
	_, err := Tune(space, func(int, int) (float64, error) {
		return 0, errBoom
	})
	if err == nil {
		t.Fatal("eval error swallowed")
	}
}

var errBoom = &boomError{}

type boomError struct{}

func (*boomError) Error() string { return "boom" }

func TestPipelineIdealAndSerial(t *testing.T) {
	stages := []sim.Duration{10, 30, 20}
	if got := PipelineSerial(stages, 4); got != 240 {
		t.Fatalf("serial = %v, want 240", got)
	}
	// fill 60 + 3 more × bottleneck 30 = 150.
	if got := PipelineIdeal(stages, 4); got != 150 {
		t.Fatalf("ideal = %v, want 150", got)
	}
	if PipelineIdeal(stages, 0) != 0 || PipelineSerial(nil, 5) != 0 {
		t.Fatal("degenerate cases wrong")
	}
	if PipelineIdeal(stages, 1) != 60 {
		t.Fatal("single task should cost the stage sum")
	}
}

func TestHalfDuplexIdealBounds(t *testing.T) {
	// Link-bound: transfers dominate.
	lb := HalfDuplexIdeal(10, 5, 10, 4)
	if lb != 4*20+5 {
		t.Fatalf("link-bound = %v, want 85", lb)
	}
	// Kernel-bound: compute dominates.
	kb := HalfDuplexIdeal(5, 40, 5, 4)
	if kb != 4*40+10 {
		t.Fatalf("kernel-bound = %v, want 170", kb)
	}
	if HalfDuplexIdeal(1, 1, 1, 0) != 0 {
		t.Fatal("zero tasks should cost zero")
	}
	// The half-duplex ideal is never below the full-overlap ideal.
	for _, n := range []int{1, 2, 5, 16} {
		hd := HalfDuplexIdeal(10, 30, 20, n)
		id := PipelineIdeal([]sim.Duration{10, 30, 20}, n)
		if hd < id {
			t.Fatalf("n=%d: half-duplex ideal %v below full ideal %v", n, hd, id)
		}
	}
}

// A warm Phase enqueues a task without allocating anything: not the
// task, its lists or its index entries, and not its events, because
// Reset hands the previous phase's resolved events back to the context
// and the next phase reuses them. A 256-task H2D+kernel+D2H phase of
// IDs 0..255 therefore costs 0 heap objects once warm. A phase of
// sparse IDs, negative or far beyond the task count, reuses its map
// and keeps its dense slice empty, so it costs no more than the dense
// one.
func TestPhaseAddAllocs(t *testing.T) {
	const n = 256
	c := ctx(t, hstreams.Config{Partitions: 4})
	buf := hstreams.AllocVirtual(c, "b", n, 4)
	cost := device.KernelCost{Name: "k", Flops: 1e6}
	var in, out [1]TransferSpec
	phase := func(ph *Phase, id func(i int) int) {
		ph.Reset(c, n)
		for i := 0; i < n; i++ {
			in[0], out[0] = Xfer(buf, i, 1), Xfer(buf, i, 1)
			task := Task{ID: id(i), H2D: in[:], Cost: cost, D2H: out[:], StreamHint: -1}
			if err := ph.Add(&task); err != nil {
				t.Fatal(err)
			}
		}
		c.Barrier()
	}
	// allocs warms a Phase (its index, the engine's heap and the
	// context's free list) and then counts a phase's allocations.
	allocs := func(ph *Phase, id func(i int) int) float64 {
		phase(ph, id)
		return testing.AllocsPerRun(20, func() { phase(ph, id) })
	}
	var dense, sparse Phase
	d := allocs(&dense, func(i int) int { return i })
	s := allocs(&sparse, func(i int) int {
		if i%2 == 0 {
			return -1 - i
		}
		return 1e9 + i
	})
	if d != 0 {
		t.Errorf("dense: warm Phase allocated %.2f objects, want 0", d)
	}
	if s > d {
		t.Errorf("sparse: warm Phase allocated %.2f objects, more than the dense phase's %.2f", s, d)
	}
	if len(sparse.ev.dense) != 0 {
		t.Errorf("sparse: %d dense slots in use, want none", len(sparse.ev.dense))
	}
}
