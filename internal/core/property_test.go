package core

import (
	"reflect"
	"testing"

	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/pcie"
	"micstream/internal/sim"
	"micstream/internal/trace"
	"micstream/internal/workload"
)

// randomDAG builds a topologically ordered random task graph: each
// task may depend on up to two earlier tasks and may carry transfers.
func randomDAG(rng *workload.RNG, buf *hstreams.Buffer, n int) []*Task {
	tasks := make([]*Task, 0, n)
	for i := 0; i < n; i++ {
		t := &Task{
			ID:         i,
			Cost:       device.KernelCost{Name: "k", Flops: float64(1 + rng.Intn(2e7))},
			StreamHint: -1,
		}
		for d := 0; d < 2 && i > 0; d++ {
			if rng.Intn(2) == 0 {
				t.DependsOn = append(t.DependsOn, rng.Intn(i))
			}
		}
		if rng.Intn(3) == 0 {
			t.H2D = append(t.H2D, Xfer(buf, 0, 1+rng.Intn(buf.Len()-1)))
		}
		if rng.Intn(3) == 0 {
			t.D2H = append(t.D2H, Xfer(buf, 0, 1+rng.Intn(buf.Len()-1)))
		}
		tasks = append(tasks, t)
	}
	return tasks
}

// Property: every dependency is honoured — a task's kernel completes
// strictly after each dependency's kernel.
func TestPropertyRandomDAGRespectsDependencies(t *testing.T) {
	rng := workload.NewRNG(2024)
	for trial := 0; trial < 30; trial++ {
		ctx, err := hstreams.Init(hstreams.Config{Partitions: 1 + int(rng.Intn(8)), Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		buf := hstreams.AllocVirtual(ctx, "b", 1<<20, 4)
		tasks := randomDAG(rng, buf, 40)
		ev, err := EnqueuePhase(ctx, tasks)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Barrier()
		for _, task := range tasks {
			for _, dep := range task.DependsOn {
				if ev.Kernel(task.ID).CompletedAt() <= ev.Kernel(dep).CompletedAt() {
					t.Fatalf("trial %d: task %d (done %v) did not wait for dep %d (done %v)",
						trial, task.ID, ev.Kernel(task.ID).CompletedAt(),
						dep, ev.Kernel(dep).CompletedAt())
				}
			}
		}
	}
}

// Property: the makespan is bounded below by the DAG's critical path
// through kernel durations (scheduling can add waiting, never remove
// work from the longest chain).
func TestPropertyMakespanAtLeastCriticalPath(t *testing.T) {
	rng := workload.NewRNG(77)
	for trial := 0; trial < 20; trial++ {
		parts := 1 + int(rng.Intn(8))
		ctx, err := hstreams.Init(hstreams.Config{Partitions: parts, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		buf := hstreams.AllocVirtual(ctx, "b", 1<<20, 4)
		tasks := randomDAG(rng, buf, 30)
		// Critical path over kernel durations alone (transfers and
		// queueing only lengthen the schedule). Kernel durations
		// depend on the partition; use the fastest partition as the
		// lower bound.
		durOf := func(c device.KernelCost) sim.Duration {
			d := ctx.Device(0).Partition(0).KernelTime(c)
			for _, p := range ctx.Device(0).Partitions() {
				if v := p.KernelTime(c); v < d {
					d = v
				}
			}
			return d
		}
		longest := make([]sim.Duration, len(tasks))
		var critical sim.Duration
		for i, task := range tasks {
			d := durOf(task.Cost)
			best := sim.Duration(0)
			for _, dep := range task.DependsOn {
				if longest[dep] > best {
					best = longest[dep]
				}
			}
			longest[i] = best + d
			if longest[i] > critical {
				critical = longest[i]
			}
		}
		start := ctx.Now()
		if _, err := EnqueuePhase(ctx, tasks); err != nil {
			t.Fatal(err)
		}
		makespan := ctx.Barrier().Sub(start)
		if makespan < critical {
			t.Fatalf("trial %d: makespan %v below critical path %v", trial, makespan, critical)
		}
	}
}

// Property: for a uniform tiled pipeline the simulated makespan lies
// between the analytic bounds — at least the half-duplex ideal (the
// link must carry every byte serially) and at most the fully serial
// schedule. This cross-validates the analyzer in analyze.go against
// the discrete-event engine.
func TestPropertySimulationWithinAnalyticBounds(t *testing.T) {
	rng := workload.NewRNG(31)
	for trial := 0; trial < 30; trial++ {
		tiles := 2 + rng.Intn(24)
		parts := 1 + rng.Intn(8)
		bytes := (1 + rng.Intn(64)) << 16
		flops := float64(1+rng.Intn(50)) * 1e8

		ctx, err := hstreams.Init(hstreams.Config{Partitions: parts, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		buf := hstreams.AllocVirtual(ctx, "b", bytes*tiles, 1)
		cost := device.KernelCost{Name: "k", Flops: flops}
		var tasks []*Task
		for i := 0; i < tiles; i++ {
			tasks = append(tasks, &Task{
				ID:         i,
				H2D:        []TransferSpec{Xfer(buf, i*bytes, bytes)},
				Cost:       cost,
				D2H:        []TransferSpec{Xfer(buf, i*bytes, bytes)},
				StreamHint: -1,
			})
		}
		res, err := Run(ctx, tasks, 0)
		if err != nil {
			t.Fatal(err)
		}

		xfer := ctx.Config().Link.TransferTime(int64(bytes))
		// The slowest partition bounds the per-tile kernel time.
		var kern sim.Duration
		for _, p := range ctx.Device(0).Partitions() {
			if v := p.KernelTime(cost); v > kern {
				kern = v
			}
		}
		fastKern := kern
		for _, p := range ctx.Device(0).Partitions() {
			if v := p.KernelTime(cost); v < fastKern {
				fastKern = v
			}
		}
		lower := HalfDuplexIdeal(xfer, fastKern, xfer, tiles)
		// With P partitions, kernels run at most P at a time:
		// the serial bound uses one stream's worth of every stage.
		upper := PipelineSerial([]sim.Duration{xfer, kern, xfer}, tiles)
		if parts > 1 {
			// Lower bound must also ignore kernel parallelism
			// beyond the link constraint; HalfDuplexIdeal's
			// kernel-bound branch assumes one kernel at a time,
			// so relax it to the link-only bound for multi-
			// partition runs.
			lower = 2 * xfer * sim.Duration(tiles)
		}
		if res.Wall < lower {
			t.Fatalf("trial %d (T=%d P=%d): wall %v below lower bound %v", trial, tiles, parts, res.Wall, lower)
		}
		if res.Wall > upper {
			t.Fatalf("trial %d (T=%d P=%d): wall %v above serial bound %v", trial, tiles, parts, res.Wall, upper)
		}
	}
}

// Property: Run's wall time equals the barrier-to-barrier window and
// its GFLOPS metric is consistent with it.
func TestPropertyResultConsistency(t *testing.T) {
	rng := workload.NewRNG(5)
	for trial := 0; trial < 20; trial++ {
		ctx, err := hstreams.Init(hstreams.Config{Partitions: 2, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		buf := hstreams.AllocVirtual(ctx, "b", 1<<20, 4)
		tasks := randomDAG(rng, buf, 10)
		flops := float64(1 + rng.Intn(1e9))
		res, err := Run(ctx, tasks, flops)
		if err != nil {
			t.Fatal(err)
		}
		want := flops / res.Wall.Seconds() / 1e9
		if diff := res.GFlops/want - 1; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: GFLOPS %v inconsistent with wall %v", trial, res.GFlops, res.Wall)
		}
		if res.OverlapFraction < 0 || res.OverlapFraction > 1 {
			t.Fatalf("trial %d: overlap fraction %v out of [0,1]", trial, res.OverlapFraction)
		}
	}
}

type enqueueWay struct {
	name    string
	enqueue func(*hstreams.Context, []*Task) (*PhaseEvents, error)
}

// enqueueWays are the two ways to enqueue a phase. The Phase.Add way
// reuses one Phase across calls and feeds every task through one
// reused Task variable and reused transfer and dependency lists, so
// agreeing with EnqueuePhase also shows that Reset starts afresh and
// Add keeps no reference to its task.
func enqueueWays() []enqueueWay {
	var ph Phase
	return []enqueueWay{
		{"Phase.Add", func(ctx *hstreams.Context, tasks []*Task) (*PhaseEvents, error) {
			ph.Reset(ctx, 0)
			var task Task
			var h2d, d2h []TransferSpec
			var deps []int
			for _, t := range tasks {
				task = *t
				h2d, d2h, deps = append(h2d[:0], t.H2D...), append(d2h[:0], t.D2H...), append(deps[:0], t.DependsOn...)
				task.H2D, task.D2H, task.DependsOn = h2d, d2h, deps
				if err := ph.Add(&task); err != nil {
					return nil, err
				}
			}
			return ph.Events(), nil
		}},
		{"EnqueuePhase", EnqueuePhase},
	}
}

// Task-ID layouts for the enqueue property: the paper apps' dense
// 0..n-1, all negative, all far beyond the task count, and a mix of
// both kinds with non-negative IDs that straddle the phase's dense
// limit.
const (
	idsDense = iota
	idsNegative
	idsFar
	idsMixed
	numIDLayouts
)

// relabel renumbers tasks built with IDs 0..n-1 into the given layout,
// rewriting DependsOn to match, and gates some H2D transfers on earlier
// tasks, so that dependencies and gates cross the dense/sparse split of
// the phase's event index.
func relabel(rng *workload.RNG, tasks []*Task, layout int) {
	n := len(tasks)
	negative := func() int { return -1 - rng.Intn(4*n) }
	far := func() int { return 1e9 + rng.Intn(1e6) }
	ids := make([]int, n)
	used := make(map[int]bool, n)
	for i := range ids {
		for {
			id := i
			switch layout {
			case idsNegative:
				id = negative()
			case idsFar:
				id = far()
			case idsMixed:
				switch rng.Intn(4) {
				case 0:
					id = negative()
				case 1:
					id = far()
				default:
					id = rng.Intn(3*n + 2*denseSlack)
				}
			}
			if !used[id] {
				used[id], ids[i] = true, id
				break
			}
		}
	}
	for i, t := range tasks {
		t.ID = ids[i]
		for k, d := range t.DependsOn {
			t.DependsOn[k] = ids[d]
		}
		for k := range t.H2D {
			// A negative AfterTask means "ungated", so only
			// tasks with non-negative IDs can gate a transfer.
			if i > 0 && rng.Intn(2) == 0 {
				if gate := ids[rng.Intn(i)]; gate >= 0 {
					t.H2D[k].AfterTask = gate
				}
			}
		}
	}
}

// plantCrossSplitID renames the first task to an unused ID that a
// Phase reset with no size hint puts in its map when that task is
// added, because it lies past the dense limit, but that lies within
// the limit once at+1 tasks are in. It returns the ID, or false if
// every such ID is taken.
func plantCrossSplitID(tasks []*Task, at int) (int, bool) {
	limit := func(added int) int { return (&Phase{n: added}).denseLimit() }
	used := make(map[int]bool, len(tasks))
	for _, t := range tasks {
		used[t.ID] = true
	}
	for id := limit(1); id < limit(at+1); id++ {
		if used[id] {
			continue
		}
		old := tasks[0].ID
		tasks[0].ID = id
		for _, t := range tasks {
			for k, d := range t.DependsOn {
				if d == old {
					t.DependsOn[k] = id
				}
			}
			for k := range t.H2D {
				if t.H2D[k].AfterTask == old {
					t.H2D[k].AfterTask = id
				}
			}
		}
		return id, true
	}
	return 0, false
}

// Property: Phase.Add task by task on a reused Phase and EnqueuePhase
// are one enqueue path. On random DAGs with some tasks pinned and some
// transfers gated, and with task IDs dense, negative, far beyond the
// task count or a mix of these, every task's kernel and done events
// complete at the same instants both ways. With a defect planted at a
// random position — a duplicate ID, a forward dependency, an
// out-of-range stream hint, a duplicate of an ID that the Phase.Add
// way (no size hint, so a smaller dense limit) first put in its map,
// or a gate on a task not yet added (a forward dependency when that
// task's ID is negative and so cannot gate) — both fail with the same
// error.
func TestPropertyEnqueueWaysAgree(t *testing.T) {
	rng := workload.NewRNG(4242)
	ways := enqueueWays()
	var layouts [numIDLayouts]int
	crossSplit := 0
	for trial := 0; trial < 80; trial++ {
		parts := 1 + rng.Intn(6)
		n := 3 + rng.Intn(40)
		layout := rng.Intn(numIDLayouts)
		defect := rng.Intn(6) // 0: none
		at := 1 + rng.Intn(n-2)
		graphSeed := rng.Uint64()
		layouts[layout]++
		type times struct{ kernel, done []sim.Time }
		var want times
		var wantErr string
		for wi, w := range ways {
			ctx, err := hstreams.Init(hstreams.Config{Partitions: parts})
			if err != nil {
				t.Fatal(err)
			}
			buf := hstreams.AllocVirtual(ctx, "b", 1<<20, 4)
			g := workload.NewRNG(graphSeed)
			tasks := randomDAG(g, buf, n)
			for _, task := range tasks {
				if g.Intn(4) == 0 {
					task.StreamHint = g.Intn(ctx.NumStreams())
				}
			}
			relabel(g, tasks, layout)
			crossID, crossOK := 0, false
			if defect == 4 {
				crossID, crossOK = plantCrossSplitID(tasks, at)
			}
			bad := *tasks[at]
			switch defect {
			case 1:
				bad.ID = tasks[at-1].ID
			case 2:
				bad.DependsOn = append(append([]int(nil), bad.DependsOn...), tasks[at+1].ID)
			case 3:
				bad.StreamHint = ctx.NumStreams()
			case 4:
				bad.ID = tasks[at-1].ID
				if crossOK {
					bad.ID = crossID
					if wi == 0 {
						crossSplit++
					}
				}
			case 5:
				if next := tasks[at+1].ID; next >= 0 {
					bad.H2D = append(append([]TransferSpec(nil), bad.H2D...), XferAfter(buf, 0, 1, next))
				} else {
					bad.DependsOn = append(append([]int(nil), bad.DependsOn...), next)
				}
			}
			tasks[at] = &bad
			ev, err := w.enqueue(ctx, tasks)
			if defect != 0 {
				if err == nil {
					t.Fatalf("trial %d: %s accepted defect %d at task %d", trial, w.name, defect, at)
				}
				if wi == 0 {
					wantErr = err.Error()
				} else if err.Error() != wantErr {
					t.Fatalf("trial %d: %s error %q, %s error %q", trial, w.name, err, ways[0].name, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, w.name, err)
			}
			ctx.Barrier()
			var got times
			for _, task := range tasks {
				got.kernel = append(got.kernel, ev.Kernel(task.ID).CompletedAt())
				got.done = append(got.done, ev.Done(task.ID).CompletedAt())
			}
			if wi == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s completion times %+v, %s %+v", trial, w.name, got, ways[0].name, want)
			}
		}
	}
	for l, c := range layouts {
		if c == 0 {
			t.Errorf("ID layout %d never drawn", l)
		}
	}
	if crossSplit == 0 {
		t.Error("no trial duplicated an ID across the dense/sparse split")
	}
}

// How a multi-phase scenario moves from one phase to the next.
const (
	// linkBarrier synchronizes the host before the next phase, so
	// every event of the phase has resolved when Reset recycles it.
	linkBarrier = iota
	// linkNone enqueues the next phase at once, so Reset meets the
	// phase's events still in flight.
	linkNone
	// linkOnDone enqueues the next phase from an OnDone callback on
	// the phase's last-added task, as the online scheduler dispatches
	// from a slice's completion: Reset runs while that event is still
	// running its waiters.
	linkOnDone
	numLinks
)

// multiPhase is a random scenario: phases of tasks and, after each
// phase, how the next one follows it.
type multiPhase struct {
	phases [][]*Task
	links  []int
}

// randomMultiPhase draws 2–6 phases of random DAGs with dependencies,
// pinned tasks, H2D transfers gated on earlier tasks, and H2D-only and
// D2H-only transfer tasks, counting what it drew in drawn: [0] gated
// transfers, [1] H2D-only tasks, [2] D2H-only tasks, [3 + link] links.
func randomMultiPhase(rng *workload.RNG, buf *hstreams.Buffer, streams int, drawn *[3 + numLinks]int) multiPhase {
	var sc multiPhase
	for range 2 + rng.Intn(5) {
		tasks := randomDAG(rng, buf, 2+rng.Intn(30))
		relabel(rng, tasks, idsDense)
		for _, t := range tasks {
			for _, x := range t.H2D {
				if x.AfterTask >= 0 {
					drawn[0]++
				}
			}
			if rng.Intn(4) == 0 {
				t.StreamHint = rng.Intn(streams)
			}
			switch rng.Intn(6) {
			case 0:
				if len(t.H2D) == 0 {
					t.H2D = []TransferSpec{Xfer(buf, 0, 1+rng.Intn(buf.Len()-1))}
				}
				t.Cost, t.D2H, t.TransferOnly = device.KernelCost{}, nil, true
				drawn[1]++
			case 1:
				if len(t.D2H) == 0 {
					t.D2H = []TransferSpec{Xfer(buf, 0, 1+rng.Intn(buf.Len()-1))}
				}
				t.Cost, t.H2D, t.TransferOnly = device.KernelCost{}, nil, true
				drawn[2]++
			}
		}
		link := rng.Intn(numLinks)
		drawn[3+link]++
		sc.phases = append(sc.phases, tasks)
		sc.links = append(sc.links, link)
	}
	return sc
}

// taskTimes are the resolution instants of one task's kernel and done
// events.
type taskTimes struct{ kernel, done sim.Time }

// play runs sc on ctx, enqueueing each phase with enqueue, and returns
// every task's completion instants, phase by phase. They are recorded
// by OnDone callbacks at resolution, so no event is read after the
// phase that made it has been reset. A barrier link inside a callback
// chain cannot synchronize the host, so it acts as linkOnDone there.
func play(t *testing.T, ctx *hstreams.Context, sc multiPhase, enqueue func([]*Task) (*PhaseEvents, error)) [][]taskTimes {
	times := make([][]taskTimes, len(sc.phases))
	var run func(j int, nested bool)
	run = func(j int, nested bool) {
		tasks := sc.phases[j]
		ev, err := enqueue(tasks)
		if err != nil {
			t.Fatalf("phase %d: %v", j, err)
		}
		times[j] = make([]taskTimes, len(tasks))
		for i, task := range tasks {
			tt := &times[j][i]
			if ev.Kernel(task.ID).Done() || ev.Done(task.ID).Done() {
				t.Fatalf("phase %d: task %d resolved while it was being enqueued", j, task.ID)
			}
			ev.Kernel(task.ID).OnDone(func() { tt.kernel = ctx.Now() })
			ev.Done(task.ID).OnDone(func() { tt.done = ctx.Now() })
		}
		if j+1 == len(sc.phases) {
			return
		}
		switch link := sc.links[j]; {
		case link == linkNone:
			run(j+1, nested)
		case link == linkBarrier && !nested:
			ctx.Barrier()
			run(j+1, false)
		default:
			ev.Done(tasks[len(tasks)-1].ID).OnDone(func() { run(j+1, true) })
		}
	}
	run(0, false)
	ctx.Drain()
	return times
}

// Property: a Phase reused across phases, whose Reset recycles the
// previous phase's resolved events, schedules exactly as a fresh
// EnqueuePhase per phase, which recycles nothing. Over random
// multi-phase scenarios — barriers between phases, phases enqueued
// while the previous one is in flight, and phases enqueued from an
// OnDone callback that resets the phase while its last event is still
// resolving — every task's kernel and done events resolve at the same
// instants both ways. A recycled event that was still in flight, or a
// stream that kept a recycled event as its last, would show here as a
// moved or missing completion.
func TestPropertyRecycledPhaseEventsAgree(t *testing.T) {
	rng := workload.NewRNG(2323)
	var drawn [3 + numLinks]int
	for trial := 0; trial < 120; trial++ {
		cfg := hstreams.Config{Partitions: 1 + rng.Intn(6), StreamsPerPartition: 1 + rng.Intn(2)}
		seed := rng.Uint64()
		var want [][]taskTimes
		for way := 0; way < 2; way++ {
			ctx, err := hstreams.Init(cfg)
			if err != nil {
				t.Fatal(err)
			}
			buf := hstreams.AllocVirtual(ctx, "b", 1<<20, 4)
			counts := new([3 + numLinks]int)
			if way == 0 {
				counts = &drawn
			}
			sc := randomMultiPhase(workload.NewRNG(seed), buf, ctx.NumStreams(), counts)
			if way == 0 {
				want = play(t, ctx, sc, func(tasks []*Task) (*PhaseEvents, error) {
					return EnqueuePhase(ctx, tasks)
				})
				continue
			}
			var ph Phase
			got := play(t, ctx, sc, func(tasks []*Task) (*PhaseEvents, error) {
				ph.Reset(ctx, len(tasks))
				err := ph.add(tasks)
				return ph.Events(), err
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: reused Phase completion times %v, fresh EnqueuePhase %v", trial, got, want)
			}
		}
	}
	for i, c := range drawn {
		if c == 0 {
			t.Errorf("scenario feature %d never drawn", i)
		}
	}
}

// randomShape draws a platform shape: 1–4 devices, 1–6 partitions,
// one or two streams per partition, a full span log, a stage record or
// none, and a half- or full-duplex link. It counts the recorder kinds
// and link modes drawn in drawn.
func randomShape(rng *workload.RNG, drawn *[5]int) hstreams.Config {
	cfg := hstreams.Config{
		Devices:             1 + rng.Intn(4),
		Partitions:          1 + rng.Intn(6),
		StreamsPerPartition: 1 + rng.Intn(2),
		Link:                pcie.DefaultConfig(),
	}
	rec := rng.Intn(3)
	cfg.Trace, cfg.Stages = rec == 0, rec == 1
	cfg.Link.FullDuplex = rng.Intn(2) == 0
	drawn[rec]++
	if cfg.Link.FullDuplex {
		drawn[3]++
	} else {
		drawn[4]++
	}
	return cfg
}

// Property: a rig reset to a new shape runs exactly as a context fresh
// from Init. Each trial dirties a rig with one random multi-phase
// scenario on a random shape, resets it to another random shape, and
// plays a second scenario there, with work of the first still in
// flight at the reset; every task's kernel and done events
// resolve at the same instants, the stage analysis reads the same,
// and a traced run records the same spans, as the second scenario on
// a fresh context. Stale events, waiter links, engine entries, server
// reservations, streams, partitions or recorder intervals carried
// over by Reset would show here.
func TestPropertyResetContextsAgree(t *testing.T) {
	rng := workload.NewRNG(2424)
	var drawn [3 + numLinks]int
	var shapes [5]int
	var rig Rig
	for trial := 0; trial < 150; trial++ {
		first, cfg := randomShape(rng, &shapes), randomShape(rng, &shapes)
		dirty, seed := rng.Uint64(), rng.Uint64()
		run := func(ctx *hstreams.Context, ph *Phase, seed uint64, counts *[3 + numLinks]int) ([][]taskTimes, trace.StageTimes, []trace.Span) {
			buf := hstreams.AllocVirtual(ctx, "b", 1<<20, 4)
			sc := randomMultiPhase(workload.NewRNG(seed), buf, ctx.NumStreams(), counts)
			times := play(t, ctx, sc, func(tasks []*Task) (*PhaseEvents, error) {
				ph.Reset(ctx, len(tasks))
				err := ph.add(tasks)
				return ph.Events(), err
			})
			return times, ctx.Recorder().StageTimes(), ctx.Recorder().Spans()
		}
		fresh, err := hstreams.Init(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStages, wantSpans := run(fresh, new(Phase), seed, &drawn)

		ctx, ph, err := rig.Reset(first)
		if err != nil {
			t.Fatal(err)
		}
		run(ctx, ph, dirty, new([3 + numLinks]int))
		// Leave work in flight: Reset must drop it undelivered.
		left := ctx.Stream(ctx.NumStreams()-1).EnqueueKernel(device.KernelCost{Name: "left", Flops: 1e9}, 0, nil)
		left.OnDone(func() { t.Errorf("trial %d: work in flight at Reset ran after it", trial) })
		if ctx, ph, err = rig.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		got, gotStages, gotSpans := run(ctx, ph, seed, new([3 + numLinks]int))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: completion times on a reset rig %v, on a fresh context %v", trial, got, want)
		}
		if gotStages != wantStages {
			t.Fatalf("trial %d: stage analysis on a reset rig %+v, on a fresh context %+v", trial, gotStages, wantStages)
		}
		if !reflect.DeepEqual(gotSpans, wantSpans) {
			t.Fatalf("trial %d: a reset rig recorded %d spans, a fresh context %d, or they differ", trial, len(gotSpans), len(wantSpans))
		}
	}
	for i, c := range append(drawn[:], shapes[:]...) {
		if c == 0 {
			t.Errorf("scenario or shape feature %d never drawn", i)
		}
	}
}
