// Package core is the paper's contribution layer: it turns a tiled
// offload workload — tasks with H2D, kernel-execution and D2H stages —
// into enqueues on an hstreams context, measures the outcome, and
// implements the task/resource-granularity tuner with the
// search-space-reduction heuristics of §V-C.
//
// The package separates three concerns:
//
//   - pipeline.go: executing a task DAG over the streams of a context
//     (temporal + spatial sharing);
//   - tuner.go / heuristics.go: choosing the number of partitions P and
//     tiles T, either exhaustively or with the paper's pruned space;
//   - analyze.go: quantifying overlap from traces and computing the
//     ideal fully-overlapped pipeline time the paper plots in Fig. 6.
package core

import (
	"fmt"
	"slices"

	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/sim"
)

// TransferSpec names a contiguous element range of a buffer to move.
type TransferSpec struct {
	// Buf is the buffer to transfer from/to.
	Buf *hstreams.Buffer
	// Off is the first element of the range.
	Off int
	// N is the element count.
	N int
	// AfterTask, when ≥ 0, gates the transfer on the completion
	// (kernel plus outputs) of the referenced task — the staging
	// pattern for moving a producer's tile to a consumer on another
	// device (Fig. 11's multi-MIC runs). Only H2D transfers honour
	// it; a task's D2H outputs are already ordered after its kernel
	// by stream FIFO. Use Xfer for the common ungated case; the zero
	// value of this field is task 0, not "none".
	AfterTask int
}

// Xfer builds an ungated TransferSpec.
func Xfer(buf *hstreams.Buffer, off, n int) TransferSpec {
	return TransferSpec{Buf: buf, Off: off, N: n, AfterTask: -1}
}

// XferAfter builds a TransferSpec gated on another task's completion.
func XferAfter(buf *hstreams.Buffer, off, n, afterTask int) TransferSpec {
	return TransferSpec{Buf: buf, Off: off, N: n, AfterTask: afterTask}
}

// Task is one unit of offloaded work: input transfers, one kernel, and
// output transfers, as in the paper's flow diagrams (Fig. 4).
type Task struct {
	// ID identifies the task; DependsOn references these IDs. IDs
	// must be unique within one phase.
	ID int
	// H2D lists input transfers; they precede the kernel in the
	// task's stream.
	H2D []TransferSpec
	// Cost drives the timing model for the kernel.
	Cost device.KernelCost
	// Body is the kernel's functional implementation (may be nil).
	Body func(*hstreams.KernelCtx)
	// D2H lists output transfers; they follow the kernel.
	D2H []TransferSpec
	// DependsOn lists tasks whose kernels must complete before this
	// task's kernel starts (device-resident data dependencies, as
	// between Cholesky tiles). Referenced tasks must be added to the
	// phase earlier.
	DependsOn []int
	// StreamHint pins the task to a specific stream; -1 (or any
	// negative value) selects round-robin placement.
	StreamHint int
	// TransferOnly marks a task that ships data but launches no
	// kernel: an H2D-only task (e.g. a shared input panel used by many
	// compute tasks) or a D2H-only one (a result tile shipped back
	// after a barrier). Its declared dependencies gate its first
	// transfer, and its "kernel" event — what dependents gate on — is
	// the completion of its last transfer, so Kernel(id) == Done(id).
	// Cost and Body must be empty, and exactly one of H2D and D2H
	// must be non-empty.
	TransferOnly bool
}

// PhaseEvents indexes the completion events of an enqueued phase by
// task ID. Both events of a task sit in one entry. An ID in [0, limit),
// where limit grows with the phase's size (see Phase.denseLimit), is
// the entry's index in a dense slice; any other ID — negative, or far
// beyond the phase's task count — goes to a map that exists only once
// such an ID has appeared. The paper apps number their tasks densely,
// and a scheduler slice carries its job's small task IDs, so neither
// makes the map, while a phase with IDs {0, 1e9} holds two entries,
// not a billion.
type PhaseEvents struct {
	dense  []taskEvents
	sparse map[int]taskEvents
}

// taskEvents are one task's completion events; a nil kernel marks an
// unused entry.
type taskEvents struct{ kernel, done *hstreams.Event }

// Kernel returns the kernel-completion event of task id, or nil if the
// phase has no such task. A transfer-only task's is its last H2D.
func (e *PhaseEvents) Kernel(id int) *hstreams.Event { return e.get(id).kernel }

// Done returns the final event of task id (its last D2H, or the kernel
// when it has no outputs), or nil if the phase has no such task.
func (e *PhaseEvents) Done(id int) *hstreams.Event { return e.get(id).done }

// get looks id up on whichever side of the dense/sparse split holds it.
// An ID can reach the map while it lies beyond the limit and later fall
// inside the grown limit, so an empty dense entry defers to the map.
func (e *PhaseEvents) get(id int) taskEvents {
	if uint(id) < uint(len(e.dense)) && e.dense[id].kernel != nil {
		return e.dense[id]
	}
	return e.sparse[id]
}

// set records the events of a task new to the phase: in the dense
// slice when 0 ≤ id < limit, otherwise in the map, made on first use.
func (e *PhaseEvents) set(id, limit int, te taskEvents) {
	if id < 0 || id >= limit {
		if e.sparse == nil {
			e.sparse = make(map[int]taskEvents)
		}
		e.sparse[id] = te
		return
	}
	if id >= len(e.dense) {
		// Slots past len are zero: reset clears what it truncates,
		// and growth copies them into fresh storage.
		e.dense = slices.Grow(e.dense, id+1-len(e.dense))[:id+1]
	}
	e.dense[id] = te
}

// reset empties the index, keeping its storage: it clears only the used
// prefix of the dense slice, and the map if one was made.
func (e *PhaseEvents) reset() {
	clear(e.dense)
	e.dense = e.dense[:0]
	clear(e.sparse)
}

// Phase is the one enqueue path: it enqueues a phase's tasks one at a
// time onto the context's streams, round-robin unless a task carries a
// StreamHint, without synchronizing. Within a stream the enqueue order
// of a task is H2D*, kernel, D2H*, so a task's own stages are
// FIFO-ordered; cross-task dependencies gate kernels via events. Add
// enqueues its task at once and keeps no reference to it or to its
// slices, so a caller can build a phase's task once and change only
// the fields that vary from task to task (the paper apps set the ID,
// the cost's size and the transfers), instead of materialising the
// phase as a []*Task.
//
// The zero Phase is ready for Reset, and Reset starts the next phase
// on the same storage. A phase owns the events its Add calls create:
// Reset hands the resolved ones back to their context for reuse, so a
// caller that enqueues phase after phase, each after a Barrier,
// allocates its event index and its events once, for its largest
// phase. A Rig carries a phase from run to run the same way.
type Phase struct {
	ctx  *hstreams.Context
	ev   PhaseEvents
	hint int // Reset's sizeHint
	n    int // tasks added since Reset
	rr   int // next round-robin stream
	// owned lists every event enqueued since Reset, each once, for
	// Reset to recycle.
	owned []*hstreams.Event

	// deps and xdeps are Add's dependency scratch; hstreams reads a
	// dependency list only during the enqueue call.
	deps, xdeps []*hstreams.Event
}

// denseSlack is the part of the dense limit that does not scale with
// the phase, so a small phase whose IDs start past zero — a scheduler
// slice of a job's later tasks — still indexes densely.
const denseSlack = 64

// denseLimit bounds the IDs that the event index keeps in its dense
// slice. It is derived from the phase's own size, the larger of
// Reset's sizeHint and the tasks added so far, so the slice stays
// within a constant factor of the phase however large its IDs.
func (p *Phase) denseLimit() int { return 2*max(p.hint, p.n) + denseSlack }

// Reset starts a phase on ctx, ending the previous one: its events
// that have resolved go back to their context (hstreams.Context.Recycle)
// to be reused by later enqueues, and its unresolved ones are dropped
// unreused. No event of the previous phase may be used after Reset,
// which is why a callback that resets the phase while one of its
// events is still running that event's waiters is safe: it is the
// last use. sizeHint, the expected task count, sizes the event index
// and its dense limit. A nil ctx ends the previous phase and starts
// none.
func (p *Phase) Reset(ctx *hstreams.Context, sizeHint int) {
	if p.ctx != nil {
		p.ctx.Recycle(p.owned)
	}
	clear(p.owned)
	p.owned = p.owned[:0]
	p.ctx, p.hint, p.n, p.rr = ctx, sizeHint, 0, 0
	p.ev.reset()
	if cap(p.ev.dense) < p.hint {
		p.ev.dense = make([]taskEvents, 0, p.hint)
	}
}

// Rig is one reusable platform: a context and a phase on it, reshaped
// for each run instead of built and dropped. The zero Rig is ready for
// Reset. A rig is for one goroutine; the paper sweeps give each worker
// its own.
type Rig struct {
	ctx *hstreams.Context
	ph  Phase
}

// Reset ends the rig's previous run and shapes its context as cfg
// (hstreams.Context.Reset), returning the context and the rig's phase,
// which is ended: start it on the context with Phase.Reset. The
// previous phase's resolved events go back to the context before the
// context is reshaped, so the new run reuses them; Reset is where that
// order is kept. Nothing of the previous run may be used afterwards.
// A failed Reset returns hstreams.Init's error for cfg and leaves the
// context in its previous shape, its previous run ended.
func (r *Rig) Reset(cfg hstreams.Config) (*hstreams.Context, *Phase, error) {
	r.ph.Reset(nil, 0)
	if r.ctx == nil {
		r.ctx = new(hstreams.Context)
	}
	if err := r.ctx.Reset(cfg); err != nil {
		return nil, nil, err
	}
	return r.ctx, &r.ph, nil
}

// Events returns the completion events of the tasks added since Reset.
// They stay valid until the next Reset, which may reuse them for other
// actions, and are partial after Add returns an error.
func (p *Phase) Events() *PhaseEvents { return &p.ev }

// Add enqueues t. Its dependencies, and the tasks its H2D transfers
// are gated on, must have been added earlier in the phase.
func (p *Phase) Add(t *Task) error {
	ev := &p.ev
	i := p.n
	p.n++
	if ev.get(t.ID).kernel != nil {
		return fmt.Errorf("core: duplicate task id %d", t.ID)
	}
	n := p.ctx.NumStreams()
	var s *hstreams.Stream
	if t.StreamHint >= 0 {
		if t.StreamHint >= n {
			return fmt.Errorf("core: task %d stream hint %d out of range [0,%d)", t.ID, t.StreamHint, n)
		}
		s = p.ctx.Stream(t.StreamHint)
	} else {
		s = p.ctx.Stream(p.rr % n)
		p.rr++
	}
	deps := p.deps[:0]
	for _, d := range t.DependsOn {
		kev := ev.get(d).kernel
		if kev == nil {
			return fmt.Errorf("core: task %d depends on %d which is not enqueued yet (tasks %d positions in)", t.ID, d, i)
		}
		deps = append(deps, kev)
	}
	p.deps = deps
	if t.TransferOnly {
		switch {
		case t.Body != nil || t.Cost != (device.KernelCost{}):
			return fmt.Errorf("core: transfer-only task %d carries a kernel body or cost", t.ID)
		case len(t.H2D) > 0 && len(t.D2H) > 0:
			return fmt.Errorf("core: transfer-only task %d moves data both ways", t.ID)
		case len(t.H2D) == 0 && len(t.D2H) == 0:
			return fmt.Errorf("core: transfer-only task %d has no transfers", t.ID)
		}
	}
	var kev, last *hstreams.Event
	for xi, x := range t.H2D {
		xdeps := p.xdeps[:0]
		if t.TransferOnly && xi == 0 {
			// With no kernel to gate, the task's declared
			// dependencies gate its first transfer (stream
			// FIFO orders the rest).
			xdeps = append(xdeps, deps...)
		}
		if x.AfterTask >= 0 {
			gate := ev.get(x.AfterTask).done
			if gate == nil {
				return fmt.Errorf("core: task %d H2D gated on %d which is not enqueued yet", t.ID, x.AfterTask)
			}
			xdeps = append(xdeps, gate)
		}
		p.xdeps = xdeps
		hev, err := s.EnqueueH2D(x.Buf, x.Off, x.N, t.ID, xdeps...)
		if err != nil {
			return fmt.Errorf("core: task %d H2D: %w", t.ID, err)
		}
		p.owned = append(p.owned, hev)
		last = hev
	}
	if !t.TransferOnly {
		kev = s.EnqueueKernel(t.Cost, t.ID, t.Body, deps...)
		p.owned = append(p.owned, kev)
		last = kev
		deps = nil
	}
	for _, x := range t.D2H {
		// A D2H-only task's dependencies gate its first transfer, as
		// an H2D-only task's do; a kernel's outputs follow it by
		// stream FIFO.
		dev, err := s.EnqueueD2H(x.Buf, x.Off, x.N, t.ID, deps...)
		if err != nil {
			return fmt.Errorf("core: task %d D2H: %w", t.ID, err)
		}
		p.owned = append(p.owned, dev)
		last, deps = dev, nil
	}
	if t.TransferOnly {
		kev = last
	}
	ev.set(t.ID, p.denseLimit(), taskEvents{kev, last})
	return nil
}

// add enqueues tasks in order, stopping at the first error.
func (p *Phase) add(tasks []*Task) error {
	for _, t := range tasks {
		if err := p.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// EnqueuePhase enqueues tasks as one Phase and returns their events.
// Tasks must be listed in topological order of DependsOn.
func EnqueuePhase(ctx *hstreams.Context, tasks []*Task) (*PhaseEvents, error) {
	p := new(Phase)
	p.Reset(ctx, len(tasks))
	if err := p.add(tasks); err != nil {
		return nil, err
	}
	return p.Events(), nil
}

// Run enqueues tasks as one Phase, waits for completion, and
// summarizes the run. flops is the workload's total useful
// floating-point work, used for the GFLOPS metric. The wall-clock
// window starts at the context's current virtual time, so Run composes
// with prior phases.
func Run(ctx *hstreams.Context, tasks []*Task, flops float64) (Result, error) {
	start := ctx.Now()
	if _, err := EnqueuePhase(ctx, tasks); err != nil {
		return Result{}, err
	}
	end := ctx.Barrier()
	return Summarize(ctx, flops, end.Sub(start)), nil
}

// Summarize assembles a Result from the context's stage intervals and
// the measured wall time.
func Summarize(ctx *hstreams.Context, flops float64, wall sim.Duration) Result {
	r := Result{
		Wall:       wall,
		Flops:      flops,
		Partitions: ctx.Config().Partitions,
		Streams:    ctx.NumStreams(),
	}
	if wall > 0 && flops > 0 {
		r.GFlops = flops / wall.Seconds() / 1e9
	}
	st := ctx.Recorder().StageTimes()
	r.H2DBusy, r.D2HBusy, r.KernelBusy = st.H2D, st.D2H, st.Kernel
	r.OverlapFraction = st.TransferComputeOverlap
	return r
}

// Result summarizes one experiment run.
type Result struct {
	// Wall is the virtual wall-clock duration of the run.
	Wall sim.Duration
	// Flops is the useful floating-point work attributed to the run.
	Flops float64
	// GFlops is the achieved throughput (0 when Flops unknown).
	GFlops float64
	// Partitions and Streams record the resource granularity used.
	Partitions int
	Streams    int
	// H2DBusy, D2HBusy and KernelBusy are per-stage busy times from
	// the context's recorder (zero when neither Trace nor Stages is
	// set in its hstreams.Config).
	H2DBusy, D2HBusy, KernelBusy sim.Duration
	// OverlapFraction is the fraction of transfer time hidden behind
	// kernel execution (temporal sharing achieved); zero, too, when
	// neither Trace nor Stages is set.
	OverlapFraction float64
}

// String renders the result compactly for logs and CLIs.
func (r Result) String() string {
	if r.Flops > 0 {
		return fmt.Sprintf("%.3fms (%.1f GFLOPS, overlap %.0f%%)",
			r.Wall.Milliseconds(), r.GFlops, r.OverlapFraction*100)
	}
	return fmt.Sprintf("%.3fms (overlap %.0f%%)", r.Wall.Milliseconds(), r.OverlapFraction*100)
}
