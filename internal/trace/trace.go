// Package trace records what happened on each simulated resource and
// when. The paper reasons about stream performance through the overlap
// (or lack of overlap) of three stage classes — H2D transfers, kernel
// execution, and D2H transfers — so the tracer's main analysis products
// are per-class busy time and pairwise overlap between classes. It also
// renders ASCII Gantt charts (cmd/micgantt) that make the temporal
// sharing of Fig. 1 directly visible.
package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"micstream/internal/sim"
)

// Kind classifies a span by pipeline stage.
type Kind uint8

// Span classes. H2D/D2H/Kernel mirror the paper's three offload stages;
// Host covers CPU-side work between syncs, Alloc covers device memory
// management overhead that the paper identifies in Kmeans.
const (
	H2D Kind = iota
	D2H
	Kernel
	Host
	Alloc
	Sync
)

var kindNames = [...]string{"H2D", "D2H", "EXE", "HOST", "ALLOC", "SYNC"}

// String returns the short stage label used in paper-style flow charts.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Span is one contiguous occupancy of a resource.
type Span struct {
	Resource string   // e.g. "mic0/pcie", "mic0/part3"
	Stream   int      // logical stream id, -1 if not stream-bound
	Task     int      // application task id, -1 if not task-bound
	Kind     Kind     // stage class
	Label    string   // free-form, e.g. kernel name
	Start    sim.Time // inclusive
	End      sim.Time // exclusive
}

// Duration reports the span length.
func (s Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// Recorder accumulates spans. A nil *Recorder is a valid no-op sink, so
// hot paths can record unconditionally.
//
// Every recorder folds each span into its Kind's class as it arrives:
// the busy intervals and summed span lengths that BusyTime, Overlap,
// TransferComputeOverlap, StageTimes and TotalTime read, and the
// latest span end. A full recorder (NewRecorder) also keeps the spans
// for Spans and Gantt; a stage recorder (NewStageRecorder) keeps none,
// so its Spans is nil and Gantt prints the empty trace. The analysis
// works in the recorder's own storage — it merges each class's
// intervals in place and builds the transfer union in one reused
// scratch slice — so it must not run concurrently with another call on
// the same recorder.
type Recorder struct {
	spans []Span
	// classes is indexed by Kind.
	classes []kindClass
	// stage is set by NewStageRecorder: Add keeps no span.
	stage bool
	// stopped is set by Stop: Add drops every span until Reset.
	stopped bool
	end     sim.Time // latest span end
	// xfer is StageTimes' scratch for the transfer union.
	xfer []interval
}

// kindClass is one Kind's record. busy holds the non-empty spans
// with each one that touches or overlaps its predecessor folded into
// it, so it has the spans' union; the analysis sorts and merges it in
// place, which keeps that union, and later spans fold into its last
// interval as before. It holds no pointers, so the collector never
// scans it.
type kindClass struct {
	busy  []interval
	total sim.Duration
}

// NewRecorder returns an empty recorder that keeps every span.
func NewRecorder() *Recorder {
	return &Recorder{classes: make([]kindClass, len(kindNames))}
}

// NewStageRecorder returns an empty stage recorder: it keeps per-class
// busy intervals for the stage analysis and no span log.
func NewStageRecorder() *Recorder {
	return &Recorder{classes: make([]kindClass, len(kindNames)), stage: true}
}

// KeepsSpans reports whether Add stores the span itself, so that call
// sites format labels only when a span is kept. It is false for a nil
// recorder, a stage recorder and a stopped one.
func (r *Recorder) KeepsSpans() bool { return r != nil && !r.stage && !r.stopped }

// Stop makes Add drop every later span, until Reset: what was recorded
// stays readable, but nothing more is kept or analysed.
func (r *Recorder) Stop() {
	if r != nil {
		r.stopped = true
	}
}

// Add records a span. Calls on a nil or stopped recorder are dropped.
func (r *Recorder) Add(s Span) {
	if r == nil || r.stopped {
		return
	}
	if s.End > r.end {
		r.end = s.End
	}
	if !r.stage {
		r.spans = append(r.spans, s)
	}
	for int(s.Kind) >= len(r.classes) {
		r.classes = append(r.classes, kindClass{})
	}
	c := &r.classes[s.Kind]
	c.total += s.Duration()
	if s.End <= s.Start {
		return
	}
	if n := len(c.busy); n > 0 && s.Start <= c.busy[n-1].hi && s.End >= c.busy[n-1].lo {
		last := &c.busy[n-1]
		last.lo, last.hi = min(last.lo, s.Start), max(last.hi, s.End)
		return
	}
	c.busy = append(c.busy, interval{s.Start, s.End})
}

// Reset discards everything recorded but keeps the recorder usable,
// keeping spans or not as before; a stopped recorder records again.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.stopped = false
	r.spans = r.spans[:0]
	r.end = 0
	for i := range r.classes {
		r.classes[i] = kindClass{busy: r.classes[i].busy[:0]}
	}
}

// Spans returns the recorded spans in insertion order (nil for a stage
// recorder). The returned slice aliases the recorder's storage;
// callers must not mutate it.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Len reports the number of recorded spans (0 for a stage recorder).
func (r *Recorder) Len() int { return len(r.Spans()) }

// Makespan reports the end of the latest span.
func (r *Recorder) Makespan() sim.Time {
	if r == nil {
		return 0
	}
	return r.end
}

// BusyTime reports the union length of all spans of the given kind —
// i.e. wall time during which at least one span of that kind was
// active. Overlapping spans (different partitions computing at once)
// are not double counted.
func (r *Recorder) BusyTime(kind Kind) sim.Duration {
	return length(r.busy(kind))
}

// TotalTime reports the summed lengths of all spans of the given kind,
// counting concurrent spans multiply (resource-seconds).
func (r *Recorder) TotalTime(kind Kind) sim.Duration {
	if r == nil || int(kind) >= len(r.classes) {
		return 0
	}
	return r.classes[kind].total
}

// Overlap reports the wall time during which at least one span of kind
// a and one span of kind b were simultaneously active. This is the
// paper's "temporal sharing": Overlap(H2D, Kernel) > 0 means transfers
// were hidden behind compute.
func (r *Recorder) Overlap(a, b Kind) sim.Duration {
	return intersectionLength(r.busy(a), r.busy(b))
}

// StageTimes is the stage analysis of one run: busy time of the
// paper's three offload stages and the share of transfer time hidden
// behind kernels.
type StageTimes struct {
	// H2D, D2H and Kernel are BusyTime of each class.
	H2D, D2H, Kernel sim.Duration
	// TransferComputeOverlap is as the method of that name reports.
	TransferComputeOverlap float64
}

// StageTimes computes the stage analysis from one merge per class.
func (r *Recorder) StageTimes() StageTimes {
	if r == nil {
		return StageTimes{}
	}
	h2d, d2h, exe := r.busy(H2D), r.busy(D2H), r.busy(Kernel)
	st := StageTimes{H2D: length(h2d), D2H: length(d2h), Kernel: length(exe)}
	r.xfer = mergeIntervals(append(append(r.xfer[:0], h2d...), d2h...))
	if total := length(r.xfer); total > 0 {
		st.TransferComputeOverlap = intersectionLength(r.xfer, exe).Seconds() / total.Seconds()
	}
	return st
}

// TransferComputeOverlap reports overlap of any transfer (H2D or D2H)
// with kernel execution, as a fraction of total transfer busy time.
// Returns 0 when there were no transfers.
func (r *Recorder) TransferComputeOverlap() float64 {
	return r.StageTimes().TransferComputeOverlap
}

type interval struct{ lo, hi sim.Time }

// busy returns the merged busy intervals of one kind: the class's own
// intervals, merged in place.
func (r *Recorder) busy(kind Kind) []interval {
	if r == nil || int(kind) >= len(r.classes) {
		return nil
	}
	c := &r.classes[kind]
	c.busy = mergeIntervals(c.busy)
	return c.busy
}

// mergeIntervals sorts and coalesces overlapping and touching
// intervals in place. The result is the one sorted list of disjoint,
// non-touching intervals with the same union, whatever the input order.
func mergeIntervals(in []interval) []interval {
	if len(in) == 0 {
		return in
	}
	slices.SortFunc(in, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	out := in[:1]
	for _, iv := range in[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			last.hi = max(last.hi, iv.hi)
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// length sums the lengths of a merged interval set.
func length(in []interval) sim.Duration {
	var t sim.Duration
	for _, iv := range in {
		t += iv.hi.Sub(iv.lo)
	}
	return t
}

// intersectionLength computes the total length of the intersection of
// two already-merged interval sets.
func intersectionLength(a, b []interval) sim.Duration {
	var t sim.Duration
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].lo
		if b[j].lo > lo {
			lo = b[j].lo
		}
		hi := a[i].hi
		if b[j].hi < hi {
			hi = b[j].hi
		}
		if hi > lo {
			t += hi.Sub(lo)
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return t
}

// Gantt renders the trace as an ASCII chart, one row per resource,
// width columns wide. Each cell shows the stage class active at that
// virtual instant ('H' H2D, 'D' D2H, '#' kernel, 'h' host, 'a' alloc),
// '.' for idle. Rows are sorted by resource name for stable output.
func (r *Recorder) Gantt(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	spans := r.Spans()
	if len(spans) == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	makespan := r.Makespan()
	if makespan == 0 {
		makespan = 1
	}
	byRes := map[string][]Span{}
	for _, s := range spans {
		byRes[s.Resource] = append(byRes[s.Resource], s)
	}
	names := make([]string, 0, len(byRes))
	nameW := 0
	for n := range byRes {
		names = append(names, n)
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	sort.Strings(names)
	glyph := map[Kind]byte{H2D: 'H', D2H: 'D', Kernel: '#', Host: 'h', Alloc: 'a', Sync: 's'}
	for _, n := range names {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		// byRes[n] is one resource's span slice, visited in sorted
		// name order; no map is ranged here.
		for _, s := range byRes[n] {
			lo := int(int64(s.Start) * int64(width) / int64(makespan))
			hi := int(int64(s.End) * int64(width) / int64(makespan))
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			g := glyph[s.Kind]
			if g == 0 {
				g = '?'
			}
			for i := lo; i < hi; i++ {
				row[i] = g
			}
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", nameW, n, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s  0%s%v\n", nameW, "", strings.Repeat(" ", width-len(makespan.String())), makespan)
	return err
}
