package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"micstream/internal/sim"
)

func span(res string, kind Kind, start, end sim.Time) Span {
	return Span{Resource: res, Stream: -1, Task: -1, Kind: kind, Start: start, End: end}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(span("x", H2D, 0, 10)) // must not panic
	r.Reset()
	if r.Len() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder should report empty")
	}
	if r.BusyTime(H2D) != 0 {
		t.Fatal("nil recorder busy time should be 0")
	}
}

func TestBusyTimeCoalescesOverlaps(t *testing.T) {
	r := NewRecorder()
	r.Add(span("p0", Kernel, 0, 100))
	r.Add(span("p1", Kernel, 50, 150)) // overlaps the first
	r.Add(span("p2", Kernel, 200, 250))
	if got := r.BusyTime(Kernel); got != 200 {
		t.Fatalf("BusyTime = %v, want 200 (union of [0,150] and [200,250])", got)
	}
	if got := r.TotalTime(Kernel); got != 250 {
		t.Fatalf("TotalTime = %v, want 250 (sum)", got)
	}
}

func TestOverlapBetweenKinds(t *testing.T) {
	r := NewRecorder()
	r.Add(span("link", H2D, 0, 100))
	r.Add(span("p0", Kernel, 60, 160))
	if got := r.Overlap(H2D, Kernel); got != 40 {
		t.Fatalf("Overlap = %v, want 40", got)
	}
	if got := r.Overlap(D2H, Kernel); got != 0 {
		t.Fatalf("Overlap(D2H, Kernel) = %v, want 0", got)
	}
}

func TestTransferComputeOverlapFraction(t *testing.T) {
	r := NewRecorder()
	r.Add(span("link", H2D, 0, 100))
	r.Add(span("link", D2H, 100, 200))
	r.Add(span("p0", Kernel, 50, 150))
	// transfers busy [0,200]=200; kernel [50,150]; intersection=100.
	if got := r.TransferComputeOverlap(); got != 0.5 {
		t.Fatalf("TransferComputeOverlap = %v, want 0.5", got)
	}
	// No transfers -> 0, not NaN.
	empty := NewRecorder()
	empty.Add(span("p0", Kernel, 0, 10))
	if got := empty.TransferComputeOverlap(); got != 0 {
		t.Fatalf("overlap with no transfers = %v, want 0", got)
	}
}

func TestMakespanAndReset(t *testing.T) {
	r := NewRecorder()
	r.Add(span("a", H2D, 0, 10))
	r.Add(span("b", Kernel, 5, 42))
	if r.Makespan() != 42 {
		t.Fatalf("makespan = %v, want 42", r.Makespan())
	}
	r.Reset()
	if r.Len() != 0 || r.Makespan() != 0 {
		t.Fatal("reset did not clear recorder")
	}
}

func TestZeroLengthSpansIgnoredInAnalysis(t *testing.T) {
	r := NewRecorder()
	r.Add(span("a", Kernel, 10, 10))
	if r.BusyTime(Kernel) != 0 {
		t.Fatalf("zero-length span contributed busy time")
	}
	if r.Len() != 1 {
		t.Fatalf("zero-length span should still be recorded")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{H2D: "H2D", D2H: "D2H", Kernel: "EXE", Host: "HOST", Alloc: "ALLOC", Sync: "SYNC"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestGanttRendersAllResources(t *testing.T) {
	r := NewRecorder()
	r.Add(span("mic0/pcie", H2D, 0, 50))
	r.Add(span("mic0/part0", Kernel, 50, 100))
	var sb strings.Builder
	if err := r.Gantt(&sb, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "mic0/pcie") || !strings.Contains(out, "mic0/part0") {
		t.Fatalf("Gantt missing resources:\n%s", out)
	}
	if !strings.Contains(out, "H") || !strings.Contains(out, "#") {
		t.Fatalf("Gantt missing glyphs:\n%s", out)
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	var sb strings.Builder
	if err := NewRecorder().Gantt(&sb, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty") {
		t.Fatalf("empty gantt output = %q", sb.String())
	}
}

// Property: overlap is symmetric, bounded by each class's busy time,
// and busy time is bounded by total time.
func TestPropertyOverlapBounds(t *testing.T) {
	f := func(raw []struct {
		Res   uint8
		Kind  uint8
		Start uint16
		Len   uint8
	}) bool {
		r := NewRecorder()
		for _, x := range raw {
			k := Kind(x.Kind % 3)
			start := sim.Time(x.Start)
			r.Add(Span{
				Resource: string(rune('a' + x.Res%4)),
				Kind:     k,
				Start:    start,
				End:      start.Add(sim.Duration(x.Len)),
				Stream:   -1, Task: -1,
			})
		}
		for a := H2D; a <= Kernel; a++ {
			if r.BusyTime(a) > r.TotalTime(a) {
				return false
			}
			for b := H2D; b <= Kernel; b++ {
				ov, vo := r.Overlap(a, b), r.Overlap(b, a)
				if ov != vo {
					return false // asymmetric
				}
				if ov > r.BusyTime(a) || ov > r.BusyTime(b) {
					return false // overlap exceeds a side
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Overlap(k, k) equals BusyTime(k).
func TestPropertySelfOverlapIsBusyTime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		r := NewRecorder()
		for i := 0; i < 30; i++ {
			s := sim.Time(rng.Intn(1000))
			r.Add(span("x", Kernel, s, s.Add(sim.Duration(rng.Intn(100)))))
		}
		if r.Overlap(Kernel, Kernel) != r.BusyTime(Kernel) {
			t.Fatalf("self overlap %v != busy %v", r.Overlap(Kernel, Kernel), r.BusyTime(Kernel))
		}
	}
}

func TestStageRecorderKeepsNoSpans(t *testing.T) {
	var none *Recorder
	if none.KeepsSpans() || !NewRecorder().KeepsSpans() || NewStageRecorder().KeepsSpans() {
		t.Fatal("KeepsSpans must be true for a full recorder only")
	}
	r := NewStageRecorder()
	r.Add(span("mic0/pcie", H2D, 0, 50))
	r.Add(span("mic0/part0", Kernel, 50, 100))
	if r.Spans() != nil || r.Len() != 0 {
		t.Fatalf("stage recorder kept %d spans", r.Len())
	}
	var sb strings.Builder
	if err := r.Gantt(&sb, 40); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "(empty trace)\n" {
		t.Fatalf("stage recorder Gantt = %q, want the empty trace", sb.String())
	}
}

// randomSpans draws spans over every named Kind and one unnamed one:
// starts out of order across resources, zero-length spans, spans
// nested in and touching the one before, and lengths that go negative.
func randomSpans(rng *rand.Rand) []Span {
	resources := []string{"mic0/pcie", "mic0/part0", "mic0/part1", "mic1/pcie"}
	out := make([]Span, rng.Intn(40))
	for i := range out {
		s := Span{
			Resource: resources[rng.Intn(len(resources))],
			Stream:   -1,
			Task:     i,
			Kind:     Kind(rng.Intn(len(kindNames) + 1)),
			Start:    sim.Time(rng.Intn(500)),
		}
		s.End = s.Start.Add(sim.Duration(1 + rng.Intn(60)))
		if i > 0 {
			prev := out[i-1]
			switch rng.Intn(6) {
			case 0: // zero-length
				s.End = s.Start
			case 1: // touching the previous span, after or before it
				s.Kind = prev.Kind
				if rng.Intn(2) == 0 {
					s.Start, s.End = prev.End, prev.End.Add(sim.Duration(1+rng.Intn(60)))
				} else {
					s.Start, s.End = prev.Start-sim.Time(1+rng.Intn(60)), prev.Start
				}
			case 2: // nested in the previous span
				if prev.End > prev.Start {
					s.Kind = prev.Kind
					s.Start = prev.Start + sim.Time(rng.Int63n(int64(prev.End-prev.Start)))
					s.End = s.Start + sim.Time(rng.Int63n(int64(prev.End-s.Start)+1))
				}
			case 3: // inverted: contributes a negative length to TotalTime only
				s.End = s.Start - 1
			}
		}
		out[i] = s
	}
	return out
}

// Property: both recorder kinds report exactly the stage analysis of
// the span-scan oracle over the spans fed so far, and again after
// Reset; a full recorder also keeps those spans. Spans arrive in
// batches with the analysis run after each, so the in-place merge must
// leave intervals that later Add calls still fold into correctly.
func TestPropertyStageRecorderMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := make([]Kind, len(kindNames)+1)
	for i := range kinds {
		kinds[i] = Kind(i)
	}
	batched := 0
	for trial := 0; trial < 300; trial++ {
		full, stage := NewRecorder(), NewStageRecorder()
		for round := 0; round < 2; round++ {
			full.Reset()
			stage.Reset()
			spans := randomSpans(rng)
			for fed := 0; ; {
				want := spanAnalysis(spans[:fed])
				if err := compareAnalysis(full, want, kinds); err != "" {
					t.Fatalf("trial %d round %d, full recorder after %d spans: %s", trial, round, fed, err)
				}
				if err := compareAnalysis(stage, want, kinds); err != "" {
					t.Fatalf("trial %d round %d, stage recorder after %d spans: %s", trial, round, fed, err)
				}
				if !slices.Equal(full.Spans(), want) {
					t.Fatalf("trial %d round %d: full recorder kept %d spans, want the %d fed", trial, round, full.Len(), fed)
				}
				if fed == len(spans) {
					break
				}
				if fed > 0 {
					batched++
				}
				n := 1 + rng.Intn(len(spans)-fed)
				for _, s := range spans[fed : fed+n] {
					full.Add(s)
					stage.Add(s)
				}
				fed += n
			}
		}
	}
	if batched == 0 {
		t.Fatal("no round was analysed before its last span")
	}
}

// compareAnalysis returns how a recorder's stage analysis differs from
// the oracle's, or "" when it agrees bit for bit.
func compareAnalysis(r *Recorder, want spanAnalysis, kinds []Kind) string {
	for _, a := range kinds {
		if got, w := r.BusyTime(a), want.busyTime(a); got != w {
			return fmt.Sprintf("BusyTime(%v) = %v, want %v", a, got, w)
		}
		if got, w := r.TotalTime(a), want.totalTime(a); got != w {
			return fmt.Sprintf("TotalTime(%v) = %v, want %v", a, got, w)
		}
		for _, b := range kinds {
			if got, w := r.Overlap(a, b), want.overlap(a, b); got != w {
				return fmt.Sprintf("Overlap(%v, %v) = %v, want %v", a, b, got, w)
			}
		}
	}
	st := want.stageTimes()
	if got := r.TransferComputeOverlap(); got != st.TransferComputeOverlap {
		return fmt.Sprintf("TransferComputeOverlap = %v, want %v", got, st.TransferComputeOverlap)
	}
	if got := r.StageTimes(); got != st {
		return fmt.Sprintf("StageTimes = %+v, want %+v", got, st)
	}
	if got, w := r.Makespan(), want.makespan(); got != w {
		return fmt.Sprintf("Makespan = %v, want %v", got, w)
	}
	return ""
}

// A stopped recorder keeps what it recorded, records nothing more and
// formats no labels (KeepsSpans is false) until Reset, which resumes
// recording in the same mode.
func TestRecorderStop(t *testing.T) {
	r := NewRecorder()
	r.Add(Span{Kind: Kernel, Start: 0, End: 5})
	r.Stop()
	r.Add(Span{Kind: Kernel, Start: 5, End: 9})
	if r.Len() != 1 || r.KeepsSpans() || r.Makespan() != 5 {
		t.Fatalf("stopped recorder: %d spans, KeepsSpans %v, makespan %v; want 1, false, 5", r.Len(), r.KeepsSpans(), r.Makespan())
	}
	r.Reset()
	r.Add(Span{Kind: Kernel, Start: 1, End: 2})
	if r.Len() != 1 || !r.KeepsSpans() {
		t.Fatalf("reset recorder: %d spans, KeepsSpans %v; want 1, true", r.Len(), r.KeepsSpans())
	}
	var nilRec *Recorder
	nilRec.Stop()
}
