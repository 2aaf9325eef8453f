package telemetry

import (
	"reflect"
	"testing"

	"micstream/internal/sim"
)

func TestKindString(t *testing.T) {
	for k := Admit; k <= Preempt; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no label", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
}

func TestRecorderSemantics(t *testing.T) {
	r := NewRecorder()
	if !r.Enabled() {
		t.Fatal("fresh recorder should be enabled")
	}
	r.Emit(Event{At: 10, Kind: Admit, Job: 0})
	r.Emit(Event{At: 20, Kind: Place, Job: 0, Device: 1})
	r.Emit(Event{At: 20, Kind: Dispatch, Job: 0, Device: 1})
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	for i, e := range r.Events() {
		if e.Seq != i {
			t.Errorf("event %d has Seq %d", i, e.Seq)
		}
	}
	if r.Count(Place) != 1 || r.Count(Steal) != 0 {
		t.Error("Count misbehaves")
	}
	r.AddMetrics(MetricsSnapshot{At: 20, Done: 1})
	if len(r.Metrics()) != 1 {
		t.Fatal("AddMetrics did not append")
	}
	r.Reset()
	if r.Len() != 0 || len(r.Metrics()) != 0 {
		t.Fatal("Reset did not clear the recorder")
	}

	// Reset restarts Seq; StreamOnly keeps the log recorded so far,
	// appends nothing more, and keeps Seq counting for the observers.
	var seqs []int
	snaps := 0
	r.SetOnEvent(func(e Event) { seqs = append(seqs, e.Seq) })
	r.SetOnMetrics(func(MetricsSnapshot) { snaps++ })
	r.Emit(Event{At: 30, Kind: Admit, Job: 1})
	r.AddMetrics(MetricsSnapshot{At: 30})
	r.StreamOnly()
	r.Emit(Event{At: 40, Kind: Place, Job: 1, Device: 0})
	r.Emit(Event{At: 40, Kind: Dispatch, Job: 1, Device: 0})
	r.AddMetrics(MetricsSnapshot{At: 40, Done: 1})
	if r.Len() != 1 || len(r.Metrics()) != 1 || r.Events()[0].Seq != 0 || r.Metrics()[0].At != 30 {
		t.Fatalf("StreamOnly recorder holds %d events, %d snapshots; want the 1 and 1 recorded before it", r.Len(), len(r.Metrics()))
	}
	if !reflect.DeepEqual(seqs, []int{0, 1, 2}) || snaps != 2 {
		t.Fatalf("observers saw Seqs %v and %d snapshots; want [0 1 2] and 2", seqs, snaps)
	}
	r.Reset()
	r.Emit(Event{At: 50, Kind: Admit, Job: 2})
	if seqs[len(seqs)-1] != 0 || r.Len() != 0 {
		t.Fatalf("after Reset: Seq %d, %d events logged; want Seq 0 and nothing logged", seqs[len(seqs)-1], r.Len())
	}
}

func TestNilRecorderIsValidSink(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder must report disabled")
	}
	// Every method must be callable on nil without panicking.
	r.Emit(Event{At: 1, Kind: Admit})
	r.AddMetrics(MetricsSnapshot{})
	r.Reset()
	if r.Len() != 0 || r.Events() != nil || r.Metrics() != nil || r.Count(Admit) != 0 {
		t.Fatal("nil recorder must observe as empty")
	}
	if r.Makespan() != 0 {
		t.Fatal("nil recorder makespan must be zero")
	}
}

// TestDisabledEmissionAllocatesNothing is the hot-path guarantee the
// nil-sink idiom exists for: emitting into a disabled (nil) recorder
// must not allocate, so always-on emission sites cost nothing when
// telemetry is off.
func TestDisabledEmissionAllocatesNothing(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		if r.Enabled() {
			t.Fatal("unreachable")
		}
		r.Emit(Event{At: 5, Kind: Dispatch, Job: 1, ID: 2, Device: 0, Stream: 3, Dur: sim.Duration(100)})
		r.Emit(Event{At: 6, Kind: Slice, Job: 1, ID: 2, Device: 0, Stream: 3, Dur: sim.Duration(50)})
		r.Emit(Event{At: 7, Kind: Preempt, Job: 1, ID: 2, Device: 1, From: 0, Dur: sim.Duration(25)})
	})
	if allocs != 0 {
		t.Fatalf("disabled emission allocates %.1f times per call, want 0", allocs)
	}
}

func TestMakespan(t *testing.T) {
	r := NewRecorder()
	r.Emit(Event{At: 30, Kind: Admit})
	r.Emit(Event{At: 10, Kind: Drain})
	if r.Makespan() != 30 {
		t.Fatalf("Makespan = %v, want 30", r.Makespan())
	}
}

// The log keeps its own copy of a snapshot's slices, so a producer may
// reuse them for the next snapshot without rewriting the history.
func TestAddMetricsKeepsItsOwnCopy(t *testing.T) {
	r := NewRecorder()
	devs := []DeviceMetrics{{Device: 0, Queued: 1}, {Device: 1, Queued: 2}}
	tens := []TenantMetrics{{Tenant: "A", Done: 3}}
	r.AddMetrics(MetricsSnapshot{At: 10, Devices: devs, Tenants: tens})
	devs[0].Queued, tens[0].Done = 50, 60
	r.AddMetrics(MetricsSnapshot{At: 20, Devices: devs})
	got := r.Metrics()
	if got[0].Devices[0].Queued != 1 || got[0].Tenants[0].Done != 3 {
		t.Fatalf("the logged snapshot changed with its producer's slices: %+v", got[0])
	}
	if got[1].Devices[0].Queued != 50 || got[1].Tenants != nil {
		t.Fatalf("the second snapshot was not logged as given: %+v", got[1])
	}
}
