package obs

import (
	"reflect"
	"testing"

	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

// A live job's slot survives the ring growing around it: jobs far
// apart in index stay open together, and each ends exactly once.
func TestFolderRingSurvivesGrowth(t *testing.T) {
	var f Folder
	jobs := []int{0, 16, 1 << 10, 3, 1<<10 + 16}
	for _, j := range jobs {
		f.Open(&telemetry.Event{Kind: telemetry.Admit, Job: j, ID: j, Tenant: "a"})
	}
	for _, j := range jobs {
		if f.Job(j) == nil {
			t.Fatalf("job %d lost its slot in a ring of %d", j, len(f.ring))
		}
	}
	for _, j := range jobs {
		e := telemetry.Event{At: 2 * tms, Kind: telemetry.Complete, Job: j, ID: j, Tenant: "a"}
		if got, c := f.Apply(&e); got == nil || c&Ended == 0 || got.Job != j {
			t.Fatalf("job %d: Complete closed %v", j, c)
		}
		if got, c := f.Apply(&e); got != nil || c != 0 {
			t.Fatalf("job %d ended twice", j)
		}
	}
	for i := range f.ring {
		if f.ring[i].live {
			t.Fatalf("slot %d still live after every job ended", i)
		}
	}
}

// decodeEvents turns fuzz bytes into an event stream, six bytes an
// event:
//
//	kind    byte % 14 (every telemetry kind)
//	job     below 192: byte%6 − 1 (−1..4, so indexes repeat);
//	        from 192: (byte−192)·16, so jobs collide in the ring
//	step    byte%8 − 1 quarter-milliseconds from the last instant
//	        (equal and backward instants included)
//	device  byte%4 − 1 (−1..2); bit 2 picks tenant "b" over "a"
//	value   ID (value%8), Bytes (value·1000), Dur and Deadline
//	        (value·50µs)
//	scores  0 for none; else a Score per device among bits 0..2,
//	        predicting completion byte>>3 quarter-milliseconds on
func decodeEvents(data []byte) []telemetry.Event {
	const quarter = sim.Duration(sim.Millisecond / 4)
	var events []telemetry.Event
	now := sim.Time(0)
	for ; len(data) >= 6; data = data[6:] {
		e := telemetry.Event{Kind: telemetry.Kind(data[0] % 14), From: -1, Stream: -1}
		if b := data[1]; b < 192 {
			e.Job = int(b%6) - 1
		} else {
			e.Job = int(b-192) * 16
		}
		now = now.Add(sim.Duration(int(data[2]%8)-1) * quarter)
		e.At = now
		e.Device = int(data[3]%4) - 1
		e.Tenant = "a"
		if data[3]&4 != 0 {
			e.Tenant = "b"
		}
		v := data[4]
		e.ID = int(v % 8)
		e.Bytes = int64(v) * 1000
		e.Dur = sim.Duration(v) * 50 * sim.Microsecond
		if e.Kind == telemetry.Admit {
			e.Deadline = e.Dur
		}
		if sc := data[5]; sc != 0 {
			e.Scores = []telemetry.Score{}
			for d := 0; d < 3; d++ {
				if sc&(1<<d) != 0 {
					e.Scores = append(e.Scores, telemetry.Score{Device: d, Predicted: now.Add(sim.Duration(sc>>3) * quarter)})
				}
			}
		}
		events = append(events, e)
	}
	return events
}

// FuzzFolder holds Fold and AuditDrift, replays into a Folder, to the
// per-job state machines they replaced (oracle_test.go): on any event
// stream the timelines and the drift report are DeepEqual. The seed
// corpus (testdata/fuzz/FuzzFolder) covers what no golden run reaches:
// events of job −1, a job admitted again before it ends, events after
// a Complete, a Requeue with no open grant, a Steal between a Stage and
// its Dispatch, Preempt migrations, a first Place without scores, a
// Fail inside a grant and jobs that collide in the ring.
func FuzzFolder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeEvents(data)
		if got, want := Fold(events), parentFold(events); !reflect.DeepEqual(got, want) {
			t.Fatalf("Fold differs:\n got %+v\nwant %+v", got, want)
		}
		if got, want := AuditDrift(events), parentAuditDrift(events); !reflect.DeepEqual(got, want) {
			t.Fatalf("AuditDrift differs:\n got %+v\nwant %+v", got.Samples, want.Samples)
		}
	})
}
