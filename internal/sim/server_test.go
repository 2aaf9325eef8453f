package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestServerServesIdleRequestImmediately(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "link")
	start, end := s.Reserve(100, 50, nil)
	if start != 100 || end != 150 {
		t.Fatalf("reservation = [%v,%v], want [100,150]", start, end)
	}
}

func TestServerSerializesBackToBackRequests(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "link")
	_, end1 := s.Reserve(0, 100, nil)
	start2, end2 := s.Reserve(0, 100, nil)
	if start2 != end1 {
		t.Fatalf("second reservation starts at %v, want %v", start2, end1)
	}
	if end2 != 200 {
		t.Fatalf("second reservation ends at %v, want 200", end2)
	}
}

func TestServerIdleGapWhenRequestArrivesLate(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "link")
	s.Reserve(0, 10, nil)
	start, _ := s.Reserve(100, 10, nil)
	if start != 100 {
		t.Fatalf("late request start = %v, want 100 (server should sit idle)", start)
	}
}

func TestServerCompletionCallbackFiresAtEnd(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "link")
	var at Time = -1
	start, end := s.Reserve(5, 20, Func(func() { at = e.Now() }))
	if start != 5 || end != 25 {
		t.Errorf("reservation bounds = [%v,%v], want [5,25]", start, end)
	}
	e.Run()
	if at != 25 {
		t.Fatalf("callback fired at %v, want 25", at)
	}
}

func TestServerZeroDurationReservation(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "link")
	start, end := s.Reserve(10, 0, nil)
	if start != 10 || end != 10 {
		t.Fatalf("zero reservation = [%v,%v], want [10,10]", start, end)
	}
	// Negative durations clamp to zero.
	start, end = s.Reserve(10, -5, nil)
	if start != end {
		t.Fatalf("negative-duration reservation has nonzero span [%v,%v]", start, end)
	}
}

func TestServerAccounting(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "link")
	s.Reserve(0, 30, nil)
	s.Reserve(0, 70, nil)
	if s.Busy() != 100 {
		t.Fatalf("busy = %v, want 100", s.Busy())
	}
	if s.Reservations() != 2 {
		t.Fatalf("reservations = %d, want 2", s.Reservations())
	}
	if got := s.Utilization(200); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	if got := s.Utilization(0); got != 0 {
		t.Fatalf("utilization at t=0 = %v, want 0", got)
	}
	if s.Name() != "link" {
		t.Fatalf("name = %q", s.Name())
	}
}

// Property: no two reservations on one server ever overlap, the server
// never runs before a request is ready, and total busy time equals the
// sum of requested durations.
func TestPropertyServerReservationsNeverOverlap(t *testing.T) {
	type req struct {
		Ready uint16
		Dur   uint16
	}
	f := func(reqs []req) bool {
		e := NewEngine()
		s := NewServer(e, "r")
		var prevEnd Time
		var total Duration
		for _, r := range reqs {
			start, end := s.Reserve(Time(r.Ready), Duration(r.Dur), nil)
			if start < prevEnd {
				return false // overlap with previous reservation
			}
			if start < Time(r.Ready) {
				return false // started before ready
			}
			if end.Sub(start) != Duration(r.Dur) {
				return false
			}
			prevEnd = end
			total += Duration(r.Dur)
		}
		return s.Busy() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a server's makespan is at least its busy time (work
// conservation) and at least the last ready time.
func TestPropertyServerMakespanBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		e := NewEngine()
		s := NewServer(e, "r")
		var busy Duration
		var lastEnd Time
		n := 1 + rng.Intn(50)
		for i := 0; i < n; i++ {
			d := Duration(rng.Intn(1000))
			_, end := s.Reserve(Time(rng.Intn(1000)), d, nil)
			busy += d
			lastEnd = end
		}
		if Duration(lastEnd) < busy {
			t.Fatalf("makespan %v < busy %v: resource over-committed", lastEnd, busy)
		}
	}
}

// A reservation without a completion callback must not allocate: the
// platform layers reserve once per stream operation, so an escaping
// start/end pair would cost two heap objects per operation.
func TestServerReserveNilDoneZeroAlloc(t *testing.T) {
	s := NewServer(NewEngine(), "srv")
	allocs := testing.AllocsPerRun(1000, func() {
		s.Reserve(s.FreeAt(), 5, nil)
	})
	if allocs != 0 {
		t.Fatalf("Reserve with nil done allocated %.1f objects/op, want 0", allocs)
	}
}

// firings counts its Fire calls; a pointer handler converts to Handler
// without allocating.
type firings int

func (f *firings) Fire() { *f++ }

// A reservation with a completion handler schedules the handler itself
// on the engine: once the engine's heap has grown, booking and
// completing it allocates nothing (one stream operation's worth of
// simulation cost, DESIGN.md §4).
func TestServerReserveHandlerZeroAlloc(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "srv")
	var done firings
	s.Reserve(s.FreeAt(), 5, &done)
	e.Run() // warm the engine's heap
	allocs := testing.AllocsPerRun(1000, func() {
		s.Reserve(s.FreeAt(), 5, &done)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("Reserve with a handler allocated %.1f objects/op, want 0", allocs)
	}
	if want := firings(1002); done != want {
		t.Fatalf("handler fired %d times, want %d", done, want)
	}
}
