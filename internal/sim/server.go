package sim

// Server models an exclusive hardware resource that serves one request
// at a time in arrival order: the PCIe DMA engine, or one core
// partition of the coprocessor. Requests arriving while the server is
// busy queue up implicitly: a reservation starts at the later of its
// ready time and the end of the previous reservation.
//
// Because the platform layers always call Reserve at the virtual
// instant a request becomes ready (from inside an event callback),
// FIFO-by-call-order equals FIFO-by-ready-time and the schedule is a
// deterministic list schedule.
type Server struct {
	eng  *Engine
	name string

	free  Time     // end of the last reservation
	busy  Duration // total reserved time (for utilization)
	count int      // number of reservations
}

// NewServer returns an idle server bound to the engine.
func NewServer(eng *Engine, name string) *Server {
	return &Server{eng: eng, name: name}
}

// Name reports the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Reserve books the server exclusively for dur starting no earlier than
// ready, returning the scheduled start and end times. If done is
// non-nil it fires at the end time, scheduled directly on the engine:
// a reservation allocates nothing of its own. A zero-length reservation
// is legal and completes at its start time.
func (s *Server) Reserve(ready Time, dur Duration, done Handler) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	start = ready
	if s.free > start {
		start = s.free
	}
	end = start.Add(dur)
	s.free = end
	s.busy += dur
	s.count++
	if done != nil {
		s.eng.Schedule(end, done)
	}
	return start, end
}

// FreeAt reports the earliest time a new reservation could start.
func (s *Server) FreeAt() Time { return s.free }

// Busy reports the cumulative reserved time.
func (s *Server) Busy() Duration { return s.busy }

// Reservations reports how many reservations have been made.
func (s *Server) Reservations() int { return s.count }

// Utilization reports busy time as a fraction of the window [0, at].
func (s *Server) Utilization(at Time) float64 {
	if at <= 0 {
		return 0
	}
	return s.busy.Seconds() / at.Seconds()
}
