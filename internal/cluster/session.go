package cluster

import (
	"fmt"

	"micstream/internal/arena"
	"micstream/internal/sim"
)

// Session is the cluster's embedded service mode: a persistent run
// that accepts batched admissions at epoch boundaries instead of one
// job slice up front, and streams each job's Outcome the instant it
// completes instead of accumulating a terminal Result.
//
// The epoch protocol (DESIGN.md §15): the engine quiescing — no
// pending events — is an epoch *boundary*, not completion. Between
// boundaries the session behaves exactly like a batch Run over the
// jobs admitted so far; at a boundary the owner may Submit another
// batch and RunEpoch again. Device schedulers, the placement policy,
// the steal model and the residency cache all stay warm across
// epochs — a repeated dataset admitted in epoch k runs against the
// tiles epoch k-1 staged, which is the whole point of a long-running
// server over repeated batch runs.
//
// Determinism survives service mode because wall-clock time never
// crosses this boundary: callers race only over *which batch* a job
// lands in (the serve layer's admission frontier), and a given batch
// sequence replays bit-identically — every admitted job's arrival is
// the virtual instant of its epoch boundary, and everything after
// admission is the same deterministic event cascade as a batch run
// (DESIGN.md §6).
//
// A Session borrows its Cluster exclusively: interleaving Run calls
// or a second session with an open session corrupts both. Close the
// session (or just abandon it) and the cluster is reusable — Run
// resets everything a session touched.
type Session struct {
	c       *Cluster
	total   int
	epochs  int
	running bool
	closed  bool

	// copies holds the chunks Submit copies batches into, oldest first;
	// the last is the one being carved. A chunk goes back to copySpare,
	// cleared, once the watermark passes the last job it holds.
	copies    []copyChunk
	copySpare [][]Job
	// arrived lists, in admission order, the submitted jobs whose
	// arrival is the current epoch boundary; one engine event at the
	// boundary (admitArrived, bound once as admitEvent) admits them
	// all. The jobs arriving later come through an arrival feed.
	arrived    []arrival
	admitEvent func()
}

// copyChunk is storage Submit copies batches into: jobs holds the
// copied jobs, the last of them cluster index last, and its capacity
// is the chunk's length.
type copyChunk struct {
	jobs []Job
	last int
}

// arrival is one job waiting for its boundary's admission event.
type arrival struct {
	job *Job
	idx int
}

// NewSession opens service mode on the cluster: it resets the per-run
// state, anchors the run's elapsed-time accounting at the current
// virtual instant, and leaves the session open for batched
// Submit/RunEpoch cycles. onOutcome (optional) receives every job's
// terminal Outcome — completed or failed — exactly once, in virtual
// completion order, from inside the engine's event cascade; it must
// not call back into the session or the cluster. With onOutcome the
// sink is where outcomes go: the session keeps none past the epoch
// boundary after it streams (Session.Outcome, Session.Result). Without
// it the session keeps them all.
func (c *Cluster) NewSession(onOutcome func(Outcome)) (*Session, error) {
	for _, s := range c.scheds {
		s.Reset()
	}
	if b, ok := c.place.(clusterBinder); ok {
		b.bind(c)
	}
	if r, ok := c.place.(resetter); ok {
		r.reset()
	}
	c.bindStealModel()
	c.queue = arena.Queue[*Queued]{}
	c.admitted = arena.Slab[*Queued]{}
	c.watermark = 0
	c.outcomes = arena.Slab[Outcome]{}
	c.retireOutcomes = onOutcome != nil
	c.folded = 0
	c.retired = jobFold{}
	if c.retireOutcomes {
		c.retired.devs = make([]DeviceStats, len(c.scheds))
	}
	c.nterminal = 0
	c.onOutcome = onOutcome
	c.runFlops = 0
	c.done = 0
	c.steals = 0
	c.preempts = 0
	c.seq = 0
	c.runErr = nil
	if c.resident != nil {
		// The cache itself persists across runs (a repeated workload
		// runs warm); only the per-run stats baseline resets.
		c.resStart = c.resident.Stats()
	}
	// Per-run occupancy baselines: the partition and DMA servers
	// accumulate busy time across runs, so per-run utilization is a
	// delta against session open.
	c.linkBusy0 = make([]sim.Duration, len(c.scheds))
	c.kernBusy0 = make([]sim.Duration, len(c.scheds))
	c.telStaged = make([]int64, len(c.scheds))
	c.telHit, c.telMiss = 0, 0
	for d := range c.scheds {
		c.linkBusy0[d] = c.ctx.Link(d).TotalBusy()
		c.kernBusy0[d] = c.kernelBusy(d)
	}
	c.tenantSeen = c.tenantSeen[:0]
	c.tenantLat = c.tenantLat[:0]
	c.drained = false
	c.runStart = c.ctx.Engine().Now()
	s := &Session{c: c}
	s.admitEvent = s.admitArrived
	return s, nil
}

// Submit admits one batch at the current epoch boundary and returns
// the cluster index of the batch's first job (indices run densely
// across the session, so batch job i is outcome base+i). A job whose
// Arrival is at or before the boundary's virtual instant arrives at
// that instant; a later Arrival is kept. The batch is copied into
// session storage, reused only once every job in it is terminal, so
// the caller may reuse the slice at once. Several batches may stack at
// one boundary (each keeps admission order); submitting mid-epoch —
// from inside an onOutcome callback while RunEpoch is live — or after
// a scheduling error is rejected without admitting anything.
func (s *Session) Submit(jobs []Job) (base int, err error) {
	if err := s.admissible(); err != nil {
		return 0, err
	}
	if err := s.c.validate(jobs); err != nil {
		return 0, err
	}
	base = s.submit(s.copyBatch(jobs))
	s.retireCopies()
	return base, nil
}

// copyBatch copies jobs into the session's chunks: into the one being
// carved while it has room, otherwise into a spare or new chunk (a
// batch longer than a chunk gets one of its own).
func (s *Session) copyBatch(jobs []Job) []Job {
	n := len(jobs)
	if n == 0 {
		return nil
	}
	k := len(s.copies) - 1
	if k < 0 || cap(s.copies[k].jobs)-len(s.copies[k].jobs) < n {
		var buf []Job
		if m := len(s.copySpare) - 1; m >= 0 && n <= arena.ChunkLen {
			buf, s.copySpare[m] = s.copySpare[m], nil
			s.copySpare = s.copySpare[:m]
		} else {
			buf = make([]Job, 0, max(n, arena.ChunkLen))
		}
		s.copies = append(s.copies, copyChunk{jobs: buf})
		k++
	}
	ch := &s.copies[k]
	i := len(ch.jobs)
	ch.jobs = append(ch.jobs, jobs...)
	ch.last = s.total + n - 1
	return ch.jobs[i : i+n : i+n]
}

// retireCopies gives back every chunk but the one being carved whose
// jobs all lie below the watermark: they are terminal, so no admission
// record, boundary arrival or feed points into the chunk any more.
func (s *Session) retireCopies() {
	k := 0
	for ; k < len(s.copies)-1 && s.copies[k].last < s.c.watermark; k++ {
		jobs := s.copies[k].jobs
		clear(jobs)
		if cap(jobs) == arena.ChunkLen {
			s.copySpare = append(s.copySpare, jobs[:0])
		}
	}
	if k > 0 {
		m := copy(s.copies, s.copies[k:])
		clear(s.copies[m:])
		s.copies = s.copies[:m]
	}
}

// SubmitInPlace is Session.Submit without the copy and without the
// validation: the caller must have passed every job through
// Cluster.ValidateJob, and the session keeps pointers into jobs, so the
// caller must not modify them until the epoch that runs them has
// returned from RunEpoch. The serve layer, whose submitters validate
// their own jobs, hands over its recorded batches, which nothing
// modifies, this way.
func SubmitInPlace(s *Session, jobs []Job) (base int, err error) {
	if err := s.admissible(); err != nil {
		return 0, err
	}
	return s.submit(jobs), nil
}

// admissible reports why the session cannot admit a batch now, or nil.
func (s *Session) admissible() error {
	if s.closed {
		return fmt.Errorf("cluster: session is closed")
	}
	if s.running {
		return fmt.Errorf("cluster: session submit mid-epoch")
	}
	if s.c.runErr != nil {
		return fmt.Errorf("cluster: session failed: %w", s.c.runErr)
	}
	return nil
}

// submit admits a validated batch at the current epoch boundary. The
// session keeps pointers into batch, so the caller must not touch it
// until every job in it is terminal. The jobs arriving at the boundary
// join the boundary's one admission event, in batch order after any
// batch already stacked there; the later arrivals reach the engine as
// one feed (sim.Feed), which takes the order numbers that an event per
// arrival would take but keeps only the next due one pending. Either
// way every job is admitted in the order, and at the instant, that one
// event per job would admit it. The boundary is where admission states
// retire, before the batch grows the slabs into the chunks they free.
func (s *Session) submit(batch []Job) (base int) {
	c := s.c
	c.retireNotified()
	eng := c.ctx.Engine()
	base = c.outcomes.Grow(len(batch))
	c.admitted.Grow(len(batch))
	now := eng.Now()
	var feed *sim.Feed
	for i := range batch {
		job := &batch[i]
		for _, t := range job.Tasks {
			if !t.TransferOnly {
				c.runFlops += t.Cost.Flops
			}
		}
		idx := base + i
		if job.Arrival <= now {
			if len(s.arrived) == 0 {
				eng.At(now, s.admitEvent)
			}
			s.arrived = append(s.arrived, arrival{job, idx})
			continue
		}
		if feed == nil {
			feed = eng.Feed(&feedArrivals{c: c, batch: batch, base: base})
			feed.Reserve(len(batch) - i)
		}
		feed.Add(job.Arrival, i)
	}
	if feed != nil {
		feed.Start()
	}
	s.total += len(batch)
	return base
}

// feedArrivals is the target of one submit's arrival feed: arrival i
// admits the batch's job i, whose cluster index is base+i.
type feedArrivals struct {
	c     *Cluster
	batch []Job
	base  int
}

func (a *feedArrivals) Arrive(i int) { a.c.admit(&a.batch[i], a.base+i) }

// admitArrived is the boundary's admission event: it admits every job
// that arrived at the boundary, in submission order.
func (s *Session) admitArrived() {
	for _, a := range s.arrived {
		s.c.admit(a.job, a.idx)
	}
	clear(s.arrived)
	s.arrived = s.arrived[:0]
}

// RunEpoch drives the engine to the next quiescent boundary, draining
// every job admitted so far (outcomes stream to the session's sink as
// they complete). It returns how many jobs reached a terminal state
// this epoch and the session's first scheduling error, if any; after
// an error the remaining outcomes have already streamed as Failed and
// the session accepts no further batches.
func (s *Session) RunEpoch() (completed int, err error) {
	if s.closed {
		return 0, fmt.Errorf("cluster: session is closed")
	}
	before := s.c.nterminal
	s.running = true
	s.c.ctx.Engine().Run()
	s.running = false
	s.c.flushMetrics()
	s.epochs++
	if s.c.runErr == nil {
		for _, sc := range s.c.scheds {
			if err := sc.Err(); err != nil {
				s.c.runErr = err
				break
			}
		}
	}
	if s.c.runErr == nil && s.c.nterminal != s.total {
		s.c.runErr = fmt.Errorf("cluster: internal error: %d of %d jobs terminal at epoch boundary", s.c.nterminal, s.total)
	}
	return s.c.nterminal - before, s.c.runErr
}

// Now reports the session's virtual clock.
func (s *Session) Now() sim.Time { return s.c.ctx.Now() }

// Epochs reports how many RunEpoch calls have completed.
func (s *Session) Epochs() int { return s.epochs }

// Submitted reports the total jobs admitted across every batch.
func (s *Session) Submitted() int { return s.total }

// Terminal reports how many jobs have reached a terminal outcome.
func (s *Session) Terminal() int { return s.c.nterminal }

// Pending reports admitted jobs not yet terminal — zero at every
// epoch boundary of a healthy session.
func (s *Session) Pending() int { return s.total - s.c.nterminal }

// Err reports the session's first scheduling error, if any.
func (s *Session) Err() error { return s.c.runErr }

// Outcome returns terminal outcome idx (a Submit base plus the job's
// batch offset); ok is false while the job is still in flight. A
// session without a sink keeps every outcome readable for its life. A
// session with a sink answers only indices at or above the watermark:
// each epoch boundary retires the outcomes that have streamed, so
// after an epoch Outcome answers that epoch's jobs and any still
// pinned behind a later arrival, and the sink is where the rest went.
func (s *Session) Outcome(idx int) (o Outcome, ok bool) {
	c := s.c
	switch {
	case idx < 0 || idx >= c.outcomes.Len():
		return Outcome{}, false
	case idx < c.watermark:
		if c.retireOutcomes {
			return Outcome{}, false
		}
	case *c.admitted.At(idx) != ended:
		return Outcome{}, false
	}
	return *c.outcomes.At(idx), true
}

// Result summarizes everything the session has run so far — the same
// aggregate accounting a batch Run returns, computed over all epochs.
// Valid at any epoch boundary; the session stays open. With a sink
// Result.Jobs is nil, and the aggregates equal a session without one:
// retired outcomes were folded in index order, the rest are folded
// here.
func (s *Session) Result() *Result {
	return s.c.summarize()
}

// Close ends the session. The cluster is reusable afterwards (Run
// resets all session state); the session itself rejects further use.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.c.onOutcome = nil
}
