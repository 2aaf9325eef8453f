// Package serve turns the batch cluster into a long-running service:
// a Server owns a persistent cluster.Session and ingests jobs
// concurrently from many goroutines through a mutex-guarded admission
// queue (the frontier), batching whatever has arrived by each epoch
// boundary into the next admitted batch.
//
// This is the one layer of the system where wall-clock time exists,
// and it crosses exactly one boundary: *which batch a job lands in*.
// Submitters race in real time for a slot in the next batch; from the
// admission instant on, everything is the deterministic virtual-time
// cascade of DESIGN.md §6 — the session admits each batch at the
// epoch boundary's virtual instant and runs the engine to quiescence,
// so a recorded batch sequence (Batches) replayed single-threaded
// through Replay reproduces the server's outcome stream bit for bit
// (DESIGN.md §15). That invariant is what makes a concurrent-ingest
// server debuggable: any live incident is a saved []Batch away from a
// deterministic reproduction.
//
// Submit takes a ticket and queues its job under one lock; tickets are
// handed out and admitted in queue order, so a job's ticket is its
// cluster index. The same lock keeps the no-loss/no-duplication
// contract under racing drains: Drain flips the queue to stopping, a
// Submit that has not queued its job by then returns ErrStopped having
// admitted nothing, and the loop exits only once the queue is empty —
// every queued job receives its cluster index and a terminal Outcome.
package serve

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"micstream/internal/arena"
	"micstream/internal/cluster"
	"micstream/internal/obs"
	"micstream/internal/slo"
)

// ErrStopped is returned by Submit once a drain has begun: the job
// was not admitted and never will be.
var ErrStopped = errors.New("serve: server is draining")

// Batch is one epoch boundary's admitted jobs, in admission order —
// the unit of the recorded ingest sequence Replay consumes.
type Batch struct {
	// Jobs holds the admitted job specs exactly as the session saw
	// them (arrivals zeroed: a service-mode job arrives at its epoch
	// boundary, not at a caller-chosen virtual instant).
	Jobs []cluster.Job
}

// Stats is a point-in-time snapshot of the server's ingest counters.
type Stats struct {
	// Submitted and Completed count jobs admitted and jobs terminal
	// (completed or failed).
	Submitted, Completed int
	// Epochs counts admitted batches (each ran one engine epoch).
	Epochs int
	// Elapsed is wall-clock time since the server started.
	Elapsed time.Duration
	// JobsPerSec is the sustained ingest rate: Completed over Elapsed.
	JobsPerSec float64
}

// Option configures a Server.
type Option func(*Server)

// WithQueueCap sets the admission queue's capacity (default 256): how
// many jobs may wait for the run loop before Submit blocks.
func WithQueueCap(n int) Option {
	return func(s *Server) { s.queueCap = n }
}

// WithBatchCap caps how many jobs one epoch admits (default
// unbounded): a full frontier splits into successive epochs instead
// of one giant batch.
func WithBatchCap(n int) Option {
	return func(s *Server) { s.batchCap = n }
}

// WithExporter attaches the OpenMetrics exporter so the server's
// /metrics endpoint exposes the latest epoch's last drain-instant
// snapshot live. Requires a cluster built WithTelemetry.
func WithExporter(x *obs.Exporter) Option {
	return func(s *Server) { s.stack.Exporter = x }
}

// WithFlight attaches the flight recorder so anomaly dumps (job
// failures, tenant p95 breaches) accumulate live and are exposed on
// /flight. Requires a cluster built WithTelemetry. The recorder is
// not itself thread-safe; the server's observer stack serializes
// scheduler-side writes against HTTP-side reads.
func WithFlight(f *obs.FlightRecorder) Option {
	return func(s *Server) { s.stack.Flight = f }
}

// WithSLO attaches an SLO evaluator: every event and drain instant
// feeds it live, its verdict is exposed on /slo, its
// mic_slo_* families join the /metrics exposition (when WithExporter),
// its alert and budget state feeds /health, and — when WithFlight —
// a budget exhaustion triggers a flight-recorder dump. Requires a
// cluster built WithTelemetry. The evaluator is not itself
// thread-safe; the server's observer stack serializes scheduler-side
// writes against HTTP-side reads.
func WithSLO(ev *slo.Evaluator) Option {
	return func(s *Server) { s.stack.SLO = ev }
}

// WithSLOMeta sets the provenance block /slo reports (run label, seed,
// placement policy). Without it the report carries zero values.
func WithSLOMeta(m slo.Meta) Option {
	return func(s *Server) { s.sloMeta = m }
}

// Server is the long-running service: one goroutine (the run loop)
// owns the cluster session and the virtual clock; any number of
// goroutines submit through the admission queue and consume
// subscriptions.
type Server struct {
	c        *cluster.Cluster
	sess     *cluster.Session
	queueCap int
	batchCap int
	sloMeta  slo.Meta

	// stack wires the exporter, flight recorder and SLO evaluator to
	// the cluster's recorder and serializes the run loop's writes
	// against HTTP reads (/flight, /slo, /health, the /metrics aux):
	// with observed set, the run loop holds its lock for each epoch.
	stack    slo.Observers
	observed bool

	// mu guards the admission queue. Ticket t is the t-th job queued;
	// the loop admits from the head, so tickets below admitted hold
	// cluster indices. Once the session rejects a batch (it has
	// failed), subErr is set and no later ticket lands.
	mu       sync.Mutex
	work     sync.Cond // wakes the loop: a job queued or a drain begun
	moved    sync.Cond // wakes submitters: a batch admitted or refused, or a drain begun
	queue    arena.Queue[cluster.Job]
	next     int
	admitted int
	subErr   error
	stopping bool
	loopDone chan struct{} // closed when the run loop has exited

	// subMu guards the subscriber set, the recorded batches and the
	// count of terminal outcomes; all are written by the run loop and
	// read from caller goroutines.
	subMu      sync.Mutex
	subs       []*Subscription
	subsClosed bool
	batches    arena.Slab[Batch]
	completed  int

	// store holds every admitted batch's jobs: the loop copies each
	// batch out of the queue into it once, and the session and the
	// recorded Batch share that copy for the server's lifetime.
	store arena.Runs[cluster.Job]

	start time.Time

	runErr error // session error; written by the run loop, read after loopDone
}

// New opens a session on the cluster and starts the run loop. The
// cluster is borrowed exclusively until Drain returns — calling Run
// on it, or touching its schedulers, corrupts the service. With an
// exporter, flight recorder or SLO evaluator attached, the cluster's
// telemetry recorder only streams to them from here on: its Events
// and Metrics keep what was recorded before New and no longer grow,
// and neither does the platform's span log (hstreams Config.Trace).
// Unless a flight p95 trigger is armed, the exporter and /health then
// update once per epoch (slo.Observers.AttachServed).
func New(c *cluster.Cluster, opts ...Option) (*Server, error) {
	if c == nil {
		return nil, fmt.Errorf("serve: nil cluster")
	}
	s := &Server{
		c:        c,
		queueCap: 256,
		loopDone: make(chan struct{}),
		start:    time.Now(),
	}
	s.work.L, s.moved.L = &s.mu, &s.mu
	for _, opt := range opts {
		opt(s)
	}
	if s.queueCap < 1 {
		return nil, fmt.Errorf("serve: queue capacity %d must be positive", s.queueCap)
	}
	if s.batchCap < 0 {
		return nil, fmt.Errorf("serve: negative batch cap %d", s.batchCap)
	}
	if st := &s.stack; st.Exporter != nil || st.Flight != nil || st.SLO != nil {
		if !c.Telemetry().Enabled() {
			return nil, fmt.Errorf("serve: metrics/flight/slo require a cluster built WithTelemetry")
		}
		// The stack consumes every event and drain instant as it arrives
		// and nothing reads a served cluster's log or its resource spans,
		// so keep neither: the recorder only streams, and the flight
		// recorder's ring is the bounded history.
		st.AttachServed(c.Telemetry())
		c.Context().Recorder().Stop()
		s.observed = true
	}
	sess, err := c.NewSession(s.fanout)
	if err != nil {
		return nil, err
	}
	s.sess = sess
	go s.loop()
	return s, nil
}

// Submit queues one job and blocks until the run loop admits it into
// an epoch, returning the job's cluster index (the key its Outcome
// carries in the subscription stream). The job's Arrival is ignored:
// service-mode jobs arrive at the epoch boundary that admits them. A
// malformed job gets its validation error in the caller's goroutine
// without taking a ticket, so it never holds up its batchmates. Submit
// blocks while WithQueueCap jobs wait; once a drain has begun, a job
// not yet queued returns ErrStopped without admitting. After a
// scheduling error the session admits nothing more, and Submit returns
// that error. Safe for any number of concurrent callers.
func (s *Server) Submit(job cluster.Job) (int, error) {
	job.Arrival = 0
	if err := s.c.ValidateJob(&job); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.stopping && s.queue.Len() >= s.queueCap {
		s.moved.Wait()
	}
	if s.stopping {
		return 0, ErrStopped
	}
	ticket := s.next
	s.next++
	s.queue.Push(job)
	s.work.Signal()
	for ticket >= s.admitted && s.subErr == nil {
		s.moved.Wait()
	}
	if ticket >= s.admitted {
		return 0, s.subErr
	}
	return ticket, nil
}

// loop is the run loop: take up to WithBatchCap jobs from the queue
// head, admit them at the current epoch boundary, run the epoch to
// quiescence (outcomes fan out from inside the cascade), repeat. Once
// draining, it exits on the first empty queue and closes the
// subscriptions.
func (s *Server) loop() {
	defer close(s.loopDone)
	defer s.closeSubs()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.stopping {
			s.work.Wait()
		}
		n := s.queue.Len()
		if n == 0 {
			s.mu.Unlock()
			return
		}
		if s.batchCap > 0 && n > s.batchCap {
			n = s.batchCap
		}
		batch := s.store.Take(n)
		copy(batch, s.queue.Items())
		s.queue.Pop(n)
		s.mu.Unlock()
		s.runBatch(batch)
	}
}

// runBatch admits one batch at the current epoch boundary, records it
// for replay, releases its submitters and runs the epoch. The session
// and the record share the batch, which nothing modifies afterwards,
// so the session admits it without a copy. Every job was validated by
// its submitter, so the session rejects a batch only once it has
// failed.
func (s *Server) runBatch(jobs []cluster.Job) {
	_, err := cluster.SubmitInPlace(s.sess, jobs)
	if err == nil {
		s.record(Batch{Jobs: jobs})
	}
	s.mu.Lock()
	if err == nil {
		s.admitted += len(jobs)
	} else if s.subErr == nil {
		s.subErr = err
	}
	s.moved.Broadcast()
	s.mu.Unlock()
	if err != nil {
		return
	}
	// One lock per epoch, not one per event: HTTP reads of the stack
	// wait for the epoch's end.
	if s.observed {
		s.stack.Lock()
	}
	_, err = s.sess.RunEpoch()
	if s.observed {
		s.stack.Unlock()
	}
	if err != nil && s.runErr == nil {
		s.runErr = err
	}
	// The submitters this batch released and the subscribers its
	// outcomes woke wait in this goroutine's local run queue. Yield, so
	// they run now instead of behind the next epoch, or only once an
	// idle processor wakes up to steal them.
	runtime.Gosched()
}

// fanout is the session's outcome sink: it runs on the run-loop
// goroutine, inside the engine's event cascade, and must never block
// — subscriptions buffer without bound and readers catch up on their
// own time.
func (s *Server) fanout(o cluster.Outcome) {
	s.subMu.Lock()
	s.completed++
	for _, sub := range s.subs {
		sub.push(o)
	}
	s.subMu.Unlock()
}

// record appends b to the batch log, whose chunks never regrow.
func (s *Server) record(b Batch) {
	s.subMu.Lock()
	*s.batches.At(s.batches.Grow(1)) = b
	s.subMu.Unlock()
}

// Subscribe registers an outcome stream: every job outcome terminal
// after this call is delivered, in virtual completion order. The
// subscription buffers without bound (a slow reader delays nobody);
// Next reports exhaustion after the server drains.
func (s *Server) Subscribe() *Subscription {
	sub := &Subscription{notify: make(chan struct{}, 1)}
	s.subMu.Lock()
	if s.subsClosed {
		sub.closed = true
	} else {
		s.subs = append(s.subs, sub)
	}
	s.subMu.Unlock()
	return sub
}

func (s *Server) closeSubs() {
	s.subMu.Lock()
	s.subsClosed = true
	subs := s.subs
	s.subMu.Unlock()
	for _, sub := range subs {
		sub.close()
	}
}

// Batches returns the recorded admission sequence so far: one Batch
// per epoch, in epoch order. Feeding it to Replay on an identically
// configured cluster reproduces the outcome stream bit for bit.
func (s *Server) Batches() []Batch {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	out := make([]Batch, s.batches.Len())
	for i := range out {
		out[i] = *s.batches.At(i)
	}
	return out
}

// Stats snapshots the ingest counters. Completed is read before
// Submitted, and a job is admitted before its outcome can fan out, so
// Completed never exceeds Submitted.
func (s *Server) Stats() Stats {
	s.subMu.Lock()
	completed, epochs := s.completed, s.batches.Len()
	s.subMu.Unlock()
	s.mu.Lock()
	submitted := s.admitted
	s.mu.Unlock()
	st := Stats{
		Submitted: submitted,
		Completed: completed,
		Epochs:    epochs,
		Elapsed:   time.Since(s.start),
	}
	if secs := st.Elapsed.Seconds(); secs > 0 {
		st.JobsPerSec = float64(completed) / secs
	}
	return st
}

// Drain stops admission and waits for the server to go quiet: no job
// may join the queue, the run loop admits the queued backlog in final
// epochs, streams the last outcomes, closes the subscriptions and
// exits. On timeout the server keeps draining in the background and a
// later Drain call can re-await it. Idempotent; returns the session's
// first scheduling error, if any.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	s.stopping = true
	s.work.Signal()
	s.moved.Broadcast()
	s.mu.Unlock()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case <-s.loopDone:
		return s.runErr
	case <-deadline.C:
		return fmt.Errorf("serve: drain deadline exceeded waiting for the backlog to finish")
	}
}

// Result summarizes everything the server ran — the same aggregate
// accounting a batch Run returns, over all epochs. Its Jobs is nil:
// every outcome left through the subscriptions' sink and none is kept.
// Only valid after Drain has completed (the run loop owns the session
// until then).
func (s *Server) Result() (*cluster.Result, error) {
	select {
	case <-s.loopDone:
	default:
		return nil, fmt.Errorf("serve: result requires a completed drain")
	}
	return s.sess.Result(), s.runErr
}

// Err reports the session's first scheduling error, if any. Only
// meaningful after Drain.
func (s *Server) Err() error {
	select {
	case <-s.loopDone:
		return s.runErr
	default:
		return nil
	}
}

// Handler serves the live observability surface: /metrics (OpenMetrics
// exposition, when WithExporter), /flight (flight-recorder dumps, when
// WithFlight), /slo (the SLO verdict as JSON, when WithSLO), /stats
// (ingest counters, plain text) and /health (readiness, always). All
// endpoints are GET-only; the Go 1.22 method patterns answer other
// verbs with 405.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	if s.stack.Exporter != nil {
		mux.Handle("GET /metrics", s.stack.Exporter)
	}
	if s.stack.Flight != nil {
		mux.HandleFunc("GET /flight", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := s.stack.WriteFlight(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	if s.stack.SLO != nil {
		mux.HandleFunc("GET /slo", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := s.stack.WriteSLO(w, s.sloMeta); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		st := s.Stats()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "submitted %d\ncompleted %d\nepochs %d\nelapsed_seconds %.3f\njobs_per_sec %.1f\n",
			st.Submitted, st.Completed, st.Epochs, st.Elapsed.Seconds(), st.JobsPerSec)
	})
	mux.HandleFunc("GET /health", func(w http.ResponseWriter, _ *http.Request) {
		status, reasons := s.health()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if status == "unhealthy" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, "status %s\n", status)
		for _, r := range reasons {
			fmt.Fprintf(w, "reason %s\n", r)
		}
	})
	return mux
}

// health rolls the server's signals into one verdict: unhealthy (503)
// on a scheduling error or an exhausted error budget, degraded on a
// live burn-rate alert, a near-full admission queue, or full device
// saturation at the last drain instant, else ready. The reasons list
// every contributing signal, worst first.
func (s *Server) health() (status string, reasons []string) {
	if err := s.Err(); err != nil {
		reasons = append(reasons, "run-error: "+strings.ReplaceAll(err.Error(), "\n", " "))
	}
	var degraded []string
	exhausted, alerting, snap := s.stack.Health()
	for _, name := range exhausted {
		reasons = append(reasons, "slo-budget-exhausted: "+name)
	}
	for _, name := range alerting {
		degraded = append(degraded, "slo-alert: "+name)
	}
	if len(reasons) > 0 {
		return "unhealthy", append(reasons, degraded...)
	}
	s.mu.Lock()
	occ := s.queue.Len()
	s.mu.Unlock()
	if occ*10 >= s.queueCap*9 {
		degraded = append(degraded, fmt.Sprintf("ingest-backpressure: frontier %d/%d", occ, s.queueCap))
	}
	if snap != nil && len(snap.Devices) > 0 {
		saturated := 0
		for i := range snap.Devices {
			if snap.Devices[i].Utilization > 0.95 {
				saturated++
			}
		}
		if saturated == len(snap.Devices) {
			degraded = append(degraded, fmt.Sprintf("device-saturation: all %d devices above 95%% utilization", saturated))
		}
	}
	if len(degraded) > 0 {
		return "degraded", degraded
	}
	return "ready", nil
}

// Serve serves Handler on ln, blocking like http.Serve. The caller
// listens first, so it can report the bound address (a :0 port
// resolved) and fail on a busy port before ingesting anything.
func (s *Server) Serve(ln net.Listener) error {
	return http.Serve(ln, s.Handler())
}

// Replay runs a recorded admission sequence single-threaded on a
// fresh, identically configured cluster: one Submit+RunEpoch per
// batch, outcomes streaming to onOutcome (optional) exactly as the
// live server emitted them. This is the determinism contract of
// DESIGN.md §15 — wall clock picks the batches, virtual time does
// everything else, so the replayed outcome stream is bit-identical to
// the server's. With onOutcome the outcomes go there only and the
// Result's Jobs is nil; without it the Result keeps them all.
func Replay(c *cluster.Cluster, batches []Batch, onOutcome func(cluster.Outcome)) (*cluster.Result, error) {
	sess, err := c.NewSession(onOutcome)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	for i, b := range batches {
		if _, err := sess.Submit(b.Jobs); err != nil {
			return sess.Result(), fmt.Errorf("serve: replay batch %d: %w", i, err)
		}
		if _, err := sess.RunEpoch(); err != nil {
			return sess.Result(), fmt.Errorf("serve: replay epoch %d: %w", i, err)
		}
	}
	return sess.Result(), nil
}

// Subscription is one subscriber's outcome stream. It buffers without
// bound so the engine's cascade never blocks on a slow reader; a
// reader that keeps up reuses one buffer.
type Subscription struct {
	mu     sync.Mutex
	buf    arena.Queue[cluster.Outcome]
	closed bool
	notify chan struct{}
}

func (sub *Subscription) push(o cluster.Outcome) {
	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		return
	}
	sub.buf.Push(o)
	sub.mu.Unlock()
	select {
	case sub.notify <- struct{}{}:
	default:
	}
}

func (sub *Subscription) close() {
	sub.mu.Lock()
	sub.closed = true
	sub.mu.Unlock()
	select {
	case sub.notify <- struct{}{}:
	default:
	}
}

// Next blocks for the next outcome; ok is false once the server has
// drained and the buffered stream is exhausted (or the subscription
// was cancelled).
func (sub *Subscription) Next() (o cluster.Outcome, ok bool) {
	for {
		sub.mu.Lock()
		if sub.buf.Len() > 0 {
			o = sub.buf.Items()[0]
			sub.buf.Pop(1)
			sub.mu.Unlock()
			return o, true
		}
		if sub.closed {
			sub.mu.Unlock()
			return cluster.Outcome{}, false
		}
		sub.mu.Unlock()
		<-sub.notify
	}
}

// Drain takes every currently buffered outcome without blocking, as
// a slice of its own (nil when none is buffered).
func (sub *Subscription) Drain() []cluster.Outcome {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	n := sub.buf.Len()
	if n == 0 {
		return nil
	}
	out := make([]cluster.Outcome, n)
	copy(out, sub.buf.Items())
	sub.buf.Pop(n)
	return out
}

// Cancel detaches the subscription: buffered outcomes remain readable,
// new ones are dropped, and Next reports exhaustion once the buffer
// empties.
func (sub *Subscription) Cancel() { sub.close() }
