// Package telemetry is the cluster-wide observability layer: a
// deterministic, virtual-time-stamped event log of every scheduling
// decision the platform makes — admission, placement (with the
// per-device predicted scores behind the pick), dispatch, completion,
// failure, work stealing, residency hits/stages/evictions/
// invalidations, and drain instants — plus drain-instant metrics
// snapshots (per-device utilization and queue state, per-tenant
// throughput and tail latency) and a Chrome trace-event JSON exporter
// that renders cluster runs as Perfetto-loadable Gantt timelines.
//
// The paper's whole argument rests on *seeing* temporal sharing: Fig. 1
// is an eyeballed overlap of H2D/EXE/D2H spans, which internal/trace
// already records for the single-device pipeline. This package extends
// that visibility to the layers where the interesting decisions now
// happen — placement, stealing, residency — without perturbing them:
// the recorder follows the trace.Recorder nil-sink idiom (a nil
// *Recorder is a valid no-op sink, and emission sites guard with
// Enabled so the disabled hot path constructs nothing and allocates
// nothing), every event is stamped with virtual time inside an engine
// callback (so repeated runs produce byte-identical logs), and nothing
// recorded ever feeds back into a scheduling decision (so a traced
// run's Result is bit-identical to an untraced one — DESIGN.md §12).
package telemetry

import (
	"slices"

	"micstream/internal/sim"
)

// Kind classifies a scheduling event.
type Kind uint8

// Event kinds, in rough lifecycle order. Admit/Place/Dispatch/
// Complete/Fail are the job lifecycle (Place is cluster-level
// commitment, Dispatch the stream grant); Steal is a drain-instant
// re-binding; Hit/Stage split an off-origin job's staging demand at
// commitment; Evict/Invalidate are residency-cache drops; Drain marks
// a device's job-completion instant, the decision point the cluster
// re-enters placement and stealing from; Slice marks a follow-up
// slice of a partially-dispatched job being granted a stream (the
// first slice logs Dispatch); Preempt is a mid-job steal — the
// undispatched remainder of a dispatched job migrating to a thief;
// Requeue marks a slice boundary — the stream grant ending with the
// job unfinished and its remainder re-entering the queue, so every
// grant closes with exactly one Requeue or Complete and the timeline
// folder (internal/obs) can reconstruct per-slice execution spans
// exactly (DESIGN.md §14). New kinds append at the end: the numeric
// values are load-bearing for recorded logs.
const (
	Admit Kind = iota
	Place
	Dispatch
	Complete
	Fail
	Steal
	Hit
	Stage
	Evict
	Invalidate
	Drain
	Slice
	Preempt
	Requeue
)

var kindNames = [...]string{
	"admit", "place", "dispatch", "complete", "fail",
	"steal", "hit", "stage", "evict", "invalidate", "drain",
	"slice", "preempt", "requeue",
}

// String returns the short event-kind label used in exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Score is one device's predicted completion instant at a placement
// decision, as the placement policy scored it.
type Score struct {
	// Device is the device index.
	Device int
	// Predicted is the policy's predicted completion instant for the
	// job on this device (staging term included).
	Predicted sim.Time
}

// Event is one recorded scheduling decision. Unused fields hold their
// zero value except the index-valued ones (Job, Device, From, Stream),
// which hold -1 when not applicable so a valid device 0 is never
// conflated with "none".
type Event struct {
	// At is the virtual instant the decision happened.
	At sim.Time
	// Seq is the event's emission index since the recorder's last
	// Reset (stamped by Emit), not a position in the log: a served
	// recorder keeps no log, yet its Seq keeps counting. Events
	// sharing a virtual instant keep their decision order.
	Seq int
	// Kind classifies the decision.
	Kind Kind
	// Job is the owning run's index for the job. On cluster runs every
	// event — including the dispatch/slice/requeue/complete events the
	// embedded per-device schedulers emit — carries the cluster index,
	// which is the key the cluster submits each job to its device
	// scheduler under, so one index space correlates all layers of one
	// log; standalone scheduler events carry the scheduler's key for
	// the job (its position in the Run slice). -1 on events not tied to
	// a job.
	Job int
	// ID echoes the job's caller-assigned label.
	ID int
	// Tenant is the job's tenant label ("" on non-job events).
	Tenant string
	// Device is the event's primary device: the commitment target on
	// Place, the thief on Steal, the drained device on Drain; -1 on
	// cluster-level events (Admit).
	Device int
	// From is the secondary device: the steal victim on Steal, the
	// writing device on Invalidate; -1 otherwise.
	From int
	// Stream is the context-wide stream id on Dispatch/Complete, -1
	// otherwise.
	Stream int
	// Bytes carries the event's data volume: staged bytes on Stage
	// (the charged transfer), resident bytes served on Hit, dropped
	// bytes on Evict/Invalidate.
	Bytes int64
	// Dur carries the event's duration signal: the service estimate on
	// Admit/Dispatch/Slice, the realized service on Complete, the
	// realized span of the just-ended slice on Requeue, the predicted
	// gain on Steal/Preempt, the modeled staging occupancy on Stage.
	Dur sim.Duration
	// Scores lists every eligible device's predicted completion at a
	// Place decision, when the placement policy exposes its scores
	// (predicted/affinity do; load-blind policies leave it nil).
	Scores []Score
	// Deadline echoes the job's declared relative deadline on Admit (0
	// when the job has none), so SLO evaluators can judge the later
	// Complete event without reaching back into the job spec.
	Deadline sim.Duration
}

// Recorder accumulates scheduling events and drain-instant metrics
// snapshots. A nil *Recorder is a valid no-op sink, so hot paths can
// emit unconditionally; emission sites that would build slices (Place
// scores, metrics snapshots) guard with Enabled so the disabled path
// allocates nothing. The recorder is append-only across runs — like
// the residency cache, it survives Cluster.Run calls, so a multi-run
// session logs one continuous timeline — until StreamOnly, after
// which it only stamps and forwards.
type Recorder struct {
	events []Event
	snaps  []MetricsSnapshot
	seq    int  // the next event's Seq
	stream bool // set by StreamOnly: append nothing more

	// onEvent and onMetrics are live observers (a flight recorder, a
	// metrics exporter) invoked synchronously after each record, in
	// decision order with virtual timestamps. Observers are pure
	// consumers: nothing they do feeds back into a scheduling decision,
	// so an observed run stays bit-identical to a bare one. A nil
	// recorder never invokes them (the disabled path is unchanged).
	onEvent   func(Event)
	onMetrics func(MetricsSnapshot)
	// onInstant is a drain-instant observer that reads only the
	// instant; see SetOnInstant.
	onInstant func(sim.Time)
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether events will be recorded or streamed to the
// observers. Emission sites use it to skip building per-event state
// (score slices, metric snapshots) on the disabled path.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit stamps one event's Seq, appends it to the log unless the
// recorder only streams, and hands it to the event observer. Calls on
// a nil recorder are dropped without allocating.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	e.Seq = r.seq
	r.seq++
	if !r.stream {
		r.events = append(r.events, e)
	}
	if r.onEvent != nil {
		r.onEvent(e)
	}
}

// StreamOnly stops the log growing: later events and snapshots reach only the observers.
func (r *Recorder) StreamOnly() {
	if r != nil {
		r.stream = true
	}
}

// SetOnEvent installs (or clears, with nil) a live event observer.
// The observer sees every event once its Seq is stamped (and it is
// appended, unless the recorder only streams), in decision order.
// Install before Run; observers must not mutate the recorder.
func (r *Recorder) SetOnEvent(fn func(Event)) {
	if r != nil {
		r.onEvent = fn
	}
}

// SetOnMetrics installs (or clears, with nil) a live metrics-snapshot
// observer, called with each drain-instant snapshot once AddMetrics
// has appended it (unless the recorder only streams). The snapshot's
// Devices and Tenants are lent for the call: the producer may reuse
// them for its next snapshot, so an observer that keeps a snapshot
// copies them into storage of its own.
func (r *Recorder) SetOnMetrics(fn func(MetricsSnapshot)) {
	if r != nil {
		r.onMetrics = fn
	}
}

// SetOnInstant installs (or clears, with nil) a drain-instant observer
// that reads only the instant. On a recorder that only streams, it
// makes snapshots per epoch instead of per drain instant (Deferred):
// the producer hands each drain instant to Instant and, at the end of
// the epoch, the snapshot of the epoch's last drain instant to
// AddMetrics, whose metrics observer sees only those. A recorder that
// keeps its log never calls it: every drain instant's snapshot reaches
// the log and the metrics observer.
func (r *Recorder) SetOnInstant(fn func(sim.Time)) {
	if r != nil {
		r.onInstant = fn
	}
}

// Deferred reports whether drain instants reach the observers bare,
// with one snapshot per epoch: the recorder only streams and has an
// instant observer (SetOnInstant).
func (r *Recorder) Deferred() bool { return r != nil && r.stream && r.onInstant != nil }

// Instant hands one drain instant to the instant observer. Producers
// call it in place of AddMetrics while the recorder is Deferred.
func (r *Recorder) Instant(at sim.Time) {
	if r.Deferred() {
		r.onInstant(at)
	}
}

// Events returns the recorded events in emission order — after
// StreamOnly, only those recorded before it. The returned slice
// aliases the recorder's storage; callers must not mutate it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// AddMetrics appends one drain-instant metrics snapshot, unless the
// recorder only streams, and hands it to the metrics observer. The log
// keeps its own copy of the Devices and Tenants slices, so the caller
// may reuse them for its next snapshot. Calls on a nil recorder are
// dropped.
func (r *Recorder) AddMetrics(s MetricsSnapshot) {
	if r == nil {
		return
	}
	if !r.stream {
		kept := s
		kept.Devices = slices.Clone(s.Devices)
		kept.Tenants = slices.Clone(s.Tenants)
		r.snaps = append(r.snaps, kept)
	}
	if r.onMetrics != nil {
		r.onMetrics(s)
	}
}

// Metrics returns the recorded snapshots in emission order — after
// StreamOnly, only those recorded before it. The returned slice
// aliases the recorder's storage; callers must not mutate it.
func (r *Recorder) Metrics() []MetricsSnapshot {
	if r == nil {
		return nil
	}
	return r.snaps
}

// Reset discards all recorded events and snapshots and restarts Seq
// at zero, but keeps the recorder usable.
func (r *Recorder) Reset() {
	if r != nil {
		r.events = r.events[:0]
		r.snaps = r.snaps[:0]
		r.seq = 0
	}
}

// Count reports how many recorded events have the given kind.
func (r *Recorder) Count(kind Kind) int {
	n := 0
	for _, e := range r.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
