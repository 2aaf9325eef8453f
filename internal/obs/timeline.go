// Package obs is the explanation layer over the telemetry event log:
// it answers "why was this job slow?" and "how wrong is the model?"
// from the decision stream alone, without touching the schedulers.
//
// One folder sits at its center. Folder (this file) is the package's
// only per-job state machine: it folds a telemetry stream, one event
// at a time, into each job's causal phase breakdown — queue wait,
// commit wait, execution slices, slice waits, migration gaps — whose
// durations sum exactly to the job's observed end-to-end latency
// (DESIGN.md §14). Three views read it: Fold replays a log into it for
// `miccluster -explain`, so the breakdown is an identity, not an
// estimate; the drift audit (drift.go) replays a log into it and
// compares the predicted completion scores recorded at Place instants
// and the service estimates recorded at grant instants against
// realized outcomes, quantifying where the closed forms are weak; and
// the SLO evaluator (internal/slo) folds the live stream of its judged
// tenants and attributes each breach to the folded timeline. The live
// exporters (openmetrics.go, flight.go, metricsjson.go) render
// MetricsSnapshot series and bounded event rings for scrapers and
// post-mortems.
//
// Everything here is a pure consumer of recorded data: folding,
// auditing and exporting never feed back into a scheduling decision,
// so an observed run's Result stays bit-identical to a bare one, and
// every renderer is byte-deterministic (sorted keys, fixed-point or
// shortest-round-trip numbers, no wall clock).
package obs

import (
	"fmt"
	"io"
	"sort"

	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

// Phase names, in lifecycle order. PhasePlaceWait is the cluster-queue
// wait (admission → placement commitment); PhaseCommitWait the device
// queue wait (commitment → first stream grant); PhaseExec the summed
// stream-grant spans (staging transfers ride inside them, reported
// separately as Timeline.Staging); PhaseSliceWait the time a sliced
// job's remainder waited between grants on one device; PhaseMigration
// the boundary-to-grant gaps that crossed devices (a Preempt happened
// in between).
const (
	PhasePlaceWait  = "place-wait"
	PhaseCommitWait = "commit-wait"
	PhaseExec       = "exec"
	PhaseSliceWait  = "slice-wait"
	PhaseMigration  = "migration"
)

// Timeline is one job's folded causal history: its lifecycle instants,
// the exact phase partition of its latency, and the decision counts
// that shaped it.
type Timeline struct {
	// Job is the run's outcome index for the job; ID and Tenant echo
	// the caller-assigned labels.
	Job    int
	ID     int
	Tenant string
	// Device is the device the job last ran (or was last committed)
	// on; -1 if it never left the cluster queue.
	Device int
	// Admitted, Placed, Started and Done are the lifecycle instants.
	// Placed falls back to Admitted when the log has no Place event
	// (standalone scheduler runs); Done is zero while in flight.
	Admitted, Placed, Started, Done sim.Time
	// Failed marks a job whose log ends in a Fail event; its phase
	// partition is whatever had accrued and carries no sum invariant.
	Failed bool
	// Slices counts stream grants (Dispatch + Slice events); Steals
	// and Preempts count pre-dispatch re-bindings and mid-job
	// migrations.
	Slices, Steals, Preempts int
	// PlaceWait, CommitWait, Exec, SliceWait and Migration partition
	// the job's latency exactly: their sum equals Done − Admitted for
	// every completed job.
	PlaceWait, CommitWait, Exec, SliceWait, Migration sim.Duration
	// Staging is the modeled link occupancy of the job's staged
	// transfers that actually ran — a sub-attribution of Exec (the
	// stage task leads the job on its stream), not a sixth phase.
	// StagedBytes and HitBytes split the staging demand behind it.
	Staging     sim.Duration
	StagedBytes int64
	HitBytes    int64
}

// Latency is the job's observed end-to-end latency (Done − Admitted),
// 0 while in flight.
func (t *Timeline) Latency() sim.Duration {
	if t.Done == 0 && !t.Failed {
		return 0
	}
	return t.Done.Sub(t.Admitted)
}

// PhaseSum is the total of the five attributed phases — equal to
// Latency for every completed job (the folding invariant).
func (t *Timeline) PhaseSum() sim.Duration {
	return t.PlaceWait + t.CommitWait + t.Exec + t.SliceWait + t.Migration
}

// Phases lists the job's phase partition in lifecycle order.
func (t *Timeline) Phases() []Phase {
	return []Phase{
		{Name: PhasePlaceWait, Dur: t.PlaceWait},
		{Name: PhaseCommitWait, Dur: t.CommitWait},
		{Name: PhaseExec, Dur: t.Exec},
		{Name: PhaseSliceWait, Dur: t.SliceWait},
		{Name: PhaseMigration, Dur: t.Migration},
	}
}

// CriticalPhase names the phase that dominates the job's latency —
// the critical-path attribution. Ties break toward the earlier
// lifecycle phase, so a job that spent equal time queued and running
// is explained by its wait.
func (t *Timeline) CriticalPhase() string {
	best := Phase{Name: PhasePlaceWait, Dur: -1}
	for _, p := range t.Phases() {
		if p.Dur > best.Dur {
			best = p
		}
	}
	return best.Name
}

// Phase is one named slice of a job's latency.
type Phase struct {
	Name string
	Dur  sim.Duration
}

// JobFold is one job's fold in a Folder: its timeline so far and the
// few facts the drift audit and the SLO evaluator read besides.
type JobFold struct {
	Timeline
	// Deadline echoes the Admit event's relative deadline.
	Deadline sim.Duration

	// seq is the job's admission ordinal in its folder: the n-th Open
	// gets n.
	seq  int
	live bool
	// scored marks that a Place event carried a score for its own
	// device; placeAt, placeDevice and predicted (the score less the
	// instant) are the first such placement's.
	scored      bool
	placeAt     sim.Time
	placeDevice int
	predicted   sim.Duration
	// staged and hit mark that any Stage or Hit event arrived, whether
	// or not a Steal withdrew its charge later.
	staged, hit bool
	// grantAt and grantEst are the latest grant's start instant and
	// service estimate; inGrant marks it open.
	grantAt  sim.Time
	grantEst sim.Duration
	inGrant  bool
	// boundary is the last grant's end (the Requeue instant) — the
	// anchor the next grant's gap is measured from.
	boundary sim.Time
	// pendingPreempt marks that the gap in progress crossed devices.
	pendingPreempt  bool
	placed, started bool
	// curStaging/curStagedBytes/curHits hold the staging charges of
	// the current commitment, flushed into the timeline at the next
	// grant (they ran) or discarded at a Steal (the withdraw
	// un-charged them — the thief's re-route re-emits its own).
	curStaging              sim.Duration
	curStagedBytes, curHits int64
}

// Closed reports what one event applied to a Folder closed.
type Closed uint8

const (
	// GrantClosed: a Requeue or Complete ended the open grant.
	GrantClosed Closed = 1 << iota
	// Ended: a Complete or Fail ended the job, and its slot is free.
	Ended
)

// Folder folds a telemetry stream, one event at a time, into per-job
// state: the one per-job lifecycle state machine behind Fold,
// AuditDrift and the SLO evaluator. Jobs sit in a ring keyed by job
// index: job j in ring[j&(len(ring)-1)]. The jobs in flight at once
// have nearby indexes, so the ring stays small; a live job's slot is
// never shared, and a collision doubles the ring (a job admitted and
// never ended keeps its slot, so the ring grows to span it).
type Folder struct {
	ring   []JobFold
	opened int
}

// Job returns job's live fold, or nil when the job is not open.
func (f *Folder) Job(job int) *JobFold {
	if len(f.ring) == 0 {
		return nil
	}
	j := &f.ring[job&(len(f.ring)-1)]
	if !j.live || j.Job != job {
		return nil
	}
	return j
}

// Open starts a fold at an Admit event; a job admitted again restarts
// in its own slot. The fold stays valid until the next Open.
func (f *Folder) Open(e *telemetry.Event) *JobFold {
	for {
		if n := len(f.ring); n > 0 {
			if j := &f.ring[e.Job&(n-1)]; !j.live || j.Job == e.Job {
				*j = JobFold{
					Timeline: Timeline{Job: e.Job, ID: e.ID, Tenant: e.Tenant, Device: -1, Admitted: e.At},
					seq:      f.opened,
					Deadline: e.Deadline,
					live:     true,
				}
				f.opened++
				return j
			}
		}
		f.grow()
	}
}

// grow doubles the ring until every live job has a slot of its own.
func (f *Folder) grow() {
	for n := max(2*len(f.ring), 16); ; n *= 2 {
		ring := make([]JobFold, n)
		moved := true
		for i := range f.ring {
			j := &f.ring[i]
			if !j.live {
				continue
			}
			if slot := &ring[j.Job&(n-1)]; !slot.live {
				*slot = *j
				continue
			}
			moved = false
			break
		}
		if moved {
			f.ring = ring
			return
		}
	}
}

// Apply folds one non-Admit event into its job and reports what the
// event closed. Events of jobs not open, and events tied to no job
// (Job −1), return nil. An ended job's fold stays readable until the
// next Open.
func (f *Folder) Apply(e *telemetry.Event) (*JobFold, Closed) {
	if e.Job < 0 {
		return nil, 0
	}
	j := f.Job(e.Job)
	if j == nil {
		return nil, 0
	}
	switch e.Kind {
	case telemetry.Place:
		if !j.placed {
			j.Placed = e.At
			j.placed = true
		}
		j.Device = e.Device
		if !j.scored {
			for _, sc := range e.Scores {
				if sc.Device == e.Device {
					j.scored, j.placeAt, j.placeDevice, j.predicted = true, e.At, e.Device, sc.Predicted.Sub(e.At)
					break
				}
			}
		}
	case telemetry.Steal:
		j.Steals++
		j.Device = e.Device
		// The withdraw un-charged the victim-side staging; the re-route
		// emits the thief's own Hit/Stage next.
		j.curStaging, j.curStagedBytes, j.curHits = 0, 0, 0
	case telemetry.Preempt:
		j.Preempts++
		j.Device = e.Device
		j.pendingPreempt = true
	case telemetry.Hit:
		j.hit = true
		j.curHits += e.Bytes
	case telemetry.Stage:
		j.staged = true
		j.curStaging += e.Dur
		j.curStagedBytes += e.Bytes
	case telemetry.Dispatch, telemetry.Slice:
		if !j.started {
			j.Started = e.At
			j.started = true
			anchor := j.Admitted
			if j.placed {
				anchor = j.Placed
				j.PlaceWait = j.Placed.Sub(j.Admitted)
			}
			j.CommitWait = e.At.Sub(anchor)
		} else if gap := e.At.Sub(j.boundary); j.pendingPreempt {
			j.Migration += gap
		} else {
			j.SliceWait += gap
		}
		j.pendingPreempt = false
		if e.Device >= 0 {
			j.Device = e.Device
		}
		j.Slices++
		j.grantAt, j.grantEst, j.inGrant = e.At, e.Dur, true
		j.Staging += j.curStaging
		j.StagedBytes += j.curStagedBytes
		j.HitBytes += j.curHits
		j.curStaging, j.curStagedBytes, j.curHits = 0, 0, 0
	case telemetry.Requeue:
		if j.inGrant {
			j.Exec += e.At.Sub(j.grantAt)
			j.boundary = e.At
			j.inGrant = false
			return j, GrantClosed
		}
	case telemetry.Complete:
		c := Ended
		if j.inGrant {
			j.Exec += e.At.Sub(j.grantAt)
			j.inGrant = false
			c |= GrantClosed
		}
		j.Done = e.At
		j.live = false
		return j, c
	case telemetry.Fail:
		j.Failed = true
		j.Done = e.At
		j.live = false
		return j, Ended
	}
	return j, 0
}

// Fold reduces an event log to per-job causal timelines, in admission
// order, by replaying it into a Folder. The log may span multiple runs
// of one recorder (job indices repeat): each Admit opens a fresh
// timeline for its index, so a two-run log yields two timelines per
// job. For every completed job the five phases partition the latency
// exactly: PlaceWait + CommitWait + Exec + SliceWait + Migration ==
// Done − Admitted (DESIGN.md §14).
func Fold(events []telemetry.Event) []Timeline {
	var f Folder
	out := make([]Timeline, 0, 16)
	for i := range events {
		e := &events[i]
		var j *JobFold
		if e.Kind == telemetry.Admit {
			j = f.Open(e)
			out = append(out, Timeline{})
		} else if j, _ = f.Apply(e); j == nil {
			continue
		}
		out[j.seq] = j.Timeline
	}
	return out
}

// PhaseBreakdown aggregates the phase partition over a group of jobs
// (one tenant, one device) — the "where time goes" row.
type PhaseBreakdown struct {
	// Key labels the group (tenant name, or "deviceN").
	Key string
	// Jobs counts the completed jobs aggregated (failed and in-flight
	// jobs are excluded — they carry no sum invariant).
	Jobs int
	// The five phase totals plus the staging sub-attribution and the
	// summed latency (== the phase totals' sum).
	PlaceWait, CommitWait, Exec, SliceWait, Migration, Staging, Latency sim.Duration
}

func (b *PhaseBreakdown) add(t *Timeline) {
	b.Jobs++
	b.PlaceWait += t.PlaceWait
	b.CommitWait += t.CommitWait
	b.Exec += t.Exec
	b.SliceWait += t.SliceWait
	b.Migration += t.Migration
	b.Staging += t.Staging
	b.Latency += t.Latency()
}

// ByTenant aggregates completed timelines per tenant, sorted by tenant
// label.
func ByTenant(ts []Timeline) []PhaseBreakdown {
	return aggregate(ts, func(t *Timeline) string { return t.Tenant })
}

// ByDevice aggregates completed timelines per final device, sorted by
// device index ("device0", "device1", ...; unplaced jobs never
// completed, so every key is a real device).
func ByDevice(ts []Timeline) []PhaseBreakdown {
	return aggregate(ts, func(t *Timeline) string { return fmt.Sprintf("device%d", t.Device) })
}

func aggregate(ts []Timeline, key func(*Timeline) string) []PhaseBreakdown {
	groups := make(map[string]*PhaseBreakdown)
	order := make([]string, 0, 8)
	for i := range ts {
		t := &ts[i]
		if t.Failed || t.Done == 0 {
			continue
		}
		k := key(t)
		g := groups[k]
		if g == nil {
			g = &PhaseBreakdown{Key: k}
			groups[k] = g
			order = append(order, k)
		}
		g.add(t)
	}
	sort.Strings(order)
	out := make([]PhaseBreakdown, 0, len(order))
	for _, k := range order {
		out = append(out, *groups[k])
	}
	return out
}

// WriteTimeline renders one job's causal timeline as aligned text —
// the body of `miccluster -explain <job>`.
func WriteTimeline(w io.Writer, t *Timeline) error {
	status := "completed"
	if t.Failed {
		status = "FAILED"
	} else if t.Done == 0 {
		status = "in flight"
	}
	if _, err := fmt.Fprintf(w, "job %d (id %d, tenant %s) — %s, device %d, %d slice(s), %d steal(s), %d preemption(s)\n",
		t.Job, t.ID, t.Tenant, status, t.Device, t.Slices, t.Steals, t.Preempts); err != nil {
		return err
	}
	fmt.Fprintf(w, "  admitted %12.3fms   placed %12.3fms   started %12.3fms   done %12.3fms\n",
		ms(sim.Duration(t.Admitted)), ms(sim.Duration(t.Placed)), ms(sim.Duration(t.Started)), ms(sim.Duration(t.Done)))
	lat := t.Latency()
	for _, p := range t.Phases() {
		pct := 0.0
		if lat > 0 {
			pct = 100 * float64(p.Dur) / float64(lat)
		}
		mark := "  "
		if p.Name == t.CriticalPhase() {
			mark = "* "
		}
		fmt.Fprintf(w, "  %s%-11s %12.3fms  %5.1f%%\n", mark, p.Name, ms(p.Dur), pct)
	}
	if t.Staging > 0 || t.HitBytes > 0 {
		fmt.Fprintf(w, "    staging     %12.3fms  (inside exec; %d B staged, %d B resident hits)\n",
			ms(t.Staging), t.StagedBytes, t.HitBytes)
	}
	_, err := fmt.Fprintf(w, "  latency       %12.3fms  (phase sum %12.3fms)\n", ms(lat), ms(t.PhaseSum()))
	return err
}

// WriteBreakdowns renders aggregate "where time goes" rows as an
// aligned table under a title.
func WriteBreakdowns(w io.Writer, title string, rows []PhaseBreakdown) error {
	if _, err := fmt.Fprintf(w, "%s\n  %-12s %5s %14s %14s %14s %14s %14s %14s\n",
		title, "group", "jobs", "place-wait", "commit-wait", "exec", "slice-wait", "migration", "latency"); err != nil {
		return err
	}
	for i := range rows {
		b := &rows[i]
		if _, err := fmt.Fprintf(w, "  %-12s %5d %12.3fms %12.3fms %12.3fms %12.3fms %12.3fms %12.3fms\n",
			b.Key, b.Jobs, ms(b.PlaceWait), ms(b.CommitWait), ms(b.Exec), ms(b.SliceWait), ms(b.Migration), ms(b.Latency)); err != nil {
			return err
		}
	}
	return nil
}

func ms(d sim.Duration) float64 { return float64(d) / 1e6 }
