package obs

// The folding and auditing code as it stood before Fold and AuditDrift
// became replays into a Folder, kept verbatim but for the two function
// names: the reference FuzzFolder holds the Folder's views to.

import (
	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

// foldState tracks one in-flight job while folding.
type foldState struct {
	t *Timeline
	// grantAt is the open grant's start instant; inGrant marks one
	// open.
	grantAt sim.Time
	inGrant bool
	// boundary is the last grant's end (the Requeue instant) — the
	// anchor the next grant's gap is measured from.
	boundary sim.Time
	// pendingPreempt marks that the gap in progress crossed devices.
	pendingPreempt bool
	placed         bool
	started        bool
	// curStaging/curStagedBytes/curHitBytes hold the staging charges
	// of the current commitment, flushed into the timeline at the next
	// grant (they ran) or discarded at a Steal (the withdraw
	// un-charged them — the thief's re-route re-emits its own).
	curStaging              sim.Duration
	curStagedBytes, curHits int64
}

func (f *foldState) flushStaging() {
	f.t.Staging += f.curStaging
	f.t.StagedBytes += f.curStagedBytes
	f.t.HitBytes += f.curHits
	f.curStaging, f.curStagedBytes, f.curHits = 0, 0, 0
}

// parentFold reduces an event log to per-job causal timelines, in admission
// order. The log may span multiple runs of one recorder (job indices
// repeat): each Admit opens a fresh timeline for its index, so a
// two-run log yields two timelines per job. For every completed job
// the five phases partition the latency exactly: PlaceWait +
// CommitWait + Exec + SliceWait + Migration == Done − Admitted
// (DESIGN.md §14).
func parentFold(events []telemetry.Event) []Timeline {
	out := make([]*Timeline, 0, 16)
	live := make(map[int]*foldState)
	// ref resolves the state for an event, ignoring events for jobs
	// the log never admitted (a truncated ring dump).
	ref := func(e telemetry.Event) *foldState {
		if e.Job < 0 {
			return nil
		}
		return live[e.Job]
	}
	for _, e := range events {
		switch e.Kind {
		case telemetry.Admit:
			t := &Timeline{Job: e.Job, ID: e.ID, Tenant: e.Tenant, Device: -1, Admitted: e.At}
			out = append(out, t)
			live[e.Job] = &foldState{t: t}
		case telemetry.Place:
			if f := ref(e); f != nil {
				if !f.placed {
					f.t.Placed = e.At
					f.placed = true
				}
				f.t.Device = e.Device
			}
		case telemetry.Steal:
			if f := ref(e); f != nil {
				f.t.Steals++
				f.t.Device = e.Device
				// The withdraw un-charged the victim-side staging;
				// the re-route emits the thief's own Hit/Stage next.
				f.curStaging, f.curStagedBytes, f.curHits = 0, 0, 0
			}
		case telemetry.Preempt:
			if f := ref(e); f != nil {
				f.t.Preempts++
				f.t.Device = e.Device
				f.pendingPreempt = true
			}
		case telemetry.Hit:
			if f := ref(e); f != nil {
				f.curHits += e.Bytes
			}
		case telemetry.Stage:
			if f := ref(e); f != nil {
				f.curStaging += e.Dur
				f.curStagedBytes += e.Bytes
			}
		case telemetry.Dispatch, telemetry.Slice:
			if f := ref(e); f != nil {
				if !f.started {
					f.t.Started = e.At
					f.started = true
					anchor := f.t.Admitted
					if f.placed {
						anchor = f.t.Placed
						f.t.PlaceWait = f.t.Placed.Sub(f.t.Admitted)
					}
					f.t.CommitWait = e.At.Sub(anchor)
				} else {
					gap := e.At.Sub(f.boundary)
					if f.pendingPreempt {
						f.t.Migration += gap
					} else {
						f.t.SliceWait += gap
					}
				}
				f.pendingPreempt = false
				if e.Device >= 0 {
					f.t.Device = e.Device
				}
				f.t.Slices++
				f.grantAt = e.At
				f.inGrant = true
				f.flushStaging()
			}
		case telemetry.Requeue:
			if f := ref(e); f != nil && f.inGrant {
				f.t.Exec += e.At.Sub(f.grantAt)
				f.boundary = e.At
				f.inGrant = false
			}
		case telemetry.Complete:
			if f := ref(e); f != nil {
				if f.inGrant {
					f.t.Exec += e.At.Sub(f.grantAt)
					f.inGrant = false
				}
				f.t.Done = e.At
				delete(live, e.Job)
			}
		case telemetry.Fail:
			if f := ref(e); f != nil {
				f.t.Failed = true
				f.t.Done = e.At
				delete(live, e.Job)
			}
		}
	}
	ts := make([]Timeline, len(out))
	for i, t := range out {
		ts[i] = *t
	}
	return ts
}

// auditJob is the per-job state the audit tracks between commitment
// and completion.
type auditJob struct {
	placeAt   sim.Time
	predicted sim.Duration
	device    int
	hasPlace  bool
	stolen    bool
	migrated  bool
	staged    bool
	resident  bool

	grantAt  sim.Time
	grantEst sim.Duration
	inGrant  bool
}

func (a *auditJob) regime() string {
	switch {
	case a.migrated:
		return RegimeMigrated
	case a.stolen:
		return RegimeStolen
	case a.staged:
		return RegimeStaged
	case a.resident:
		return RegimeResident
	default:
		return RegimePlain
	}
}

// parentAuditDrift extracts predicted-vs-actual samples from an event log.
// Placement samples need Place events carrying Scores (the predicted
// and affinity policies record them; load-blind policies yield none);
// service samples need grants closed by Requeue/Complete, which every
// traced run has. Samples whose realized duration is zero are dropped
// (no meaningful relative error).
func parentAuditDrift(events []telemetry.Event) *DriftReport {
	r := &DriftReport{}
	live := make(map[int]*auditJob)
	add := func(s DriftSample) {
		if s.Actual > 0 {
			r.Samples = append(r.Samples, s)
		}
	}
	for _, e := range events {
		if e.Job < 0 {
			continue
		}
		switch e.Kind {
		case telemetry.Admit:
			live[e.Job] = &auditJob{device: -1}
		case telemetry.Place:
			a := live[e.Job]
			if a == nil {
				continue
			}
			if !a.hasPlace {
				a.placeAt = e.At
				a.device = e.Device
				for _, sc := range e.Scores {
					if sc.Device == e.Device {
						a.predicted = sc.Predicted.Sub(e.At)
						a.hasPlace = true
						break
					}
				}
			}
		case telemetry.Steal:
			if a := live[e.Job]; a != nil {
				a.stolen = true
			}
		case telemetry.Preempt:
			if a := live[e.Job]; a != nil {
				a.migrated = true
			}
		case telemetry.Stage:
			if a := live[e.Job]; a != nil {
				a.staged = true
			}
		case telemetry.Hit:
			if a := live[e.Job]; a != nil {
				a.resident = true
			}
		case telemetry.Dispatch, telemetry.Slice:
			if a := live[e.Job]; a != nil {
				a.grantAt = e.At
				a.grantEst = e.Dur
				a.inGrant = true
			}
		case telemetry.Requeue:
			if a := live[e.Job]; a != nil && a.inGrant {
				add(DriftSample{Kind: SampleService, Job: e.Job, ID: e.ID, Tenant: e.Tenant,
					Device: e.Device, Regime: a.regime(), Predicted: a.grantEst, Actual: e.At.Sub(a.grantAt)})
				a.inGrant = false
			}
		case telemetry.Complete:
			a := live[e.Job]
			if a == nil {
				continue
			}
			if a.inGrant {
				add(DriftSample{Kind: SampleService, Job: e.Job, ID: e.ID, Tenant: e.Tenant,
					Device: e.Device, Regime: a.regime(), Predicted: a.grantEst, Actual: e.At.Sub(a.grantAt)})
			}
			if a.hasPlace {
				add(DriftSample{Kind: SamplePlacement, Job: e.Job, ID: e.ID, Tenant: e.Tenant,
					Device: a.device, Regime: a.regime(), Predicted: a.predicted, Actual: e.At.Sub(a.placeAt)})
			}
			delete(live, e.Job)
		case telemetry.Fail:
			delete(live, e.Job)
		}
	}
	r.group()
	return r
}
