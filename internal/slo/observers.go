package slo

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"micstream/internal/obs"
	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

// Observers is the observer stack over one telemetry recorder: the
// OpenMetrics exporter, the flight recorder and the SLO evaluator,
// wired to the recorder's hooks by Attach or AttachServed. A nil member
// is absent. Events go to the evaluator, then the flight recorder;
// snapshots go to the evaluator, then the flight recorder, then the
// exporter. A budget exhaustion dumps the flight ring, and the
// evaluator's mic_slo_* families join the exporter's exposition.
//
// One lock serializes the run's writes to the flight recorder and the
// evaluator against live reads (WriteFlight, WriteSLO, Health, the
// exporter's aux). Under Attach every hook takes it; under AttachServed
// the run loop holds it for a whole epoch (Lock, Unlock) and the hooks
// take none. The exporter guards its own snapshot, observed with the
// stack's lock held, and the aux takes the stack's lock without the
// exporter's, so the only lock order is stack → exporter.
//
// A served stack costs a constant, small amount per job. The
// evaluator's burn windows move forward instead of rescanning, and no
// event takes a lock or a map operation. Unless the flight recorder's
// p95 trigger is armed — the only member that reads a snapshot's
// content — each drain instant reaches the evaluator as a bare instant,
// and the exporter and Health see one snapshot per epoch: the one for
// the epoch's last drain instant (DESIGN.md §15, §16).
type Observers struct {
	Exporter *obs.Exporter
	Flight   *obs.FlightRecorder
	SLO      *Evaluator

	mu sync.Mutex
	// last is the latest snapshot, its Devices and Tenants copied into
	// storage the stack owns and reuses.
	last telemetry.MetricsSnapshot
	seen bool
}

// Attach installs the stack on the recorder's hooks, claiming both
// observer slots, with every snapshot delivered and each hook taking
// the lock: the batch form, for a recorder that keeps its log. Call it
// once, before the run.
func (o *Observers) Attach(rec *telemetry.Recorder) {
	o.link()
	if o.SLO != nil || o.Flight != nil {
		rec.SetOnEvent(o.onEvent)
	}
	if o.Exporter != nil || o.SLO != nil || o.Flight != nil {
		rec.SetOnMetrics(o.onMetrics)
	}
}

// AttachServed installs the stack on a served recorder, which only
// streams from here on (Recorder.StreamOnly). The hooks take no lock:
// the run loop holds it, through Lock and Unlock, for the length of
// each epoch. Without an armed flight p95 trigger the recorder defers
// its snapshots to one per epoch (Recorder.SetOnInstant); arm the
// trigger before attaching. Call it once, before the run.
func (o *Observers) AttachServed(rec *telemetry.Recorder) {
	o.link()
	rec.StreamOnly()
	if o.SLO != nil || o.Flight != nil {
		rec.SetOnEvent(o.event)
	}
	if o.Flight != nil && o.Flight.P95Threshold() > 0 {
		rec.SetOnMetrics(o.metrics)
		return
	}
	rec.SetOnInstant(o.instant)
	rec.SetOnMetrics(o.epoch)
}

// link wires the members to each other: a budget exhaustion triggers
// the flight recorder, and the evaluator's families join the
// exporter's exposition.
func (o *Observers) link() {
	if o.SLO != nil && o.Flight != nil {
		// Fires inside an evaluation, with o.mu already held.
		o.SLO.SetOnExhausted(func(ob Objective, at sim.Time) {
			o.Flight.Trigger(fmt.Sprintf("slo %q (tenant %q) error budget exhausted", ob.Name, ob.TenantLabel()), at)
		})
	}
	if o.SLO != nil && o.Exporter != nil {
		o.Exporter.SetAux(func(w io.Writer) error {
			o.mu.Lock()
			defer o.mu.Unlock()
			return o.SLO.WriteOpenMetrics(w)
		})
	}
}

// Lock takes the stack's lock; a served run loop holds it for each
// epoch (AttachServed), so the code an epoch runs, placement and device
// policies included, must not call the stack's readers.
func (o *Observers) Lock() { o.mu.Lock() }

// Unlock releases the lock Lock took.
func (o *Observers) Unlock() { o.mu.Unlock() }

// onEvent and onMetrics are Attach's hooks: each takes the lock.
func (o *Observers) onEvent(e telemetry.Event) {
	o.mu.Lock()
	o.event(e)
	o.mu.Unlock()
}

func (o *Observers) onMetrics(s telemetry.MetricsSnapshot) {
	o.mu.Lock()
	o.metrics(s)
	o.mu.Unlock()
}

// event, metrics, instant and epoch are AttachServed's hooks, run with
// the lock held. metrics takes every drain instant's snapshot; a
// deferred recorder splits it into instant, at each drain instant, and
// epoch, once per epoch.
func (o *Observers) event(e telemetry.Event) {
	if o.SLO != nil {
		o.SLO.onEvent(&e)
	}
	if o.Flight != nil {
		o.Flight.OnEvent(e)
	}
}

func (o *Observers) metrics(s telemetry.MetricsSnapshot) {
	if o.SLO != nil {
		o.SLO.OnMetrics(s)
	}
	if o.Flight != nil {
		o.Flight.OnMetrics(s)
	}
	o.epoch(s)
}

func (o *Observers) instant(at sim.Time) {
	if o.SLO != nil {
		o.SLO.OnInstant(at)
	}
}

// epoch hands the snapshot to the exporter and keeps a copy in last,
// for Health.
func (o *Observers) epoch(s telemetry.MetricsSnapshot) {
	if o.Exporter != nil {
		o.Exporter.Observe(s)
	}
	devs := append(o.last.Devices[:0], s.Devices...)
	tens := append(o.last.Tenants[:0], s.Tenants...)
	o.last, o.seen = s, true
	o.last.Devices, o.last.Tenants = devs, tens
}

// WriteFlight renders the flight recorder's dumps under the lock.
func (o *Observers) WriteFlight(w io.Writer) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.Flight.WriteText(w)
}

// WriteSLO renders the evaluator's SLO report under the lock.
func (o *Observers) WriteSLO(w io.Writer, meta Meta) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.SLO.WriteJSON(w, meta)
}

// Health reports, under the lock, the objectives whose budget is
// exhausted, those with a live burn-rate alert (both nil without an
// evaluator), and a copy of the latest snapshot (nil before the
// first).
func (o *Observers) Health() (exhausted, alerting []string, last *telemetry.MetricsSnapshot) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.SLO != nil {
		exhausted, alerting = o.SLO.Exhausted(), o.SLO.Alerting()
	}
	if o.seen {
		snap := o.last
		snap.Devices = slices.Clone(snap.Devices)
		snap.Tenants = slices.Clone(snap.Tenants)
		last = &snap
	}
	return exhausted, alerting, last
}
