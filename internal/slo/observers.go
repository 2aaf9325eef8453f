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
// wired to the recorder's single event and snapshot hooks by Attach.
// A nil member is absent. Events go to the evaluator, then the flight
// recorder; snapshots go to the exporter, then the evaluator, then the
// flight recorder. A budget exhaustion dumps the flight ring, and the
// evaluator's mic_slo_* families join the exporter's exposition.
//
// One lock serializes the run's writes to the flight recorder and the
// evaluator against live reads (WriteFlight, WriteSLO, Health, the
// exporter's aux). The exporter guards its own snapshot, so Observe
// runs outside the lock; the aux takes the lock without the
// exporter's, so the only lock order is stack → exporter.
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
// observer slots. Call it once, before the run.
func (o *Observers) Attach(rec *telemetry.Recorder) {
	if o.SLO != nil && o.Flight != nil {
		// Fires inside onMetrics, with o.mu already held.
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
	if o.SLO != nil || o.Flight != nil {
		rec.SetOnEvent(o.onEvent)
	}
	if o.Exporter != nil || o.SLO != nil || o.Flight != nil {
		rec.SetOnMetrics(o.onMetrics)
	}
}

func (o *Observers) onEvent(e telemetry.Event) {
	o.mu.Lock()
	if o.SLO != nil {
		o.SLO.OnEvent(e)
	}
	if o.Flight != nil {
		o.Flight.OnEvent(e)
	}
	o.mu.Unlock()
}

func (o *Observers) onMetrics(s telemetry.MetricsSnapshot) {
	if o.Exporter != nil {
		o.Exporter.Observe(s)
	}
	o.mu.Lock()
	if o.SLO != nil {
		o.SLO.OnMetrics(s)
	}
	if o.Flight != nil {
		o.Flight.OnMetrics(s)
	}
	devs := append(o.last.Devices[:0], s.Devices...)
	tens := append(o.last.Tenants[:0], s.Tenants...)
	o.last, o.seen = s, true
	o.last.Devices, o.last.Tenants = devs, tens
	o.mu.Unlock()
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
