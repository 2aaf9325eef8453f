package obs

import (
	"fmt"
	"io"

	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

// DefaultFlightCap is the default ring capacity (events retained per
// dump).
const DefaultFlightCap = 256

// FlightDump is one triggered capture: the reason, the trigger
// instant, and the ring's contents at that moment in emission order.
type FlightDump struct {
	// Reason explains the trigger ("job 3 failed", `tenant "A" p95
	// 12.4ms over 10ms`).
	Reason string
	// At is the virtual instant of the triggering event or snapshot.
	At sim.Time
	// Events are the retained decisions leading up to the trigger,
	// oldest first.
	Events []telemetry.Event
}

// FlightRecorder keeps a bounded ring of the most recent telemetry
// events and snapshots it on triggers: any job failure, and — when a
// p95 threshold is set — the first drain-instant snapshot where a
// tenant's p95 latency breaches it (once per tenant, so a sustained
// breach yields one dump, not one per drain). Everything is
// deterministic: triggers key off virtual-time data only, the ring is
// cleared after each dump (consecutive dumps never overlap), and
// WriteText renders byte-identically for identical logs. Like the
// rest of the package it is a pure consumer — recording never feeds
// back into a decision.
type FlightRecorder struct {
	cap     int
	ring    []telemetry.Event
	next    int
	full    bool
	p95Max  sim.Duration
	tripped map[string]bool
	dumps   []FlightDump
}

// NewFlightRecorder returns a flight recorder retaining up to cap
// events (DefaultFlightCap if cap <= 0).
func NewFlightRecorder(cap int) *FlightRecorder {
	if cap <= 0 {
		cap = DefaultFlightCap
	}
	return &FlightRecorder{cap: cap, ring: make([]telemetry.Event, 0, cap), tripped: make(map[string]bool)}
}

// SetP95Threshold arms the latency trigger: a drain-instant snapshot
// reporting any tenant's p95 above max dumps the ring (0 disarms).
func (f *FlightRecorder) SetP95Threshold(max sim.Duration) { f.p95Max = max }

// P95Threshold reports the armed latency trigger, 0 when disarmed.
// Only an armed trigger reads drain-instant snapshots.
func (f *FlightRecorder) P95Threshold() sim.Duration { return f.p95Max }

// OnEvent records one event into the ring, dumping first if the event
// is a failure (so the dump ends just before the Fail, and the Fail
// itself seeds the next window).
func (f *FlightRecorder) OnEvent(e telemetry.Event) {
	if e.Kind == telemetry.Fail {
		f.dump(fmt.Sprintf("job %d (id %d) failed", e.Job, e.ID), e.At)
	}
	if len(f.ring) < f.cap {
		f.ring = append(f.ring, e)
		return
	}
	f.ring[f.next] = e
	if f.next++; f.next == f.cap {
		f.next = 0
	}
	f.full = true
}

// OnMetrics checks one drain-instant snapshot against the armed p95
// threshold. Tenants are examined in the snapshot's own sorted order,
// so the first breacher is deterministic.
func (f *FlightRecorder) OnMetrics(s telemetry.MetricsSnapshot) {
	if f.p95Max <= 0 {
		return
	}
	for _, t := range s.Tenants {
		if t.P95 > f.p95Max && !f.tripped[t.Tenant] {
			f.tripped[t.Tenant] = true
			f.dump(fmt.Sprintf("tenant %q p95 %.3fms over %.3fms", t.Tenant, ms(t.P95), ms(f.p95Max)), s.At)
		}
	}
}

// Trigger dumps the ring on an externally detected anomaly — the hook
// the SLO layer fires when a tenant's error budget exhausts, so the
// ring captures the breach neighborhood exactly like a failure or p95
// trigger would. The reason string becomes the dump's label; at is the
// (virtual) trigger instant.
func (f *FlightRecorder) Trigger(reason string, at sim.Time) { f.dump(reason, at) }

// dump snapshots the ring (oldest first) and clears it.
func (f *FlightRecorder) dump(reason string, at sim.Time) {
	var events []telemetry.Event
	if f.full {
		events = make([]telemetry.Event, 0, f.cap)
		events = append(events, f.ring[f.next:]...)
		events = append(events, f.ring[:f.next]...)
	} else {
		events = append(events, f.ring...)
	}
	f.dumps = append(f.dumps, FlightDump{Reason: reason, At: at, Events: events})
	f.ring = f.ring[:0]
	f.next = 0
	f.full = false
}

// Dumps returns the captures so far, in trigger order.
func (f *FlightRecorder) Dumps() []FlightDump { return f.dumps }

// Pending reports how many events the ring currently holds (the
// window the next trigger would capture).
func (f *FlightRecorder) Pending() int { return len(f.ring) }

// WriteText renders every dump as aligned text, one event per line —
// the post-mortem artifact `miccluster -flight` writes.
func (f *FlightRecorder) WriteText(w io.Writer) error {
	if len(f.dumps) == 0 {
		_, err := fmt.Fprintln(w, "flight recorder: no triggers fired")
		return err
	}
	for i := range f.dumps {
		d := &f.dumps[i]
		if _, err := fmt.Fprintf(w, "dump %d at %.3fms: %s (%d events)\n", i, ms(sim.Duration(d.At)), d.Reason, len(d.Events)); err != nil {
			return err
		}
		for _, e := range d.Events {
			if _, err := fmt.Fprintf(w, "  %6d %12.3fms %-10s job=%-4d id=%-4d tenant=%-10s dev=%-3d from=%-3d stream=%-3d bytes=%-9d dur=%.3fms\n",
				e.Seq, ms(sim.Duration(e.At)), e.Kind, e.Job, e.ID, e.Tenant, e.Device, e.From, e.Stream, e.Bytes, ms(e.Dur)); err != nil {
				return err
			}
		}
	}
	return nil
}
