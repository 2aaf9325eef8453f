package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"

	"micstream/internal/telemetry"
)

// openMetricsContentType is the OpenMetrics text exposition media
// type Prometheus negotiates.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Exporter renders the latest MetricsSnapshot in the OpenMetrics text
// exposition format — a zero-dependency Prometheus endpoint for
// `miccluster -serve`. Feed it snapshots with Observe (slo.Observers
// wires it to a recorder); Render and ServeHTTP expose the latest
// one. The exporter is a pure consumer on the far side of the
// recorder: observing never perturbs a run, and rendering the
// same snapshot twice is byte-identical (device order is positional,
// tenant order is the snapshot's own sorted order, floats render in
// shortest round-trip form).
type Exporter struct {
	mu sync.Mutex
	// snap is the latest snapshot, its Devices and Tenants copied into
	// storage the exporter owns and reuses.
	snap telemetry.MetricsSnapshot
	seen bool
	aux  func(io.Writer) error
}

// NewExporter returns an exporter with no snapshot yet (Render emits
// only the trailing # EOF until one arrives).
func NewExporter() *Exporter { return &Exporter{} }

// Observe replaces the exporter's current snapshot with a copy, so
// the caller may reuse the snapshot's slices afterwards. Safe for
// concurrent use with Render/ServeHTTP.
func (x *Exporter) Observe(s telemetry.MetricsSnapshot) {
	x.mu.Lock()
	devs := append(x.snap.Devices[:0], s.Devices...)
	tens := append(x.snap.Tenants[:0], s.Tenants...)
	x.snap = s
	x.snap.Devices, x.snap.Tenants = devs, tens
	x.seen = true
	x.mu.Unlock()
}

// SetAux installs (or clears, with nil) an auxiliary renderer invoked
// on every Render between the snapshot families and the trailing
// # EOF marker — the seam through which other layers (the SLO
// evaluator's mic_slo_* families) join the same exposition without
// the exporter importing them. The function must emit well-formed
// OpenMetrics text and must be safe to call whenever Render is.
func (x *Exporter) SetAux(fn func(io.Writer) error) {
	x.mu.Lock()
	x.aux = fn
	x.mu.Unlock()
}

// Render writes the latest snapshot as OpenMetrics text, terminated
// by the mandatory # EOF marker.
func (x *Exporter) Render(w io.Writer) error {
	x.mu.Lock()
	snap, seen, aux := x.snap, x.seen, x.aux
	// The next Observe reuses the exporter's slices; render a copy.
	snap.Devices = slices.Clone(snap.Devices)
	snap.Tenants = slices.Clone(snap.Tenants)
	x.mu.Unlock()
	mw := &TextSink{W: w}
	if seen {
		renderSnapshot(mw, &snap)
	}
	if aux != nil && mw.Err == nil {
		mw.Err = aux(w)
	}
	mw.Printf("# EOF\n")
	return mw.Err
}

// ServeHTTP implements http.Handler for the /metrics endpoint.
func (x *Exporter) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", openMetricsContentType)
	_ = x.Render(w)
}

func renderSnapshot(w *TextSink, s *telemetry.MetricsSnapshot) {
	family(w, "micstream_jobs_done", "counter", "Jobs completed this run.")
	w.Printf("micstream_jobs_done_total %d\n", s.Done)
	family(w, "micstream_steals", "counter", "Drain-instant re-bindings this run.")
	w.Printf("micstream_steals_total %d\n", s.Steals)
	family(w, "micstream_cluster_queue_depth", "gauge", "Cluster-level admission queue depth.")
	w.Printf("micstream_cluster_queue_depth %d\n", s.ClusterQueue)
	family(w, "micstream_fairness_jain", "gauge", "Jain's fairness index over per-tenant throughputs.")
	w.Printf("micstream_fairness_jain %s\n", FormatFloat(s.Fairness))
	family(w, "micstream_elapsed_virtual_seconds", "gauge", "Virtual time elapsed since the run started.")
	w.Printf("micstream_elapsed_virtual_seconds %s\n", FormatFloat(s.Elapsed.Seconds()))
	family(w, "micstream_residency_hit_ratio", "gauge", "Resident bytes served over total staging demand (0 when no demand).")
	ratio := 0.0
	if total := s.HitBytes + s.MissBytes; total > 0 {
		ratio = float64(s.HitBytes) / float64(total)
	}
	w.Printf("micstream_residency_hit_ratio %s\n", FormatFloat(ratio))

	family(w, "micstream_device_utilization", "gauge", "Per-device kernel occupancy over elapsed time and partitions.")
	for i := range s.Devices {
		d := &s.Devices[i]
		w.Printf("micstream_device_utilization{device=\"%d\"} %s\n", d.Device, FormatFloat(d.Utilization))
	}
	family(w, "micstream_device_queue_depth", "gauge", "Per-device committed-but-undispatched jobs.")
	for i := range s.Devices {
		d := &s.Devices[i]
		w.Printf("micstream_device_queue_depth{device=\"%d\"} %d\n", d.Device, d.Queued)
	}
	family(w, "micstream_device_inflight", "gauge", "Per-device dispatched-but-unfinished jobs.")
	for i := range s.Devices {
		d := &s.Devices[i]
		w.Printf("micstream_device_inflight{device=\"%d\"} %d\n", d.Device, d.InFlight)
	}
	family(w, "micstream_device_staged_bytes", "gauge", "Per-device staging volume charged this run.")
	for i := range s.Devices {
		d := &s.Devices[i]
		w.Printf("micstream_device_staged_bytes{device=\"%d\"} %d\n", d.Device, d.StagedBytes)
	}
	family(w, "micstream_device_resident_bytes", "gauge", "Per-device residency-cache footprint.")
	for i := range s.Devices {
		d := &s.Devices[i]
		w.Printf("micstream_device_resident_bytes{device=\"%d\"} %d\n", d.Device, d.ResidentBytes)
	}

	family(w, "micstream_tenant_jobs_done", "counter", "Per-tenant jobs completed this run.")
	for i := range s.Tenants {
		t := &s.Tenants[i]
		w.Printf("micstream_tenant_jobs_done_total{tenant=%s} %d\n", LabelValue(t.Tenant), t.Done)
	}
	family(w, "micstream_tenant_throughput_jobs_per_second", "gauge", "Per-tenant completions per virtual second.")
	for i := range s.Tenants {
		t := &s.Tenants[i]
		w.Printf("micstream_tenant_throughput_jobs_per_second{tenant=%s} %s\n", LabelValue(t.Tenant), FormatFloat(t.Throughput))
	}
	family(w, "micstream_tenant_p95_latency_seconds", "gauge", "Per-tenant 95th-percentile response time so far.")
	for i := range s.Tenants {
		t := &s.Tenants[i]
		w.Printf("micstream_tenant_p95_latency_seconds{tenant=%s} %s\n", LabelValue(t.Tenant), FormatFloat(t.P95.Seconds()))
	}
}

func family(w *TextSink, name, typ, help string) {
	w.Printf("# TYPE %s %s\n# HELP %s %s\n", name, typ, name, help)
}

// LabelValue quotes a label value per the exposition format (backslash,
// quote and newline escaped).
func LabelValue(s string) string {
	b := make([]byte, 0, len(s)+2)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return string(append(b, '"'))
}

// Serve exposes the exporter at /metrics (plus a minimal /) on ln,
// blocking until the server fails. `miccluster -serve` calls it after
// the run so a scraper can read the final state; the caller listens
// first, so it can report the bound address. Tests hit ServeHTTP
// directly.
func (x *Exporter) Serve(ln net.Listener) error {
	mux := http.NewServeMux()
	mux.Handle("/metrics", x)
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "micstream metrics: scrape /metrics")
	})
	return http.Serve(ln, mux)
}
