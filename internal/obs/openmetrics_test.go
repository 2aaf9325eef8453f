package obs

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden artifacts")

// goldenSnapshot is a handcrafted MetricsSnapshot exercising every
// rendered family: two devices, two tenants (one with an escapable
// label), residency split, fractional rates.
func goldenSnapshot() telemetry.MetricsSnapshot {
	ms := sim.Duration(sim.Millisecond)
	return telemetry.MetricsSnapshot{
		At: 40 * sim.Time(ms), Elapsed: 40 * ms,
		Done: 12, Steals: 3, ClusterQueue: 2, Fairness: 0.9375,
		HitBytes: 3 << 20, MissBytes: 1 << 20,
		Devices: []telemetry.DeviceMetrics{
			{Device: 0, Queued: 1, InFlight: 2, Backlog: 5 * ms, KernelBusy: 30 * ms, LinkBusy: 10 * ms,
				Utilization: 0.75, StagedBytes: 1 << 20, ResidentBytes: 3 << 20},
			{Device: 1, Queued: 0, InFlight: 1, Backlog: 0, KernelBusy: 20 * ms, LinkBusy: 5 * ms,
				Utilization: 0.5},
		},
		Tenants: []telemetry.TenantMetrics{
			{Tenant: `A"quoted`, Done: 7, Throughput: 175, MeanLatency: 3 * ms, P95: 9 * ms},
			{Tenant: "B", Done: 5, Throughput: 125, MeanLatency: 4 * ms, P95: 12 * ms},
		},
	}
}

// TestOpenMetricsGolden locks the exposition format byte-for-byte.
func TestOpenMetricsGolden(t *testing.T) {
	x := NewExporter()
	x.Observe(goldenSnapshot())
	var buf bytes.Buffer
	if err := x.Render(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "openmetrics_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden %s (regenerate with -update if deliberate)\ngot:\n%s", path, buf.String())
	}
}

// TestOpenMetricsDeterministic renders the same snapshot repeatedly
// and from a fresh exporter — byte-identical every time.
func TestOpenMetricsDeterministic(t *testing.T) {
	render := func() []byte {
		x := NewExporter()
		x.Observe(goldenSnapshot())
		var buf bytes.Buffer
		if err := x.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := render()
	for i := 0; i < 3; i++ {
		if !bytes.Equal(first, render()) {
			t.Fatal("repeated renders differ")
		}
	}
}

// The exporter keeps its own copy of an observed snapshot: a producer
// reusing the snapshot's slices for its next one, before any Render,
// changes nothing the exporter renders, and observing a snapshot with
// fewer tenants after one with more renders only the new tenants.
func TestOpenMetricsObserveCopiesTheSnapshot(t *testing.T) {
	render := func(x *Exporter) string {
		var buf bytes.Buffer
		if err := x.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ref := NewExporter()
	ref.Observe(goldenSnapshot())
	want := render(ref)

	x := NewExporter()
	lent := goldenSnapshot()
	x.Observe(lent)
	lent.Devices[0] = telemetry.DeviceMetrics{Device: 7, Queued: 99}
	lent.Tenants[1].Tenant = "overwritten"
	if got := render(x); got != want {
		t.Fatalf("reusing the observed snapshot's slices changed the exposition:\n%s", got)
	}

	fewer := goldenSnapshot()
	fewer.Tenants = fewer.Tenants[1:]
	x.Observe(fewer)
	ref.Observe(fewer)
	if got := render(x); got != render(ref) || strings.Contains(got, "quoted") {
		t.Fatalf("a later snapshot with fewer tenants renders stale ones:\n%s", got)
	}
}

// TestOpenMetricsExposition checks the structural contract: every
// line is a comment or a sample, the required families appear, label
// escaping holds, and the text ends with the mandatory # EOF.
func TestOpenMetricsExposition(t *testing.T) {
	x := NewExporter()
	x.Observe(goldenSnapshot())
	var buf bytes.Buffer
	if err := x.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Error("exposition does not end with # EOF")
	}
	for _, want := range []string{
		"micstream_jobs_done_total 12",
		"micstream_steals_total 3",
		"micstream_fairness_jain 0.9375",
		"micstream_residency_hit_ratio 0.75",
		`micstream_device_utilization{device="0"} 0.75`,
		`micstream_tenant_jobs_done_total{tenant="A\"quoted"} 7`,
		`micstream_tenant_p95_latency_seconds{tenant="B"} 0.012`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "micstream_") {
			t.Errorf("malformed line %q", line)
		}
	}
}

// TestOpenMetricsHTTP serves the endpoint and checks the negotiated
// content type.
func TestOpenMetricsHTTP(t *testing.T) {
	x := NewExporter()
	x.Observe(goldenSnapshot())
	rr := httptest.NewRecorder()
	x.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "micstream_jobs_done_total") {
		t.Errorf("body missing metrics:\n%s", rr.Body.String())
	}
}

// TestOpenMetricsEmpty renders an exporter that never saw a snapshot:
// just the EOF marker, still valid exposition.
func TestOpenMetricsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewExporter().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "# EOF\n" {
		t.Errorf("empty exposition = %q, want \"# EOF\\n\"", buf.String())
	}
}

// TestDisabledTelemetryPathStaysZeroAlloc is the observability alloc
// guard: with telemetry off (nil recorder) the emission pattern the
// schedulers use — Enabled guard, Emit, AddMetrics, hook setters —
// allocates nothing, hooks included.
func TestDisabledTelemetryPathStaysZeroAlloc(t *testing.T) {
	var rec *telemetry.Recorder
	fl := NewFlightRecorder(8)
	// Hook wiring is one-time setup; on a nil recorder it must be an
	// accepted no-op.
	rec.SetOnEvent(fl.OnEvent)
	rec.SetOnMetrics(fl.OnMetrics)
	allocs := testing.AllocsPerRun(1000, func() {
		// The disabled fast path: a nil recorder drops everything
		// before touching observer hooks.
		if rec.Enabled() {
			t.Fatal("nil recorder reported enabled")
		}
		rec.Emit(telemetry.Event{Kind: telemetry.Dispatch, Job: 1, Device: 0})
		rec.AddMetrics(telemetry.MetricsSnapshot{Done: 1})
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry path allocates %.1f per op, want 0", allocs)
	}
}
