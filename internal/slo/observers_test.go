package slo

import (
	"bytes"
	"strings"
	"testing"

	"micstream/internal/obs"
	"micstream/internal/telemetry"
)

// emitJob drives one job's lifecycle through the recorder, so the
// stack's hooks (not direct calls) feed the observers.
func emitJob(rec *telemetry.Recorder, job int, tenant string, admitMs, doneMs int64) {
	for _, k := range []telemetry.Kind{telemetry.Admit, telemetry.Place, telemetry.Dispatch} {
		rec.Emit(telemetry.Event{At: at(admitMs), Kind: k, Job: job, ID: job, Tenant: tenant})
	}
	rec.Emit(telemetry.Event{At: at(doneMs), Kind: telemetry.Complete, Job: job, ID: job, Tenant: tenant})
}

// TestObserversJoinSLOFamiliesIntoExposition pins the exporter aux:
// a stack holding an exporter and an evaluator renders the mic_slo_*
// families after the snapshot families and before # EOF, which is
// what `miccluster -serve -slo` and micserve both expose on /metrics.
func TestObserversJoinSLOFamiliesIntoExposition(t *testing.T) {
	ev, err := New(latencySpec("a", 1, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	stack := &Observers{Exporter: obs.NewExporter(), SLO: ev}
	rec := telemetry.NewRecorder()
	stack.Attach(rec)
	emitJob(rec, 0, "a", 0, 5)
	rec.AddMetrics(telemetry.MetricsSnapshot{At: at(6), Done: 1})

	var buf bytes.Buffer
	if err := stack.Exporter.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	eof := strings.Index(out, "# EOF\n")
	if eof < 0 || eof != len(out)-len("# EOF\n") {
		t.Fatalf("exposition does not end in # EOF:\n%s", out)
	}
	prev := strings.Index(out, "micstream_jobs_done_total 1")
	if prev < 0 {
		t.Fatalf("snapshot families missing:\n%s", out)
	}
	for _, want := range []string{
		`mic_slo_budget_remaining{tenant="a",objective="lat"} -9`,
		`mic_slo_burn_rate{tenant="a",objective="lat",window="fast"}`,
		`mic_slo_burn_rate{tenant="a",objective="lat",window="slow"}`,
		`mic_slo_violations_total{tenant="a",objective="lat"} 1`,
	} {
		i := strings.Index(out, want)
		if i < prev || i > eof {
			t.Fatalf("%q missing or out of order (want after the previous family, before # EOF):\n%s", want, out)
		}
		prev = i
	}
}
