package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"micstream/internal/cluster"
	"micstream/internal/obs"
	"micstream/internal/sim"
	"micstream/internal/slo"
	"micstream/internal/telemetry"
)

// testSpec declares one loose latency objective per ingest tenant plus
// a throughput floor — permissive enough that a healthy run stays
// compliant.
func testSpec(t *testing.T) slo.Spec {
	t.Helper()
	return slo.Spec{Objectives: []slo.Objective{
		{Tenant: "A", Name: "a-lat", Kind: slo.KindLatency, Target: 0.9, Threshold: sim.Second},
		{Tenant: "B", Name: "b-lat", Kind: slo.KindLatency, Target: 0.9, Threshold: sim.Second},
		{Tenant: "A", Name: "a-tp", Kind: slo.KindThroughput, Target: 0.5, Floor: 0.001},
	}}
}

// newSLOServer builds a fully instrumented server (exporter + flight +
// evaluator) over a fresh deterministic cluster.
func newSLOServer(t *testing.T, spec slo.Spec) (*Server, *httptest.Server) {
	t.Helper()
	rec := telemetry.NewRecorder()
	c := newCluster(t, cluster.WithTelemetry(rec), cluster.WithPlacement(cluster.Predicted()))
	ev, err := slo.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c,
		WithExporter(obs.NewExporter()),
		WithFlight(obs.NewFlightRecorder(64)),
		WithSLO(ev),
		WithSLOMeta(slo.Meta{Run: "test", Seed: 1, Policy: "predicted"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

// submitSequential feeds n jobs one at a time: each Submit blocks
// until its epoch admits it, so the recorded batch sequence — and with
// it every virtual-time artifact — is identical across runs.
func submitSequential(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Submit(ingestJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, srv *httptest.Server, method, path string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
}

// The endpoint table: every route's status, content type and body
// shape, plus the 404/405 edges the Go 1.22 method patterns give us.
func TestHandlerEndpointTable(t *testing.T) {
	s, srv := newSLOServer(t, testSpec(t))
	submitSequential(t, s, 12)

	cases := []struct {
		name, method, path string
		code               int
		wantType, wantBody string
	}{
		{"metrics", "GET", "/metrics", 200, "application/openmetrics-text; version=1.0.0; charset=utf-8", "micstream_jobs_done_total 12"},
		{"metrics-slo-families", "GET", "/metrics", 200, "application/openmetrics-text", "mic_slo_budget_remaining{tenant=\"A\",objective=\"a-lat\"}"},
		{"flight", "GET", "/flight", 200, "text/plain; charset=utf-8", "flight recorder: no triggers fired"},
		{"slo", "GET", "/slo", 200, "application/json", "\"schema\": \"micstream-slo-v1\""},
		{"stats", "GET", "/stats", 200, "text/plain; charset=utf-8", "submitted 12"},
		{"health", "GET", "/health", 200, "text/plain; charset=utf-8", "status ready"},
		{"metrics-post", "POST", "/metrics", 405, "", ""},
		{"slo-delete", "DELETE", "/slo", 405, "", ""},
		{"health-post", "POST", "/health", 405, "", ""},
		{"unknown", "GET", "/nope", 404, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, ctype, body := get(t, srv, tc.method, tc.path)
			if code != tc.code {
				t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, code, tc.code)
			}
			if tc.wantType != "" && !strings.HasPrefix(ctype, tc.wantType) {
				t.Fatalf("content type %q, want prefix %q", ctype, tc.wantType)
			}
			if tc.wantBody != "" && !strings.Contains(body, tc.wantBody) {
				t.Fatalf("body missing %q:\n%s", tc.wantBody, body)
			}
		})
	}
	// The exposition stays well-formed with the aux families injected:
	// exactly one # EOF, at the very end.
	_, _, m := get(t, srv, "GET", "/metrics")
	if !strings.HasSuffix(m, "# EOF\n") || strings.Count(m, "# EOF") != 1 {
		t.Fatalf("exposition not EOF-terminated exactly once:\n%s", m)
	}
}

// Two identically configured servers fed the same sequential batch
// sequence serve byte-identical /metrics, /slo and /flight bodies —
// the replayed-sequence determinism the wall clock must not leak into.
func TestReplayedBodiesDeterministic(t *testing.T) {
	bodies := func() map[string]string {
		s, srv := newSLOServer(t, testSpec(t))
		submitSequential(t, s, 12)
		out := make(map[string]string, 3)
		for _, p := range []string{"/metrics", "/slo", "/flight"} {
			code, _, body := get(t, srv, "GET", p)
			if code != 200 {
				t.Fatalf("GET %s = %d", p, code)
			}
			out[p] = body
		}
		return out
	}
	a, b := bodies(), bodies()
	for _, p := range []string{"/metrics", "/slo", "/flight"} {
		if a[p] != b[p] {
			t.Fatalf("%s differs across identical runs:\n%s\n---\n%s", p, a[p], b[p])
		}
	}
}

// An impossible objective exhausts its budget: /health flips to 503
// with the exhaustion reason, and the flight recorder captures a dump
// labeled with the objective.
func TestBudgetExhaustionTripsHealthAndFlight(t *testing.T) {
	spec := slo.Spec{Objectives: []slo.Objective{{
		Tenant: "A", Name: "impossible", Kind: slo.KindLatency,
		Target: 0.99, Threshold: sim.Nanosecond,
	}}}
	s, srv := newSLOServer(t, spec)
	submitSequential(t, s, 12)

	code, _, body := get(t, srv, "GET", "/health")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/health = %d, want 503; body:\n%s", code, body)
	}
	if !strings.Contains(body, "status unhealthy") || !strings.Contains(body, "slo-budget-exhausted: impossible") {
		t.Fatalf("/health body:\n%s", body)
	}
	if _, _, fl := get(t, srv, "GET", "/flight"); !strings.Contains(fl, `slo "impossible" (tenant "A") error budget exhausted`) {
		t.Fatalf("/flight missing exhaustion dump:\n%s", fl)
	}
	if _, _, sl := get(t, srv, "GET", "/slo"); !strings.Contains(sl, "\"compliant\": false") {
		t.Fatalf("/slo still compliant:\n%s", sl)
	}
}

// Eight submitters hammer the frontier while /metrics is polled: every
// exposition read mid-flight must be complete and well-formed (one
// trailing # EOF, only comment or sample lines) — the race-enabled
// guarantee that the aux SLO families never tear the exposition.
func TestOpenMetricsStableUnderConcurrentIngest(t *testing.T) {
	s, srv := newSLOServer(t, testSpec(t))
	const goroutines, perG = 8, 15
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := s.Submit(ingestJob(g*perG + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			code, _, body := get(t, srv, "GET", "/metrics")
			if code != 200 {
				t.Errorf("/metrics = %d", code)
				return
			}
			if err := checkExposition(body); err != "" {
				t.Errorf("torn exposition (%s):\n%s", err, body)
				return
			}
			// /slo and /health must also stay readable mid-flight.
			if code, _, _ := get(t, srv, "GET", "/slo"); code != 200 {
				t.Errorf("/slo = %d", code)
				return
			}
			if code, _, _ := get(t, srv, "GET", "/health"); code != 200 && code != 503 {
				t.Errorf("/health = %d", code)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-probeDone
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, _, body := get(t, srv, "GET", "/metrics")
	if !strings.Contains(body, "mic_slo_burn_rate") {
		t.Fatalf("final exposition missing SLO families:\n%s", body)
	}
}

// checkExposition validates the OpenMetrics text shape: ends with one
// # EOF, and every line is a comment or a `name{labels} value` sample
// from this system's families.
func checkExposition(body string) string {
	if !strings.HasSuffix(body, "# EOF\n") {
		return "missing trailing # EOF"
	}
	if strings.Count(body, "# EOF") != 1 {
		return "multiple # EOF markers"
	}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if line == "" {
			return "blank line"
		}
		if strings.HasPrefix(line, "# TYPE ") || strings.HasPrefix(line, "# HELP ") || line == "# EOF" {
			continue
		}
		if !strings.HasPrefix(line, "micstream_") && !strings.HasPrefix(line, "mic_slo_") {
			return "unexpected line " + line
		}
		if !strings.Contains(line, " ") {
			return "sample without value: " + line
		}
	}
	return ""
}
