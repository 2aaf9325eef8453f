package slo

import (
	"bytes"
	"strings"
	"testing"

	"micstream/internal/obs"
	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

const msD = sim.Millisecond

func at(ms int64) sim.Time { return sim.Time(ms) * sim.Time(msD) }

// feedJob replays one job's minimal lifecycle (Admit → Place →
// Dispatch → Complete) through the evaluator, with the given latency
// split so the critical phase is controllable.
func feedJob(ev *Evaluator, job int, tenant string, admitMs, placeMs, startMs, doneMs int64, deadline sim.Duration) {
	ev.OnEvent(telemetry.Event{At: at(admitMs), Kind: telemetry.Admit, Job: job, ID: job, Tenant: tenant, Deadline: deadline})
	ev.OnEvent(telemetry.Event{At: at(placeMs), Kind: telemetry.Place, Job: job, ID: job, Tenant: tenant})
	ev.OnEvent(telemetry.Event{At: at(startMs), Kind: telemetry.Dispatch, Job: job, ID: job, Tenant: tenant})
	ev.OnEvent(telemetry.Event{At: at(doneMs), Kind: telemetry.Complete, Job: job, ID: job, Tenant: tenant})
}

func drain(ev *Evaluator, nowMs int64) {
	ev.OnMetrics(telemetry.MetricsSnapshot{At: at(nowMs)})
}

func latencySpec(tenant string, thresholdMs int64, target float64) Spec {
	return Spec{Objectives: []Objective{{
		Tenant: tenant, Name: "lat", Kind: KindLatency,
		Target: target, Threshold: sim.Duration(thresholdMs) * msD,
	}}}
}

func TestNormalizeDefaults(t *testing.T) {
	spec := latencySpec("a", 10, 0)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	o := spec.Objectives[0]
	if o.Target != DefaultTarget || o.FastWindow != DefaultFastWindow || o.SlowWindow != DefaultSlowWindow ||
		o.FastBurn != DefaultFastBurn || o.SlowBurn != DefaultSlowBurn {
		t.Fatalf("defaults not applied: %+v", o)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"empty", Spec{}, "no objectives"},
		{"unnamed", Spec{Objectives: []Objective{{Kind: KindLatency, Threshold: msD}}}, "no name"},
		{"dup", Spec{Objectives: []Objective{
			{Name: "x", Kind: KindLatency, Threshold: msD},
			{Name: "x", Kind: KindLatency, Threshold: msD},
		}}, "duplicate"},
		{"kind", Spec{Objectives: []Objective{{Name: "x", Kind: "p99"}}}, "unknown kind"},
		{"latency-threshold", Spec{Objectives: []Objective{{Name: "x", Kind: KindLatency}}}, "positive threshold"},
		{"floor", Spec{Objectives: []Objective{{Name: "x", Kind: KindThroughput}}}, "positive floor"},
		{"target", Spec{Objectives: []Objective{{Name: "x", Kind: KindLatency, Threshold: msD, Target: 1.5}}}, "outside (0,1)"},
		{"windows", Spec{Objectives: []Objective{{Name: "x", Kind: KindLatency, Threshold: msD,
			FastWindow: 50 * msD, SlowWindow: 10 * msD}}}, "exceeds slow window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Normalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestParseSpec(t *testing.T) {
	good := `{"objectives": [
		{"tenant": "a", "name": "lat", "kind": "latency", "threshold": "10ms", "target": 0.9},
		{"tenant": "a", "name": "tp", "kind": "throughput", "floor_jobs_per_s": 100}
	]}`
	spec, err := ParseSpec([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Objectives) != 2 || spec.Objectives[0].Threshold != 10*msD {
		t.Fatalf("parsed %+v", spec.Objectives)
	}
	if spec.Objectives[0].FastWindow != DefaultFastWindow {
		t.Fatal("parse did not normalize")
	}

	bad := []struct{ name, in, want string }{
		{"unknown-field", `{"objectives": [{"name": "x", "kind": "latency", "treshold": "1ms"}]}`, "unknown field"},
		{"trailing", `{"objectives": [{"name": "x", "kind": "latency", "threshold": "1ms"}]} {}`, "trailing data"},
		{"bad-duration", `{"objectives": [{"name": "x", "kind": "latency", "threshold": "10 furlongs"}]}`, "threshold"},
		{"syntax", `{"objectives": `, "parse spec"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestBurnAndBudgetMath(t *testing.T) {
	// Target 0.9 tolerates a 10% bad fraction. Four jobs, one bad
	// (5ms over the 2ms threshold): bad fraction 0.25, so burn 2.5 and
	// budget 1 − 0.25/0.1 = −1.5 (exhausted).
	spec := latencySpec("a", 2, 0.9)
	ev, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	feedJob(ev, 0, "a", 0, 0, 0, 1, 0)
	feedJob(ev, 1, "a", 1, 1, 1, 2, 0)
	feedJob(ev, 2, "a", 2, 2, 2, 3, 0)
	feedJob(ev, 3, "a", 3, 3, 3, 8, 0) // 5ms > 2ms: bad
	drain(ev, 10)
	st := ev.States()[0]
	if st.Samples != 4 || st.Bad != 1 {
		t.Fatalf("samples %d bad %d", st.Samples, st.Bad)
	}
	if got, want := st.BurnFast, 2.5; !near(got, want) {
		t.Fatalf("fast burn %v want %v", got, want)
	}
	if got, want := st.BudgetRemaining, -1.5; !near(got, want) {
		t.Fatalf("budget %v want %v", got, want)
	}
	if !st.Exhausted || st.ExhaustedAt != at(10) {
		t.Fatalf("exhaustion not detected: %+v", st)
	}
	if st.Violations != 1 {
		t.Fatalf("violations %d", st.Violations)
	}
}

func TestWindowPruning(t *testing.T) {
	// A bad sample older than the slow window stops burning but keeps
	// counting against the cumulative budget.
	spec := latencySpec("a", 1, 0.5)
	spec.Objectives[0].FastWindow = 10 * msD
	spec.Objectives[0].SlowWindow = 20 * msD
	ev, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	feedJob(ev, 0, "a", 0, 0, 0, 5, 0) // bad at 5ms
	drain(ev, 6)
	if b := ev.States()[0].BurnFast; b == 0 {
		t.Fatal("fresh breach should burn")
	}
	feedJob(ev, 1, "a", 39, 39, 39, 39, 0) // good at 39ms, inside windows at 40
	drain(ev, 40)
	st := ev.States()[0]
	if st.BurnFast != 0 || st.BurnSlow != 0 {
		t.Fatalf("aged breach still burning: fast %v slow %v", st.BurnFast, st.BurnSlow)
	}
	if near(st.BudgetRemaining, 1) {
		t.Fatalf("cumulative budget forgot the breach: %v", st.BudgetRemaining)
	}
}

func TestViolationAttribution(t *testing.T) {
	spec := latencySpec("a", 1, 0.9)
	ev, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Admit 0, place 1ms, dispatch 2ms, complete 12ms: exec (10ms)
	// dominates.
	feedJob(ev, 0, "a", 0, 1, 2, 12, 0)
	// Admit 20, place 29ms, dispatch 30ms, complete 31ms: place-wait
	// (9ms) dominates.
	feedJob(ev, 1, "a", 20, 29, 30, 31, 0)
	vs := ev.Violations()
	if len(vs) != 2 {
		t.Fatalf("violations %d", len(vs))
	}
	if vs[0].Phase != obs.PhaseExec || vs[1].Phase != obs.PhasePlaceWait {
		t.Fatalf("phases %q, %q", vs[0].Phase, vs[1].Phase)
	}
	if vs[0].Latency != 12*msD || vs[0].Budget != msD {
		t.Fatalf("violation %+v", vs[0])
	}
}

func TestDeadlineKind(t *testing.T) {
	spec := Spec{Objectives: []Objective{{
		Tenant: "a", Name: "dl", Kind: KindDeadline,
		Target: 0.5, Threshold: 10 * msD,
	}}}
	ev, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	feedJob(ev, 0, "a", 0, 0, 0, 5, 3*msD)  // own 3ms deadline: 5ms misses
	feedJob(ev, 1, "a", 0, 0, 0, 5, 0)      // falls back to 10ms threshold: meets
	feedJob(ev, 2, "a", 0, 0, 0, 5, 20*msD) // own 20ms deadline: meets
	drain(ev, 10)
	st := ev.States()[0]
	if st.Samples != 3 || st.Bad != 1 {
		t.Fatalf("samples %d bad %d", st.Samples, st.Bad)
	}

	// With no threshold and no per-job deadline, jobs are not sampled.
	ev2, err := New(Spec{Objectives: []Objective{{Tenant: "a", Name: "dl", Kind: KindDeadline, Target: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	feedJob(ev2, 0, "a", 0, 0, 0, 500, 0)
	drain(ev2, 501)
	if st := ev2.States()[0]; st.Samples != 0 {
		t.Fatalf("deadline-less job sampled: %+v", st)
	}
}

func TestThroughputFloor(t *testing.T) {
	spec := Spec{Objectives: []Objective{{
		Tenant: "a", Name: "tp", Kind: KindThroughput,
		Target: 0.5, Floor: 100, // 100 jobs per virtual second
		FastWindow: 10 * msD, SlowWindow: 40 * msD,
	}}}
	ev, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 5 completions in the first 10ms: 500 jobs/s, above the floor.
	for i := 0; i < 5; i++ {
		feedJob(ev, i, "a", int64(i*2), int64(i*2), int64(i*2), int64(i*2)+1, 0)
	}
	drain(ev, 10)
	st := ev.States()[0]
	if st.BadTime != 0 || len(ev.Violations()) != 0 {
		t.Fatalf("above-floor window flagged: %+v", st)
	}
	// Then silence: the 10→30ms segments fall below the floor; exactly
	// one violation fires at the edge.
	drain(ev, 20)
	drain(ev, 30)
	st = ev.States()[0]
	if st.BadTime != 20*msD {
		t.Fatalf("bad time %v want 20ms", st.BadTime)
	}
	vs := ev.Violations()
	if len(vs) != 1 || vs[0].Phase != "throughput" || vs[0].Job != -1 {
		t.Fatalf("violations %+v", vs)
	}
	if st.BurnFast == 0 {
		t.Fatal("below-floor window should burn")
	}
}

func TestAlertLifecycle(t *testing.T) {
	spec := latencySpec("a", 1, 0.9)
	spec.Objectives[0].FastWindow = 5 * msD
	spec.Objectives[0].SlowWindow = 20 * msD
	spec.Objectives[0].FastBurn = 5
	spec.Objectives[0].SlowBurn = 2
	ev, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Every job bad: both windows burn at 1/0.1 = 10 ≥ both thresholds.
	feedJob(ev, 0, "a", 0, 0, 0, 3, 0)
	feedJob(ev, 1, "a", 0, 0, 0, 4, 0)
	drain(ev, 5)
	if alerting := ev.Alerting(); len(alerting) != 1 {
		t.Fatalf("alerting %v", alerting)
	}
	// Same state a second drain later: still one episode, not two.
	drain(ev, 6)
	if n := len(ev.Alerts()); n != 1 {
		t.Fatalf("alert episodes %d", n)
	}
	// Good jobs push the fast-window burn to 0 while the slow window
	// still remembers: the episode clears.
	feedJob(ev, 2, "a", 14, 14, 14, 14, 0)
	feedJob(ev, 3, "a", 15, 15, 15, 15, 0)
	drain(ev, 16)
	alerts := ev.Alerts()
	if len(alerts) != 1 || !alerts[0].Cleared || alerts[0].ClearedAt != at(16) {
		t.Fatalf("alerts %+v", alerts)
	}
	if len(ev.Alerting()) != 0 {
		t.Fatal("still alerting after clear")
	}
	if st := ev.States()[0]; st.FirstAlertAt != at(5) {
		t.Fatalf("first alert %v", st.FirstAlertAt)
	}
}

func TestExhaustionHookFiresOnce(t *testing.T) {
	spec := latencySpec("a", 1, 0.9)
	ev, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	var fired []sim.Time
	ev.SetOnExhausted(func(o Objective, now sim.Time) {
		if o.Name != "lat" {
			t.Errorf("objective %q", o.Name)
		}
		fired = append(fired, now)
	})
	feedJob(ev, 0, "a", 0, 0, 0, 5, 0) // 100% bad: budget −9
	drain(ev, 6)
	drain(ev, 7)
	if len(fired) != 1 || fired[0] != at(6) {
		t.Fatalf("exhaustion hook fired %v", fired)
	}
	if ex := ev.Exhausted(); len(ex) != 1 || ex[0] != "lat" {
		t.Fatalf("exhausted %v", ex)
	}
}

func TestOtherTenantsIgnored(t *testing.T) {
	ev, err := New(latencySpec("a", 1, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	feedJob(ev, 0, "b", 0, 0, 0, 500, 0)
	drain(ev, 501)
	if st := ev.States()[0]; st.Samples != 0 || st.Violations != 0 {
		t.Fatalf("foreign tenant judged: %+v", st)
	}
	ev.OnEvent(telemetry.Event{At: at(502), Kind: telemetry.Admit, Job: 1, ID: 1, Tenant: "b"})
	if ev.jobs.Job(1) != nil {
		t.Fatal("foreign tenant tracked")
	}
}

// replaySynthetic drives a fixed synthetic stream through a fresh
// evaluator — the shared input for the byte-identity tests.
func replaySynthetic(t *testing.T) *Evaluator {
	t.Helper()
	spec := Spec{Objectives: []Objective{
		{Tenant: "a", Name: "lat", Kind: KindLatency, Target: 0.9, Threshold: 2 * msD},
		{Tenant: "a", Name: "tp", Kind: KindThroughput, Target: 0.5, Floor: 100, FastWindow: 10 * msD, SlowWindow: 40 * msD},
		{Tenant: "b", Name: "dl", Kind: KindDeadline, Target: 0.8, Threshold: 5 * msD},
	}}
	ev, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tenant := "a"
		if i%2 == 1 {
			tenant = "b"
		}
		feedJob(ev, i, tenant, int64(i), int64(i)+1, int64(i)+2, int64(i)+3+int64(i%3)*4, 0)
		drain(ev, int64(i)+15)
	}
	drain(ev, 60)
	return ev
}

func TestWriteJSONByteIdentical(t *testing.T) {
	meta := Meta{Run: "test", Seed: 7, Policy: "predicted"}
	var a, b bytes.Buffer
	if err := replaySynthetic(t).WriteJSON(&a, meta); err != nil {
		t.Fatal(err)
	}
	if err := replaySynthetic(t).WriteJSON(&b, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("reports differ:\n%s\n---\n%s", a.String(), b.String())
	}
	for _, want := range []string{
		`"schema": "micstream-slo-v1"`, `"run": "test"`, `"seed": 7`,
		`"tenant": "a"`, `"kind": "throughput"`, `"violations_by_phase"`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	var a, b bytes.Buffer
	if err := replaySynthetic(t).WriteOpenMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := replaySynthetic(t).WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("expositions differ:\n%s\n---\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{
		"# TYPE mic_slo_budget_remaining gauge",
		`mic_slo_budget_remaining{tenant="a",objective="lat"} `,
		`mic_slo_burn_rate{tenant="a",objective="tp",window="fast"} `,
		`mic_slo_violations_total{tenant="b",objective="dl"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "# EOF") {
		t.Fatal("fragment must not emit # EOF (the exporter terminates the exposition)")
	}
}

func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
