package experiments

import (
	"bytes"
	"fmt"

	"micstream/internal/cluster"
	"micstream/internal/obs"
	"micstream/internal/sim"
	"micstream/internal/slo"
	"micstream/internal/telemetry"
)

func init() {
	register("slo", SLO)
}

// The SLO study evaluates tight and loose objectives over two stress
// mixes. The convoy mix (the slicing study's whole-job arm: an
// interactive tenant trapped behind a batch tenant's multi-task jobs)
// breaches the interactive tenant's latency objectives; the imbalance
// mix (every job's data stranded on device 0, no stealing) breaches
// through place-wait instead. The tight objective must alert before
// the loose one on the same tenant — the burn-rate ordering the alert
// design promises.
var sloStudySpec = slo.Spec{Objectives: []slo.Objective{
	{Tenant: "interactive", Name: "int-tight", Kind: slo.KindLatency, Target: 0.9, Threshold: 2 * sim.Millisecond, FastBurn: 8, SlowBurn: 4},
	{Tenant: "batch", Name: "batch-loose", Kind: slo.KindLatency, Target: 0.9, Threshold: 40 * sim.Millisecond, FastBurn: 4, SlowBurn: 2},
	{Tenant: "batch", Name: "batch-deadline", Kind: slo.KindDeadline, Target: 0.8, Threshold: 45 * sim.Millisecond},
	{Tenant: "interactive", Name: "int-floor", Kind: slo.KindThroughput, Target: 0.5, Floor: 200},
}}

// sloImbalanceSpec judges the imbalance mix's tenants (the scenario
// generator's cyclic labels).
var sloImbalanceSpec = slo.Spec{Objectives: []slo.Objective{
	{Tenant: "A", Name: "a-tight", Kind: slo.KindLatency, Target: 0.9, Threshold: 5 * sim.Millisecond, FastBurn: 8, SlowBurn: 4},
	{Tenant: "A", Name: "a-loose", Kind: slo.KindLatency, Target: 0.9, Threshold: 20 * sim.Millisecond, FastBurn: 8, SlowBurn: 4},
}}

// sloMix is one stress mix and the spec that judges it.
type sloMix struct {
	name string
	spec slo.Spec
	cell clusterCell
}

var sloMixes = []sloMix{
	{"convoy", sloStudySpec, convoy},
	{"imbalance", sloImbalanceSpec, clusterCell{
		platform: twoMICs,
		place:    cluster.Predicted,
		scenario: cluster.ScenarioConfig{
			Arrival: "bursty", Tenants: 2, TilesPerJob: 4, SizeSpread: 4,
			AffinityFraction: 1, Origins: []int{0}, XferBytes: 8 << 20, WindowNs: 10_000_000,
		},
		opts: []cluster.Option{cluster.WithQueueDepth(16)},
	}},
}

// sloCell is one instrumented run's full observable output.
type sloCell struct {
	result *cluster.Result
	eval   *slo.Evaluator
	flight *obs.FlightRecorder
}

// stamped is the mix's cell with deadline objectives judging each
// job's own declared budget: the spec's deadline-kind thresholds are
// stamped onto the matching tenant's jobs, as `miccluster -slo` does.
func (m sloMix) stamped() clusterCell {
	c := m.cell
	c.stamp = func(jobs []cluster.Job) { StampDeadlines(jobs, m.spec) }
	return c
}

// observe runs the mix with the evaluator and a flight recorder on the
// observer stack, so a budget exhaustion triggers a flight dump — the
// same wiring the serve layer installs.
func (m sloMix) observe(seed uint64) (*sloCell, error) {
	ev, err := slo.New(m.spec)
	if err != nil {
		return nil, err
	}
	fl := obs.NewFlightRecorder(64)
	rec := telemetry.NewRecorder()
	(&slo.Observers{Flight: fl, SLO: ev}).Attach(rec)
	r, err := m.stamped().run(seed, cluster.WithTelemetry(rec))
	if err != nil {
		return nil, err
	}
	return &sloCell{result: r, eval: ev, flight: fl}, nil
}

// StampDeadlines copies each deadline-kind objective's threshold onto
// its tenant's jobs as their declared relative deadline (first
// matching objective wins; jobs that already declare one keep it).
func StampDeadlines(jobs []cluster.Job, spec slo.Spec) {
	for i := range jobs {
		if jobs[i].Deadline != 0 {
			continue
		}
		tenant := jobs[i].Tenant
		if tenant == "" {
			tenant = "default"
		}
		for _, o := range spec.Objectives {
			if o.Kind == slo.KindDeadline && o.TenantLabel() == tenant && o.Threshold > 0 {
				jobs[i].Deadline = o.Threshold
				break
			}
		}
	}
}

// sloReportBytes renders a cell's SLO report — the byte-identity
// artifact the determinism tests compare.
func sloReportBytes(cell *sloCell, seed uint64) ([]byte, error) {
	var buf bytes.Buffer
	err := cell.eval.WriteJSON(&buf, slo.Meta{Run: "study", Seed: int64(seed), Policy: cell.result.Placement})
	return buf.Bytes(), err
}

// SLO regenerates the SLO observability study: both mixes run with the
// full evaluator attached, and each objective's verdict — samples,
// violations, remaining budget, burn rates, alert instants, exhaustion
// — lands in one row. The contract (asserted by the tests): verdicts
// are byte-deterministic, instrumentation never perturbs the runs, a
// tight objective alerts before its loose sibling, and an exhausted
// budget fires a flight-recorder dump.
func SLO() (*Table, error) {
	t := &Table{
		ID:    "slo",
		Title: "SLO objectives under convoy and imbalance stress: budgets, burn rates, alerts",
		Columns: []string{"mix", "objective", "tenant", "kind", "samples", "violations",
			"budget", "burn-fast", "first-alert", "exhausted"},
		Notes: []string{
			"convoy: the slicing study's whole-job arm (12 batch 16-task jobs vs 40 interactive 1-task jobs, SJF, stealing); imbalance: 48 4-tile jobs all stranded on device 0, no stealing",
			"tight vs loose: the interactive tenant promises 2ms, the batch tenant 40ms (convoy); the imbalance mix puts 5ms and 20ms objectives on one tenant; burn-rate alerts at 8x fast / 4x slow (batch-loose at 4x/2x; 20ms/100ms windows — a 0.9 target caps burn at 10x, so the SRE 14x default cannot fire)",
			"budget = fraction of the error budget left at the end of the run (1 untouched, <=0 exhausted); first-alert/exhausted are virtual instants [ms], - when never",
			"batch-deadline stamps its 45ms threshold onto the batch jobs as per-job deadlines; int-floor is a windowed throughput floor in jobs per virtual second",
		},
	}
	for _, mix := range sloMixes {
		cell, err := mix.observe(clusterSeed)
		if err != nil {
			return nil, err
		}
		for _, st := range cell.eval.States() {
			firstAlert, exhausted := "-", "-"
			if st.FirstAlertAt > 0 {
				firstAlert = fmtMS(st.FirstAlertAt.Milliseconds())
			}
			if st.Exhausted {
				exhausted = fmtMS(st.ExhaustedAt.Milliseconds())
			}
			t.Rows = append(t.Rows, []string{
				mix.name, st.Objective.Name, st.Objective.TenantLabel(), st.Objective.Kind,
				fmt.Sprintf("%d", st.Samples), fmt.Sprintf("%d", st.Violations),
				fmt.Sprintf("%.2f", st.BudgetRemaining), fmt.Sprintf("%.1f", st.BurnFast),
				firstAlert, exhausted,
			})
		}
	}
	return t, nil
}
