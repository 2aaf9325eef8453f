package micstream

import (
	"micstream/internal/experiments"
	"micstream/internal/serve"
	"micstream/internal/slo"
)

// SLO layer (DESIGN.md §16): tenants declare objectives — latency
// targets, per-job deadlines with miss budgets, throughput floors —
// and a deterministic evaluator folds the telemetry stream into
// windowed error budgets, Google-SRE multi-window burn rates, and
// causally attributed violations. Evaluation happens only at drain
// instants in virtual time, so every verdict (and the SLO_<run>.json
// artifact) is bit-identical across same-seed runs, and the evaluator
// never perturbs the run it observes.

type (
	// SLOSpec is a tenant's declarative set of objectives, loadable
	// from JSON (LoadSLOSpec / ParseSLOSpec).
	SLOSpec = slo.Spec
	// SLOObjective is one objective: a latency target, a deadline
	// miss budget, or a throughput floor, with its burn-rate alert
	// windows and thresholds.
	SLOObjective = slo.Objective
	// SLOEvaluator folds telemetry into per-objective budgets, burn
	// rates, alerts and attributed violations. Wire it to a
	// Telemetry recorder through Observers, or let the serve layer
	// wire it.
	SLOEvaluator = slo.Evaluator
	// Observers wires an OpenMetricsExporter, a FlightRecorder and an
	// SLOEvaluator (nil members absent) to one Telemetry recorder
	// with Attach: one fan-out, budget exhaustion dumping the flight
	// ring, the mic_slo_* families joining the exposition, one lock.
	// Serve attaches it with AttachServed: one snapshot and one lock
	// per epoch.
	Observers = slo.Observers
	// SLOState is one objective's verdict: samples, breaches,
	// remaining budget, burn rates, alert and exhaustion instants.
	SLOState = slo.ObjectiveState
	// SLOAlert is one burn-rate alert episode (fired, maybe cleared),
	// stamped in virtual time.
	SLOAlert = slo.Alert
	// SLOViolation is one attributed breach: which job, at what
	// drain instant, over which budget, dominated by which causal
	// phase of its timeline.
	SLOViolation = slo.Violation
	// SLOMeta is the provenance block of an SLO_<run>.json artifact.
	SLOMeta = slo.Meta
)

// NewSLOEvaluator builds an evaluator for the spec (normalized and
// validated; defaults fill unset windows and burn thresholds).
func NewSLOEvaluator(spec SLOSpec) (*SLOEvaluator, error) { return slo.New(spec) }

// LoadSLOSpec reads and validates a JSON objective spec from a file.
func LoadSLOSpec(path string) (SLOSpec, error) { return slo.LoadSpec(path) }

// ParseSLOSpec parses and validates a JSON objective spec.
func ParseSLOSpec(data []byte) (SLOSpec, error) { return slo.ParseSpec(data) }

// WithServeSLO attaches an SLO evaluator to the server: live /slo and
// /health endpoints, mic_slo_* families joined into /metrics, and
// budget exhaustion triggering the flight recorder. Requires a
// cluster built WithClusterTelemetry.
func WithServeSLO(ev *SLOEvaluator) ServeOption { return serve.WithSLO(ev) }

// WithServeSLOMeta sets the provenance block of the server's /slo
// report.
func WithServeSLOMeta(m SLOMeta) ServeOption { return serve.WithSLOMeta(m) }

// StampSLODeadlines copies each deadline-kind objective's threshold
// onto its tenant's jobs as their declared relative deadline, so the
// scheduler's miss accounting and the evaluator judge the same budget.
// Jobs that already declare a deadline keep it.
func StampSLODeadlines(jobs []ClusterJob, spec SLOSpec) { experiments.StampDeadlines(jobs, spec) }
