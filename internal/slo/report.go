package slo

import (
	"io"

	"micstream/internal/obs"
)

// maxViolationDetail caps the per-objective violation detail list in
// the JSON report; the full count and phase histogram always cover
// everything.
const maxViolationDetail = 50

// Meta is the provenance block of an SLO_<run>.json artifact.
type Meta struct {
	// Run labels the artifact (the CI run id, or a local tag).
	Run string
	// Seed and Policy echo the run's scenario seed and placement
	// policy.
	Seed   int64
	Policy string
}

// WriteJSON renders the evaluator's full verdict as the SLO_<run>.json
// artifact — handcrafted, key-ordered, shortest-round-trip floats, so
// two same-seed runs produce byte-identical reports.
func (ev *Evaluator) WriteJSON(w io.Writer, meta Meta) error {
	jw := &obs.TextSink{W: w}
	jw.Printf("{\n  \"schema\": \"micstream-slo-v1\",\n")
	jw.Printf("  \"run\": %s,\n  \"seed\": %d,\n  \"policy\": %s,\n", obs.JSONString(meta.Run), meta.Seed, obs.JSONString(meta.Policy))
	jw.Printf("  \"evals\": %d,\n", ev.evals)
	jw.Printf("  \"objectives\": [")
	for i, st := range ev.objs {
		if i > 0 {
			jw.Printf(",")
		}
		jw.Printf("\n    ")
		writeObjective(jw, st)
	}
	if len(ev.objs) > 0 {
		jw.Printf("\n  ")
	}
	jw.Printf("]\n}\n")
	return jw.Err
}

func writeObjective(jw *obs.TextSink, st *objState) {
	o := &st.obj
	jw.Printf("{\n      \"tenant\": %s,\n      \"name\": %s,\n      \"kind\": %s,\n",
		obs.JSONString(o.TenantLabel()), obs.JSONString(o.Name), obs.JSONString(o.Kind))
	jw.Printf("      \"target\": %s,\n      \"threshold_ms\": %s,\n      \"floor_jobs_per_s\": %s,\n",
		obs.FormatFloat(o.Target), obs.FormatFloat(msf(float64(o.Threshold))), obs.FormatFloat(o.Floor))
	jw.Printf("      \"fast_window_ms\": %s,\n      \"slow_window_ms\": %s,\n",
		obs.FormatFloat(msf(float64(o.FastWindow))), obs.FormatFloat(msf(float64(o.SlowWindow))))
	jw.Printf("      \"fast_burn_max\": %s,\n      \"slow_burn_max\": %s,\n",
		obs.FormatFloat(o.FastBurn), obs.FormatFloat(o.SlowBurn))
	jw.Printf("      \"samples\": %d,\n      \"bad\": %d,\n", st.total, st.bad)
	jw.Printf("      \"bad_time_ms\": %s,\n      \"total_time_ms\": %s,\n",
		obs.FormatFloat(msf(float64(st.badTime))), obs.FormatFloat(msf(float64(st.totalTime))))
	jw.Printf("      \"budget_remaining\": %s,\n      \"burn_fast\": %s,\n      \"burn_slow\": %s,\n",
		obs.FormatFloat(st.budget), obs.FormatFloat(st.burnFast), obs.FormatFloat(st.burnSlow))
	jw.Printf("      \"compliant\": %t,\n", st.budget > 0)
	exhausted := -1.0
	if st.exhausted {
		exhausted = msf(float64(st.exhaustedAt))
	}
	jw.Printf("      \"exhausted_at_ms\": %s,\n", obs.FormatFloat(exhausted))
	jw.Printf("      \"violations\": %d,\n", len(st.violations))
	jw.Printf("      \"violations_by_phase\": {")
	for i, phase := range sortedPhases(st.byPhase) {
		if i > 0 {
			jw.Printf(", ")
		}
		jw.Printf("%s: %d", obs.JSONString(phase), st.byPhase[phase])
	}
	jw.Printf("},\n")
	jw.Printf("      \"violation_detail\": [")
	detail := st.violations
	if len(detail) > maxViolationDetail {
		detail = detail[:maxViolationDetail]
	}
	for i := range detail {
		v := &detail[i]
		if i > 0 {
			jw.Printf(",")
		}
		jw.Printf("\n        {\"job\": %d, \"id\": %d, \"at_ms\": %s, \"latency_ms\": %s, \"budget_ms\": %s, \"phase\": %s}",
			v.Job, v.ID, obs.FormatFloat(msf(float64(v.At))), obs.FormatFloat(msf(float64(v.Latency))), obs.FormatFloat(msf(float64(v.Budget))), obs.JSONString(v.Phase))
	}
	if len(detail) > 0 {
		jw.Printf("\n      ")
	}
	jw.Printf("],\n")
	jw.Printf("      \"alerts\": [")
	for i := range st.alerts {
		a := &st.alerts[i]
		if i > 0 {
			jw.Printf(",")
		}
		cleared := -1.0
		if a.Cleared {
			cleared = msf(float64(a.ClearedAt))
		}
		jw.Printf("\n        {\"at_ms\": %s, \"fast_burn\": %s, \"slow_burn\": %s, \"cleared_at_ms\": %s}",
			obs.FormatFloat(msf(float64(a.At))), obs.FormatFloat(a.FastBurn), obs.FormatFloat(a.SlowBurn), obs.FormatFloat(cleared))
	}
	if len(st.alerts) > 0 {
		jw.Printf("\n      ")
	}
	jw.Printf("],\n")
	first := -1.0
	if len(st.alerts) > 0 {
		first = msf(float64(st.alerts[0].At))
	}
	jw.Printf("      \"first_alert_ms\": %s\n    }", obs.FormatFloat(first))
}

// WriteOpenMetrics renders the mic_slo_* families in the OpenMetrics
// text exposition format, WITHOUT the trailing # EOF marker — the
// fragment Observers plugs into the exporter's aux seam, joining the
// micstream_* families in one exposition.
func (ev *Evaluator) WriteOpenMetrics(w io.Writer) error {
	jw := &obs.TextSink{W: w}
	jw.Printf("# TYPE mic_slo_budget_remaining gauge\n# HELP mic_slo_budget_remaining Fraction of the objective's error budget left (1 untouched, <=0 exhausted).\n")
	for _, st := range ev.objs {
		jw.Printf("mic_slo_budget_remaining{tenant=%s,objective=%s} %s\n",
			obs.LabelValue(st.obj.TenantLabel()), obs.LabelValue(st.obj.Name), obs.FormatFloat(st.budget))
	}
	jw.Printf("# TYPE mic_slo_burn_rate gauge\n# HELP mic_slo_burn_rate Windowed error-budget burn rate (1 = exactly on budget).\n")
	for _, st := range ev.objs {
		jw.Printf("mic_slo_burn_rate{tenant=%s,objective=%s,window=\"fast\"} %s\n",
			obs.LabelValue(st.obj.TenantLabel()), obs.LabelValue(st.obj.Name), obs.FormatFloat(st.burnFast))
		jw.Printf("mic_slo_burn_rate{tenant=%s,objective=%s,window=\"slow\"} %s\n",
			obs.LabelValue(st.obj.TenantLabel()), obs.LabelValue(st.obj.Name), obs.FormatFloat(st.burnSlow))
	}
	jw.Printf("# TYPE mic_slo_violations_total counter\n# HELP mic_slo_violations_total Objective breaches detected this run.\n")
	for _, st := range ev.objs {
		jw.Printf("mic_slo_violations_total{tenant=%s,objective=%s} %d\n",
			obs.LabelValue(st.obj.TenantLabel()), obs.LabelValue(st.obj.Name), len(st.violations))
	}
	return jw.Err
}

// msf converts virtual nanoseconds to milliseconds.
func msf(ns float64) float64 { return ns / 1e6 }
