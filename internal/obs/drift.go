package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"micstream/internal/sim"
	"micstream/internal/stats"
	"micstream/internal/telemetry"
)

// Drift sample kinds: a placement sample compares the policy's
// predicted completion for the chosen device (the Place event's score)
// against the job's realized completion; a service sample compares one
// stream grant's service estimate (the Dispatch/Slice event's Dur)
// against the grant's realized span (closed by the matching Requeue or
// Complete).
const (
	SamplePlacement = "placement"
	SampleService   = "service"
)

// Execution regimes a placement sample is classified into, by the
// decisions that happened between commitment and completion, highest
// priority first: a migrated job's score was voided by a mid-job
// preemption, a stolen job's by a pre-dispatch re-binding; staged and
// resident jobs exercise the Fig. 11 staging term and the residency
// discount; plain jobs ran on-origin with no data motion.
const (
	RegimeMigrated = "migrated"
	RegimeStolen   = "stolen"
	RegimeStaged   = "staged"
	RegimeResident = "resident"
	RegimePlain    = "plain"
)

// DriftSample is one predicted-vs-actual comparison extracted from the
// event log.
type DriftSample struct {
	// Kind is SamplePlacement or SampleService.
	Kind string
	// Job, ID and Tenant identify the job; Device is the device the
	// prediction targeted.
	Job    int
	ID     int
	Tenant string
	Device int
	// Regime classifies the job's execution (placement samples; service
	// samples inherit the job's regime so far).
	Regime string
	// Predicted and Actual are the compared durations.
	Predicted, Actual sim.Duration
}

// ErrPct is the sample's signed relative error in percent:
// (predicted − actual) / actual × 100. Positive means the model was
// pessimistic. Samples with zero Actual are excluded from groups.
func (s *DriftSample) ErrPct() float64 {
	return 100 * (float64(s.Predicted) - float64(s.Actual)) / float64(s.Actual)
}

// driftBuckets are the |error| histogram edges in percent.
var driftBuckets = [...]float64{5, 10, 25, 50}

// DriftGroup is the error histogram and summary statistics of one
// sample group (per kind, per tenant, per regime).
type DriftGroup struct {
	// Key labels the group.
	Key string
	// Count is the group's sample count.
	Count int
	// Buckets histogram |error|: <5%, <10%, <25%, <50%, ≥50%.
	Buckets [5]int
	// MeanAbsPct and BiasPct are the mean |error| and mean signed
	// error; P50AbsPct and P95AbsPct the |error| percentiles.
	MeanAbsPct, BiasPct, P50AbsPct, P95AbsPct float64
}

func buildGroup(key string, samples []*DriftSample) DriftGroup {
	g := DriftGroup{Key: key, Count: len(samples)}
	abs := make([]float64, 0, len(samples))
	var sumAbs, sumSigned float64
	for _, s := range samples {
		e := s.ErrPct()
		a := e
		if a < 0 {
			a = -a
		}
		abs = append(abs, a)
		sumAbs += a
		sumSigned += e
		slot := len(driftBuckets)
		for i, edge := range driftBuckets {
			if a < edge {
				slot = i
				break
			}
		}
		g.Buckets[slot]++
	}
	if len(samples) > 0 {
		g.MeanAbsPct = sumAbs / float64(len(samples))
		g.BiasPct = sumSigned / float64(len(samples))
		p50, p95, _ := stats.Percentiles(abs)
		g.P50AbsPct = p50
		g.P95AbsPct = p95
	}
	return g
}

// DriftReport is the model-drift audit of one event log.
type DriftReport struct {
	// Samples lists every comparison in log order.
	Samples []DriftSample
	// Placement and Service summarize each sample kind overall.
	Placement, Service DriftGroup
	// ByTenant and ByRegime group the placement samples (sorted by
	// key); ByTenantService groups the service samples per tenant.
	ByTenant        []DriftGroup
	ByRegime        []DriftGroup
	ByTenantService []DriftGroup
}

// regime classifies the job's execution so far.
func (j *JobFold) regime() string {
	switch {
	case j.Preempts > 0:
		return RegimeMigrated
	case j.Steals > 0:
		return RegimeStolen
	case j.staged:
		return RegimeStaged
	case j.hit:
		return RegimeResident
	default:
		return RegimePlain
	}
}

// AuditDrift extracts predicted-vs-actual samples from an event log by
// replaying it into a Folder: a service sample at each grant close and
// a placement sample at each completion. Placement samples need Place
// events carrying Scores (the predicted and affinity policies record
// them; load-blind policies yield none); service samples need grants
// closed by Requeue/Complete, which every traced run has. Samples
// whose realized duration is zero are dropped (no meaningful relative
// error).
func AuditDrift(events []telemetry.Event) *DriftReport {
	r := &DriftReport{}
	add := func(s DriftSample) {
		if s.Actual > 0 {
			r.Samples = append(r.Samples, s)
		}
	}
	var f Folder
	for i := range events {
		e := &events[i]
		if e.Kind == telemetry.Admit {
			f.Open(e)
			continue
		}
		j, c := f.Apply(e)
		if c&GrantClosed != 0 {
			add(DriftSample{Kind: SampleService, Job: e.Job, ID: e.ID, Tenant: e.Tenant,
				Device: e.Device, Regime: j.regime(), Predicted: j.grantEst, Actual: e.At.Sub(j.grantAt)})
		}
		if c&Ended != 0 && !j.Failed && j.scored {
			add(DriftSample{Kind: SamplePlacement, Job: e.Job, ID: e.ID, Tenant: e.Tenant,
				Device: j.placeDevice, Regime: j.regime(), Predicted: j.predicted, Actual: e.At.Sub(j.placeAt)})
		}
	}
	r.group()
	return r
}

// Summarize builds a report over an externally assembled sample
// population — e.g. samples pooled from several seeds of the same mix
// before grouping, so the histograms describe the pooled distribution
// rather than an average of per-seed summaries.
func Summarize(samples []DriftSample) *DriftReport {
	r := &DriftReport{Samples: samples}
	r.group()
	return r
}

func (r *DriftReport) group() {
	var placement, service []*DriftSample
	for i := range r.Samples {
		s := &r.Samples[i]
		if s.Kind == SamplePlacement {
			placement = append(placement, s)
		} else {
			service = append(service, s)
		}
	}
	r.Placement = buildGroup(SamplePlacement, placement)
	r.Service = buildGroup(SampleService, service)
	r.ByTenant = groupBy(placement, func(s *DriftSample) string { return s.Tenant })
	r.ByRegime = groupBy(placement, func(s *DriftSample) string { return s.Regime })
	r.ByTenantService = groupBy(service, func(s *DriftSample) string { return s.Tenant })
}

func groupBy(samples []*DriftSample, key func(*DriftSample) string) []DriftGroup {
	buckets := make(map[string][]*DriftSample)
	keys := make([]string, 0, 8)
	for _, s := range samples {
		k := key(s)
		if _, ok := buckets[k]; !ok {
			keys = append(keys, k)
		}
		buckets[k] = append(buckets[k], s)
	}
	sort.Strings(keys)
	out := make([]DriftGroup, 0, len(keys))
	for _, k := range keys {
		out = append(out, buildGroup(k, buckets[k]))
	}
	return out
}

// DriftMeta is the provenance block of a DRIFT_<run>.json artifact:
// enough to attribute an error histogram to a specific run and
// calibration state.
type DriftMeta struct {
	// Run labels the artifact (the CI run id, or a local tag).
	Run string
	// Seed and Placement echo the run's scenario seed and placement
	// policy.
	Seed      int64
	Placement string
	// TransferScale and ComputeScale are the pricing model's effective
	// calibration factors (1 uncalibrated).
	TransferScale, ComputeScale float64
}

// WriteDriftJSON renders the audit as the DRIFT_<run>.json artifact —
// handcrafted, key-ordered, shortest-round-trip floats, so repeated
// audits of the same log are byte-identical.
func WriteDriftJSON(w io.Writer, r *DriftReport, meta DriftMeta) error {
	jw := &TextSink{W: w}
	jw.Printf("{\n  \"schema\": \"micstream-drift-v1\",\n")
	jw.Printf("  \"run\": %s,\n  \"seed\": %d,\n  \"policy\": %s,\n", JSONString(meta.Run), meta.Seed, JSONString(meta.Placement))
	jw.Printf("  \"transfer_scale\": %s,\n  \"compute_scale\": %s,\n", FormatFloat(meta.TransferScale), FormatFloat(meta.ComputeScale))
	jw.Printf("  \"samples\": %d,\n", len(r.Samples))
	jw.Printf("  \"buckets\": [\"<5%%\", \"<10%%\", \"<25%%\", \"<50%%\", \">=50%%\"],\n")
	jw.Printf("  \"placement\": ")
	writeGroup(jw, &r.Placement)
	jw.Printf(",\n  \"service\": ")
	writeGroup(jw, &r.Service)
	writeGroupList(jw, "by_tenant", r.ByTenant)
	writeGroupList(jw, "by_regime", r.ByRegime)
	writeGroupList(jw, "by_tenant_service", r.ByTenantService)
	jw.Printf("\n}\n")
	return jw.Err
}

func writeGroupList(jw *TextSink, name string, groups []DriftGroup) {
	jw.Printf(",\n  \"%s\": [", name)
	for i := range groups {
		if i > 0 {
			jw.Printf(",")
		}
		jw.Printf("\n    ")
		writeGroup(jw, &groups[i])
	}
	if len(groups) > 0 {
		jw.Printf("\n  ")
	}
	jw.Printf("]")
}

func writeGroup(jw *TextSink, g *DriftGroup) {
	jw.Printf("{\"key\": %s, \"count\": %d, \"hist\": [%d, %d, %d, %d, %d], \"mean_abs_pct\": %s, \"bias_pct\": %s, \"p50_abs_pct\": %s, \"p95_abs_pct\": %s}",
		JSONString(g.Key), g.Count,
		g.Buckets[0], g.Buckets[1], g.Buckets[2], g.Buckets[3], g.Buckets[4],
		FormatFloat(g.MeanAbsPct), FormatFloat(g.BiasPct), FormatFloat(g.P50AbsPct), FormatFloat(g.P95AbsPct))
}

// TextSink is a printf sink with a sticky error, shared by the
// deterministic JSON and OpenMetrics renderers here and in slo.
type TextSink struct {
	W   io.Writer
	Err error
}

// Printf writes to W unless an earlier write failed.
func (jw *TextSink) Printf(format string, args ...any) {
	if jw.Err != nil {
		return
	}
	_, jw.Err = fmt.Fprintf(jw.W, format, args...)
}

// JSONString quotes a string for JSON (the labels here are tenant names
// and policy ids — escape the structural characters, reject control
// bytes by escaping them numerically).
func JSONString(s string) string {
	b := make([]byte, 0, len(s)+2)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, fmt.Sprintf(`\u%04x`, c)...)
		default:
			b = append(b, c)
		}
	}
	return string(append(b, '"'))
}

// FormatFloat renders a float deterministically (shortest round-trip
// form, same across platforms), for JSON and the exposition format
// alike.
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
