package slo

import (
	"micstream/internal/obs"
	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

// Violation is one detected objective breach: a completed job that
// overran its latency or deadline budget, or a drain instant at which
// a tenant's windowed throughput dropped below its floor.
type Violation struct {
	// Objective and Tenant identify the breached objective.
	Objective, Tenant string
	// Job and ID identify the breaching job (-1 for throughput
	// breaches, which are tenant-wide).
	Job, ID int
	// At is the detection instant (the Complete event for per-job
	// kinds, the drain instant for throughput).
	At sim.Time
	// Latency and Budget are the compared durations for per-job kinds
	// (both 0 for throughput breaches).
	Latency, Budget sim.Duration
	// Phase attributes the breach via the causal timeline: the
	// dominant phase of the breaching job's latency (place-wait,
	// commit-wait, exec, slice-wait, migration), or "throughput" for
	// floor breaches.
	Phase string
}

// Alert is one burn-rate alert episode: both windows burning above
// their thresholds at a drain instant. It clears when the fast-window
// burn drops back under its threshold.
type Alert struct {
	// Objective and Tenant identify the alerting objective.
	Objective, Tenant string
	// At is the instant the alert fired; FastBurn and SlowBurn the
	// burn rates that fired it.
	At                 sim.Time
	FastBurn, SlowBurn float64
	// Cleared reports the episode ended; ClearedAt is when.
	Cleared   bool
	ClearedAt sim.Time
}

// ObjectiveState is one objective's standing at the latest evaluation
// instant — the row /slo and the experiment tables render.
type ObjectiveState struct {
	// Objective echoes the (normalized) declaration.
	Objective Objective
	// Samples and Bad count judged events so far (per-job kinds).
	Samples, Bad int
	// BadTime and TotalTime are the throughput kinds' integrated
	// breach and observation spans (0 for per-job kinds).
	BadTime, TotalTime sim.Duration
	// BudgetRemaining is the cumulative error budget left: 1 untouched,
	// ≤ 0 exhausted. BurnFast and BurnSlow are the windowed burn rates
	// at the latest evaluation.
	BudgetRemaining, BurnFast, BurnSlow float64
	// Violations counts breaches so far; Alerting marks a live alert
	// episode; Exhausted marks a spent budget (at ExhaustedAt).
	Violations  int
	Alerting    bool
	Exhausted   bool
	ExhaustedAt sim.Time
	// FirstAlertAt is the first alert episode's instant (0 when none
	// ever fired).
	FirstAlertAt sim.Time
}

// sample is one judged per-job event.
type sample struct {
	at  sim.Time
	bad bool
}

// segment is one integrated throughput-observation span.
type segment struct {
	from, to sim.Time
	bad      bool
}

// window is one burn window's running view of an objective's deque —
// judged samples for the per-job kinds, observation segments for
// throughput: first is the deque index of the oldest entry inside the
// window, n and bad count the samples from there on, and span and
// badSpan sum the full lengths of the segments from there on. Every
// count is an integer, so a burn rate computed from a window is the
// same float expression over the same numbers as a rescan of the deque.
type window struct {
	first         int
	n, bad        int
	span, badSpan sim.Duration
}

// addSample counts one sample appended to the deque.
func (w *window) addSample(bad bool) {
	w.n++
	if bad {
		w.bad++
	}
}

// addSegment counts one segment appended to the deque.
func (w *window) addSegment(seg segment) {
	d := seg.to.Sub(seg.from)
	w.span += d
	if seg.bad {
		w.badSpan += d
	}
}

// skipSamples moves the window past the samples at or before edge.
func (w *window) skipSamples(samples []sample, edge sim.Time) {
	for w.first < len(samples) && samples[w.first].at <= edge {
		w.n--
		if samples[w.first].bad {
			w.bad--
		}
		w.first++
	}
}

// skipSegments moves the window past the segments ending at or before
// edge.
func (w *window) skipSegments(segs []segment, edge sim.Time) {
	for w.first < len(segs) && segs[w.first].to <= edge {
		seg := segs[w.first]
		d := seg.to.Sub(seg.from)
		w.span -= d
		if seg.bad {
			w.badSpan -= d
		}
		w.first++
	}
}

// sampleBurn is burn's per-job rate over the window's samples.
func (w *window) sampleBurn(tol float64) float64 {
	if w.n == 0 {
		return 0
	}
	return (float64(w.bad) / float64(w.n)) / tol
}

// segmentBurn is burn's throughput rate over the window's segments
// from edge on: only the oldest segment can straddle the edge, so it
// alone is clipped.
func (w *window) segmentBurn(segs []segment, edge sim.Time, tol float64) float64 {
	covered, bad := w.span, w.badSpan
	if w.first < len(segs) {
		if seg := segs[w.first]; seg.from < edge {
			covered -= edge.Sub(seg.from)
			if seg.bad {
				bad -= edge.Sub(seg.from)
			}
		}
	}
	if covered <= 0 {
		return 0
	}
	return (bad.Seconds() / covered.Seconds()) / tol
}

// objState is one objective's accumulating evaluation state.
type objState struct {
	obj Objective

	// Per-job kinds: a windowed deque of judged samples (pruned to the
	// slow window) plus cumulative totals.
	samples    []sample
	total, bad int

	// Throughput kind: completion instants within the slow window, the
	// windowed segment deque, and cumulative time integrals.
	completions        []sim.Time
	segs               []segment
	badTime, totalTime sim.Duration
	lastBelow          bool

	// fast and slow are the burn windows over samples or segs, and tput
	// indexes the first completion inside the throughput rate's window.
	// They are valid while inc holds: every deque in time order, and no
	// evaluation instant before evalAt, the last one. Then each
	// evaluation only moves the windows forward over the entries that
	// left them; otherwise it rescans (DESIGN.md §16).
	fast, slow window
	tput       int
	inc        bool
	evalAt     sim.Time
	// evalSamples and evalCompletions are the deques' lengths after the
	// last evaluation: the entries past them were judged since.
	evalSamples, evalCompletions int

	burnFast, burnSlow float64
	budget             float64

	alerting    bool
	alerts      []Alert
	exhausted   bool
	exhaustedAt sim.Time

	violations []Violation
	byPhase    map[string]int
}

// tenantObjectives lists one judged tenant's objective indexes, in
// spec declaration order.
type tenantObjectives struct {
	tenant string
	objs   []int
}

// Evaluator consumes the telemetry stream and maintains every
// objective's budget, burn rates, alerts and violations. It is a pure
// consumer: wire it to a recorder through Observers, and nothing it
// computes feeds back into a scheduling decision.
//
// Like the flight recorder it is not itself thread-safe: Observers
// serializes the run's writes against live reads.
type Evaluator struct {
	objs    []*objState
	tenants []tenantObjectives

	// jobs folds the in-flight jobs of judged tenants (obs.Folder): a
	// completed job is judged on its folded timeline.
	jobs obs.Folder

	onExhausted func(Objective, sim.Time)

	started  bool
	start    sim.Time
	lastEval sim.Time
	evals    int

	// rescan makes every evaluation rescan its deques, as the windows
	// would without their running counts: the reference the
	// differential test holds the windows to.
	rescan bool
}

// New builds an evaluator over a normalized copy of the spec.
func New(spec Spec) (*Evaluator, error) {
	spec.Objectives = append([]Objective(nil), spec.Objectives...)
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	ev := &Evaluator{objs: make([]*objState, len(spec.Objectives))}
	for i, o := range spec.Objectives {
		ev.objs[i] = &objState{obj: o, budget: 1, byPhase: make(map[string]int)}
		t := o.TenantLabel()
		k := 0
		for k < len(ev.tenants) && ev.tenants[k].tenant != t {
			k++
		}
		if k == len(ev.tenants) {
			ev.tenants = append(ev.tenants, tenantObjectives{tenant: t})
		}
		ev.tenants[k].objs = append(ev.tenants[k].objs, i)
	}
	return ev, nil
}

// SetOnExhausted installs the budget-exhaustion hook, fired once per
// objective at the drain instant its budget crosses zero — the seam
// Observers uses to trigger the flight recorder so the ring captures
// the breach neighborhood.
func (ev *Evaluator) SetOnExhausted(fn func(Objective, sim.Time)) { ev.onExhausted = fn }

// objectivesOf returns the tenant's objective indexes, nil for a
// tenant no objective judges. A spec names few tenants, so a scan
// beats hashing the label.
func (ev *Evaluator) objectivesOf(tenant string) []int {
	for i := range ev.tenants {
		if ev.tenants[i].tenant == tenant {
			return ev.tenants[i].objs
		}
	}
	return nil
}

// OnEvent consumes one telemetry event: admissions of judged tenants
// open a fold of the job (obs.Folder), later events extend it, and a
// completion is judged against the tenant's per-job objectives.
func (ev *Evaluator) OnEvent(e telemetry.Event) { ev.onEvent(&e) }

// onEvent is OnEvent without copying the event again.
func (ev *Evaluator) onEvent(e *telemetry.Event) {
	if !ev.started {
		ev.started = true
		ev.start = e.At
		ev.lastEval = e.At
	}
	if e.Kind == telemetry.Admit {
		if ev.objectivesOf(e.Tenant) != nil {
			ev.jobs.Open(e)
		}
		return
	}
	if j, c := ev.jobs.Apply(e); c&obs.Ended != 0 && !j.Failed {
		ev.judge(j, e)
	}
}

// judge scores one completed job against its admission tenant's
// per-job objectives and records completions for throughput rates.
func (ev *Evaluator) judge(j *obs.JobFold, e *telemetry.Event) {
	// The tenant's objective indexes come in spec declaration order.
	for _, i := range ev.objectivesOf(j.Tenant) {
		st := ev.objs[i]
		switch st.obj.Kind {
		case KindThroughput:
			if n := len(st.completions); n > 0 && e.At < st.completions[n-1] {
				st.inc = false
			}
			st.completions = append(st.completions, e.At)
			continue
		case KindDeadline:
			budget := j.Deadline
			if budget <= 0 {
				budget = st.obj.Threshold
			}
			if budget <= 0 {
				continue // no budget declared anywhere: not a sample
			}
			ev.addSample(st, e, j, budget)
		case KindLatency:
			ev.addSample(st, e, j, st.obj.Threshold)
		}
	}
}

// addSample records one judged per-job event and, on a breach, its
// violation, attributed to the dominant phase of the job's folded
// timeline.
func (ev *Evaluator) addSample(st *objState, e *telemetry.Event, j *obs.JobFold, budget sim.Duration) {
	lat := j.Latency()
	bad := lat > budget
	if n := len(st.samples); n > 0 && e.At < st.samples[n-1].at {
		st.inc = false
	}
	st.samples = append(st.samples, sample{at: e.At, bad: bad})
	st.fast.addSample(bad)
	st.slow.addSample(bad)
	st.total++
	if !bad {
		return
	}
	st.bad++
	phase := j.CriticalPhase()
	st.byPhase[phase]++
	st.violations = append(st.violations, Violation{
		Objective: st.obj.Name,
		Tenant:    st.obj.TenantLabel(),
		Job:       e.Job,
		ID:        e.ID,
		At:        e.At,
		Latency:   lat,
		Budget:    budget,
		Phase:     phase,
	})
}

// OnMetrics evaluates every objective at the snapshot's drain instant;
// the instant is all it reads (OnInstant).
func (ev *Evaluator) OnMetrics(s telemetry.MetricsSnapshot) { ev.OnInstant(s.At) }

// OnInstant evaluates every objective at one drain instant: throughput
// segments are integrated, windows moved and pruned, burn rates and
// budgets recomputed, alert edges detected, and exhaustion hooks
// fired. This is the only place verdict state changes, so verdicts
// are a pure function of the virtual-time event stream. An instant
// before the last one starts a new timeline, as a second run whose
// clock restarts does: the windows keep only the entries judged since
// the last evaluation, and the cumulative verdicts carry on.
func (ev *Evaluator) OnInstant(now sim.Time) {
	if !ev.started {
		ev.started = true
		ev.start = now
		ev.lastEval = now
	}
	for _, st := range ev.objs {
		if now < st.evalAt {
			st.restart()
		}
		if st.obj.Kind == KindThroughput {
			ev.integrateThroughput(st, now)
		}
		if !st.inc && !ev.rescan && st.ordered() {
			st.resetWindows()
		}
		if st.inc && !ev.rescan {
			st.advance(now, ev.start)
		} else {
			prune(st, now)
			st.burnFast = burn(st, now, st.obj.FastWindow, ev.start)
			st.burnSlow = burn(st, now, st.obj.SlowWindow, ev.start)
		}
		st.evalAt = now
		st.evalSamples, st.evalCompletions = len(st.samples), len(st.completions)
		st.budget = budgetRemaining(st)

		active := st.burnFast >= st.obj.FastBurn && st.burnSlow >= st.obj.SlowBurn
		if !st.alerting && active {
			st.alerting = true
			st.alerts = append(st.alerts, Alert{
				Objective: st.obj.Name,
				Tenant:    st.obj.TenantLabel(),
				At:        now,
				FastBurn:  st.burnFast,
				SlowBurn:  st.burnSlow,
			})
		} else if st.alerting && st.burnFast < st.obj.FastBurn {
			st.alerting = false
			last := &st.alerts[len(st.alerts)-1]
			last.Cleared = true
			last.ClearedAt = now
		}
		if !st.exhausted && st.budget <= 0 {
			st.exhausted = true
			st.exhaustedAt = now
			if ev.onExhausted != nil {
				ev.onExhausted(st.obj, now)
			}
		}
	}
	ev.lastEval = now
	ev.evals++
}

// integrateThroughput appends the observation segment since the last
// evaluation, judged by the windowed completion rate at its end, and
// records a violation on each below-floor edge.
func (ev *Evaluator) integrateThroughput(st *objState, now sim.Time) {
	if now <= ev.lastEval {
		return
	}
	win := st.obj.FastWindow
	from := now.Add(-win)
	if from < ev.start {
		from = ev.start
	}
	span := now.Sub(from)
	n := 0
	if st.inc && !ev.rescan {
		// The completions are in time order and from only moves
		// forward: count from the cursor, less any completion after now.
		for st.tput < len(st.completions) && st.completions[st.tput] <= from {
			st.tput++
		}
		n = len(st.completions) - st.tput
		for k := len(st.completions) - 1; k >= st.tput && st.completions[k] > now; k-- {
			n--
		}
	} else {
		for _, at := range st.completions {
			if at > from && at <= now {
				n++
			}
		}
	}
	rate := 0.0
	if secs := span.Seconds(); secs > 0 {
		rate = float64(n) / secs
	}
	below := rate < st.obj.Floor
	seg := segment{from: ev.lastEval, to: now, bad: below}
	if k := len(st.segs); k > 0 && seg.from < st.segs[k-1].to {
		st.inc = false
	}
	st.segs = append(st.segs, seg)
	st.fast.addSegment(seg)
	st.slow.addSegment(seg)
	st.totalTime += seg.to.Sub(seg.from)
	if below {
		st.badTime += seg.to.Sub(seg.from)
		if !st.lastBelow {
			st.byPhase["throughput"]++
			st.violations = append(st.violations, Violation{
				Objective: st.obj.Name,
				Tenant:    st.obj.TenantLabel(),
				Job:       -1,
				ID:        -1,
				At:        now,
				Phase:     "throughput",
			})
		}
	}
	st.lastBelow = below
}

// restart starts a new timeline at an evaluation instant before the
// objective's last one, as when a second run whose clock restarts
// feeds the same evaluator. The windowed deques keep only the entries
// judged since the last evaluation, which belong to the new timeline.
// The old timeline's entries are dropped: left at the deques' front,
// they would hold back pruning, and keep every evaluation rescanning,
// until the new clock passed them by the slow window. Cumulative
// totals, budgets, alerts and violations are kept.
func (st *objState) restart() {
	st.samples = st.samples[st.evalSamples:]
	st.completions = st.completions[st.evalCompletions:]
	st.segs = st.segs[:0]
	st.inc = false
}

// ordered reports whether every deque is in time order: samples and
// completions by instant, segments each starting where (or after) the
// one before ends. Only then can windows move forward over them.
func (st *objState) ordered() bool {
	for i := 1; i < len(st.samples); i++ {
		if st.samples[i].at < st.samples[i-1].at {
			return false
		}
	}
	for i := 1; i < len(st.completions); i++ {
		if st.completions[i] < st.completions[i-1] {
			return false
		}
	}
	for i := 1; i < len(st.segs); i++ {
		if st.segs[i].from < st.segs[i-1].to {
			return false
		}
	}
	return true
}

// resetWindows opens both windows over every entry of the ordered
// deques, for advance to move forward from, and marks them valid.
func (st *objState) resetWindows() {
	st.fast, st.slow, st.tput = window{}, window{}, 0
	for _, sm := range st.samples {
		st.fast.addSample(sm.bad)
		st.slow.addSample(sm.bad)
	}
	for _, seg := range st.segs {
		st.fast.addSegment(seg)
		st.slow.addSegment(seg)
	}
	st.inc = true
}

// advance moves both windows forward to now, prunes the deques to the
// slow window exactly as prune does, and computes the burn rates burn
// would. The per-job prune point is the slow window's first sample;
// the throughput windows' edges never fall before the prune edge, so
// pruning only shifts their indexes.
func (st *objState) advance(now, start sim.Time) {
	tol := 1 - st.obj.Target
	edge := now.Add(-st.obj.SlowWindow)
	fastEdge := now.Add(-st.obj.FastWindow)
	if st.obj.Kind != KindThroughput {
		st.fast.skipSamples(st.samples, fastEdge)
		st.slow.skipSamples(st.samples, edge)
		p := st.slow.first
		st.samples = st.samples[p:]
		st.fast.first -= p
		st.slow.first = 0
		st.burnFast = st.fast.sampleBurn(tol)
		st.burnSlow = st.slow.sampleBurn(tol)
		return
	}
	slowEdge := max(edge, start)
	fastEdge = max(fastEdge, start)
	st.fast.skipSegments(st.segs, fastEdge)
	st.slow.skipSegments(st.segs, slowEdge)
	st.burnFast = st.fast.segmentBurn(st.segs, fastEdge, tol)
	st.burnSlow = st.slow.segmentBurn(st.segs, slowEdge, tol)
	p := 0
	for p < len(st.segs) && st.segs[p].to <= edge {
		p++
	}
	st.segs = st.segs[p:]
	st.fast.first -= p
	st.slow.first -= p
	p = 0
	for p < len(st.completions) && st.completions[p] <= edge {
		p++
	}
	st.completions = st.completions[p:]
	st.tput = max(st.tput-p, 0)
}

// prune drops samples, segments and completions that fell out of the
// slow window — the only state the windowed burn rates need. With
// burn, it is the rescan advance replaces while the deques are
// ordered.
func prune(st *objState, now sim.Time) {
	edge := now.Add(-st.obj.SlowWindow)
	i := 0
	for i < len(st.samples) && st.samples[i].at <= edge {
		i++
	}
	st.samples = st.samples[i:]
	i = 0
	for i < len(st.segs) && st.segs[i].to <= edge {
		i++
	}
	st.segs = st.segs[i:]
	i = 0
	for i < len(st.completions) && st.completions[i] <= edge {
		i++
	}
	st.completions = st.completions[i:]
}

// burn computes one objective's burn rate over a trailing window by
// rescanning the pruned deque: the window's bad fraction over the
// tolerated bad fraction.
func burn(st *objState, now sim.Time, window sim.Duration, start sim.Time) float64 {
	tol := 1 - st.obj.Target
	edge := now.Add(-window)
	if st.obj.Kind == KindThroughput {
		if edge < start {
			edge = start
		}
		covered := sim.Duration(0)
		bad := sim.Duration(0)
		for _, seg := range st.segs {
			from, to := seg.from, seg.to
			if from < edge {
				from = edge
			}
			if to <= from {
				continue
			}
			covered += to.Sub(from)
			if seg.bad {
				bad += to.Sub(from)
			}
		}
		if covered <= 0 {
			return 0
		}
		return (bad.Seconds() / covered.Seconds()) / tol
	}
	total, bad := 0, 0
	for _, sm := range st.samples {
		if sm.at > edge {
			total++
			if sm.bad {
				bad++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / tol
}

// budgetRemaining computes the cumulative error budget left.
func budgetRemaining(st *objState) float64 {
	tol := 1 - st.obj.Target
	if st.obj.Kind == KindThroughput {
		if st.totalTime <= 0 {
			return 1
		}
		return 1 - (st.badTime.Seconds()/st.totalTime.Seconds())/tol
	}
	if st.total == 0 {
		return 1
	}
	return 1 - (float64(st.bad)/float64(st.total))/tol
}

// States snapshots every objective's standing in declaration order.
func (ev *Evaluator) States() []ObjectiveState {
	out := make([]ObjectiveState, len(ev.objs))
	for i, st := range ev.objs {
		os := ObjectiveState{
			Objective:       st.obj,
			Samples:         st.total,
			Bad:             st.bad,
			BadTime:         st.badTime,
			TotalTime:       st.totalTime,
			BudgetRemaining: st.budget,
			BurnFast:        st.burnFast,
			BurnSlow:        st.burnSlow,
			Violations:      len(st.violations),
			Alerting:        st.alerting,
			Exhausted:       st.exhausted,
			ExhaustedAt:     st.exhaustedAt,
		}
		if len(st.alerts) > 0 {
			os.FirstAlertAt = st.alerts[0].At
		}
		out[i] = os
	}
	return out
}

// Alerts returns every alert episode of every objective, in
// declaration-then-fire order.
func (ev *Evaluator) Alerts() []Alert {
	var out []Alert
	for _, st := range ev.objs {
		out = append(out, st.alerts...)
	}
	return out
}

// Violations returns every recorded breach, in declaration-then-
// detection order.
func (ev *Evaluator) Violations() []Violation {
	var out []Violation
	for _, st := range ev.objs {
		out = append(out, st.violations...)
	}
	return out
}

// Exhausted lists the names of objectives whose budget is spent, in
// declaration order.
func (ev *Evaluator) Exhausted() []string {
	var out []string
	for _, st := range ev.objs {
		if st.exhausted {
			out = append(out, st.obj.Name)
		}
	}
	return out
}

// Alerting lists the names of objectives with a live alert episode,
// in declaration order.
func (ev *Evaluator) Alerting() []string {
	var out []string
	for _, st := range ev.objs {
		if st.alerting {
			out = append(out, st.obj.Name)
		}
	}
	return out
}
