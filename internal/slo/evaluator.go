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

	burnFast, burnSlow float64
	budget             float64

	alerting    bool
	alerts      []Alert
	exhausted   bool
	exhaustedAt sim.Time

	violations []Violation
	byPhase    map[string]int
}

// jobState tracks one in-flight job of a judged tenant: its admission
// instant, declared deadline, and accumulated event history for
// breach attribution.
type jobState struct {
	admitAt  sim.Time
	deadline sim.Duration
	tenant   string
	events   []telemetry.Event
}

// Evaluator consumes the telemetry stream and maintains every
// objective's budget, burn rates, alerts and violations. It is a pure
// consumer: wire it to a recorder through Observers, and nothing it
// computes feeds back into a scheduling decision.
//
// Like the flight recorder it is not itself thread-safe: Observers
// serializes the run's writes against live reads.
type Evaluator struct {
	spec     Spec
	objs     []*objState
	byTenant map[string][]int

	jobs map[int]*jobState
	// free holds finished jobStates for the next admissions to reuse,
	// events slice included: judge reads a job's events only before
	// its state is released.
	free []*jobState

	onExhausted func(Objective, sim.Time)

	started  bool
	start    sim.Time
	lastEval sim.Time
	evals    int
}

// New builds an evaluator over a normalized copy of the spec.
func New(spec Spec) (*Evaluator, error) {
	spec.Objectives = append([]Objective(nil), spec.Objectives...)
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	ev := &Evaluator{
		spec:     spec,
		objs:     make([]*objState, len(spec.Objectives)),
		byTenant: make(map[string][]int),
		jobs:     make(map[int]*jobState),
	}
	for i, o := range spec.Objectives {
		ev.objs[i] = &objState{obj: o, budget: 1, byPhase: make(map[string]int)}
		t := o.TenantLabel()
		ev.byTenant[t] = append(ev.byTenant[t], i)
	}
	return ev, nil
}

// Spec returns the evaluator's normalized spec.
func (ev *Evaluator) Spec() Spec { return ev.spec }

// SetOnExhausted installs the budget-exhaustion hook, fired once per
// objective at the drain instant its budget crosses zero — the seam
// Observers uses to trigger the flight recorder so the ring captures
// the breach neighborhood.
func (ev *Evaluator) SetOnExhausted(fn func(Objective, sim.Time)) { ev.onExhausted = fn }

// OnEvent consumes one telemetry event: admissions of judged tenants
// open per-job tracking, completions are judged against the tenant's
// per-job objectives, and everything in between accumulates for
// breach attribution.
func (ev *Evaluator) OnEvent(e telemetry.Event) {
	if !ev.started {
		ev.started = true
		ev.start = e.At
		ev.lastEval = e.At
	}
	switch e.Kind {
	case telemetry.Admit:
		if len(ev.byTenant[e.Tenant]) == 0 {
			return
		}
		var js *jobState
		if n := len(ev.free); n > 0 {
			js, ev.free = ev.free[n-1], ev.free[:n-1]
		} else {
			js = new(jobState)
		}
		js.admitAt, js.deadline, js.tenant = e.At, e.Deadline, e.Tenant
		js.events = append(js.events[:0], e)
		ev.jobs[e.Job] = js
	case telemetry.Complete:
		js := ev.jobs[e.Job]
		if js == nil {
			return
		}
		js.events = append(js.events, e)
		ev.judge(js, e)
		ev.release(e.Job, js)
	case telemetry.Fail:
		if js := ev.jobs[e.Job]; js != nil {
			ev.release(e.Job, js)
		}
	default:
		if js := ev.jobs[e.Job]; js != nil && e.Job >= 0 {
			js.events = append(js.events, e)
		}
	}
}

// release ends job's tracking and keeps its state for reuse.
func (ev *Evaluator) release(job int, js *jobState) {
	delete(ev.jobs, job)
	ev.free = append(ev.free, js)
}

// judge scores one completed job against its tenant's per-job
// objectives and records completions for throughput rates.
func (ev *Evaluator) judge(js *jobState, e telemetry.Event) {
	lat := e.At.Sub(js.admitAt)
	attributed := ""
	// stable order: this ranges the slice value looked up in the map,
	// which lists objective indexes in spec declaration order.
	for _, i := range ev.byTenant[js.tenant] {
		st := ev.objs[i]
		switch st.obj.Kind {
		case KindThroughput:
			st.completions = append(st.completions, e.At)
			continue
		case KindDeadline:
			budget := js.deadline
			if budget <= 0 {
				budget = st.obj.Threshold
			}
			if budget <= 0 {
				continue // no budget declared anywhere: not a sample
			}
			ev.addSample(st, e, lat, budget, &attributed, js)
		case KindLatency:
			ev.addSample(st, e, lat, st.obj.Threshold, &attributed, js)
		}
	}
}

// addSample records one judged per-job event and, on a breach, its
// attributed violation.
func (ev *Evaluator) addSample(st *objState, e telemetry.Event, lat, budget sim.Duration, attributed *string, js *jobState) {
	bad := lat > budget
	st.samples = append(st.samples, sample{at: e.At, bad: bad})
	st.total++
	if !bad {
		return
	}
	st.bad++
	if *attributed == "" {
		*attributed = attributePhase(js.events, e.Job)
	}
	st.byPhase[*attributed]++
	st.violations = append(st.violations, Violation{
		Objective: st.obj.Name,
		Tenant:    st.obj.TenantLabel(),
		Job:       e.Job,
		ID:        e.ID,
		At:        e.At,
		Latency:   lat,
		Budget:    budget,
		Phase:     *attributed,
	})
}

// attributePhase folds the job's own event history into its causal
// timeline and names the dominant latency phase — the PR 8 timeline
// reused as breach attribution.
func attributePhase(events []telemetry.Event, job int) string {
	ts := obs.Fold(events)
	for i := len(ts) - 1; i >= 0; i-- {
		if ts[i].Job == job {
			return ts[i].CriticalPhase()
		}
	}
	return obs.PhaseExec
}

// OnMetrics evaluates every objective at one drain instant: throughput
// segments are integrated, windows pruned, burn rates and budgets
// recomputed, alert edges detected, and exhaustion hooks fired. This
// is the only place verdict state changes, so verdicts are a pure
// function of the virtual-time event stream.
func (ev *Evaluator) OnMetrics(s telemetry.MetricsSnapshot) {
	now := s.At
	if !ev.started {
		ev.started = true
		ev.start = now
		ev.lastEval = now
	}
	for _, st := range ev.objs {
		if st.obj.Kind == KindThroughput {
			ev.integrateThroughput(st, now)
		}
		prune(st, now)
		st.burnFast = burn(st, now, st.obj.FastWindow, ev.start)
		st.burnSlow = burn(st, now, st.obj.SlowWindow, ev.start)
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
	for _, at := range st.completions {
		if at > from && at <= now {
			n++
		}
	}
	rate := 0.0
	if secs := span.Seconds(); secs > 0 {
		rate = float64(n) / secs
	}
	below := rate < st.obj.Floor
	seg := segment{from: ev.lastEval, to: now, bad: below}
	st.segs = append(st.segs, seg)
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

// prune drops samples, segments and completions that fell out of the
// slow window — the only state the windowed burn rates need.
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

// burn computes one objective's burn rate over a trailing window:
// the window's bad fraction over the tolerated bad fraction.
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

// Evals reports how many drain-instant evaluations have run.
func (ev *Evaluator) Evals() int { return ev.evals }
