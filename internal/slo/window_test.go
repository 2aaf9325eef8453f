package slo

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

// The running burn windows agree exactly with the rescanning reference
// on seeded streams that hold equal instants, evaluation instants that
// move backwards (a new run restarting the clock), and per-job and
// throughput objectives: every state, alert and violation is DeepEqual
// after every evaluation, burn rates included to the last bit.
func TestIncrementalWindowsMatchRescan(t *testing.T) {
	spec := Spec{Objectives: []Objective{
		{Tenant: "a", Name: "a-lat", Kind: KindLatency, Target: 0.9, Threshold: 3 * msD,
			FastWindow: 5 * msD, SlowWindow: 20 * msD, FastBurn: 2, SlowBurn: 1},
		{Tenant: "a", Name: "a-tp", Kind: KindThroughput, Target: 0.6, Floor: 400,
			FastWindow: 4 * msD, SlowWindow: 15 * msD, FastBurn: 1.5, SlowBurn: 1},
		{Tenant: "b", Name: "b-dl", Kind: KindDeadline, Target: 0.8, Threshold: 4 * msD,
			FastWindow: 10 * msD, SlowWindow: 10 * msD},
		{Tenant: "b", Name: "b-tp", Kind: KindThroughput, Target: 0.5, Floor: 200},
	}}
	const quarter = msD / 4
	for seed := uint64(1); seed <= 20; seed++ {
		inc, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref.rescan = true
		rng := rand.New(rand.NewPCG(seed, 7))
		type open struct {
			job    int
			tenant string
			admit  sim.Time
		}
		var live []open
		now := sim.Time(0)
		next, evals, incEvals, backwards := 0, 0, 0, 0
		emit := func(e telemetry.Event) {
			inc.OnEvent(e)
			ref.OnEvent(e)
		}
		for step := 0; step < 1500; step++ {
			switch {
			case step == 1200:
				// A new run: the clock restarts and job indexes with it.
				// The first evaluation on the new clock drops the old
				// run's entries from the windowed deques.
				now = sim.Time(rng.IntN(12)) * sim.Time(quarter)
				next = 0
				live = live[:0]
			case rng.IntN(2) == 0:
				// Advance by nothing (an equal instant) or by up to 2 ms,
				// on a grid that puts entries exactly on window edges.
				now = now.Add(sim.Duration(rng.IntN(9)) * quarter)
			}
			switch r := rng.IntN(10); {
			case r < 4:
				tenant := []string{"a", "b", "c"}[rng.IntN(3)]
				var deadline sim.Duration
				if rng.IntN(2) == 0 {
					deadline = sim.Duration(rng.Int64N(int64(6 * msD)))
				}
				emit(telemetry.Event{At: now, Kind: telemetry.Admit, Job: next, ID: next, Tenant: tenant,
					Device: -1, From: -1, Stream: -1, Deadline: deadline})
				live = append(live, open{next, tenant, now})
				next++
			case r < 8 && len(live) > 0:
				k := rng.IntN(len(live))
				j := live[k]
				live = append(live[:k], live[k+1:]...)
				kind := telemetry.Complete
				if rng.IntN(12) == 0 {
					kind = telemetry.Fail
				}
				emit(telemetry.Event{At: now, Kind: telemetry.Dispatch, Job: j.job, ID: j.job, Tenant: j.tenant, Device: 0, From: -1, Stream: 0})
				emit(telemetry.Event{At: now, Kind: kind, Job: j.job, ID: j.job, Tenant: j.tenant, Device: 0, From: -1, Stream: 0})
			default:
				at := now
				if rng.IntN(60) == 0 {
					at = now.Add(-sim.Duration(1+rng.IntN(16)) * quarter) // an instant that goes backwards
				}
				if at < inc.lastEval {
					backwards++
				}
				inc.OnInstant(at)
				ref.OnInstant(at)
				evals++
				for _, st := range inc.objs {
					if st.inc {
						incEvals++
					}
				}
				if !reflect.DeepEqual(inc.States(), ref.States()) {
					t.Fatalf("seed %d step %d at %v: states differ:\n%+v\n%+v", seed, step, at, inc.States(), ref.States())
				}
				if !reflect.DeepEqual(inc.Alerts(), ref.Alerts()) || !reflect.DeepEqual(inc.Violations(), ref.Violations()) {
					t.Fatalf("seed %d step %d: alerts or violations differ", seed, step)
				}
			}
		}
		if backwards == 0 {
			t.Fatalf("seed %d: no evaluation instant went backwards", seed)
		}
		if incEvals < evals*len(spec.Objectives)/2 {
			t.Fatalf("seed %d: %d of %d objective evaluations ran on the windows; the test must exercise them",
				seed, incEvals, evals*len(spec.Objectives))
		}
	}
}

// Jobs far apart in index, so that tracking them together grows the
// ring (obs.Folder), are each judged once: a second Complete finds no
// open job.
func TestTrackedJobsSurviveRingGrowth(t *testing.T) {
	ev, err := New(latencySpec("a", 1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []int{0, 16, 1 << 10, 3, 1<<10 + 16}
	for _, j := range jobs {
		ev.OnEvent(telemetry.Event{At: at(0), Kind: telemetry.Admit, Job: j, ID: j, Tenant: "a"})
	}
	for _, j := range jobs {
		ev.OnEvent(telemetry.Event{At: at(2), Kind: telemetry.Complete, Job: j, ID: j, Tenant: "a"})
		ev.OnEvent(telemetry.Event{At: at(3), Kind: telemetry.Complete, Job: j, ID: j, Tenant: "a"})
	}
	drain(ev, 4)
	if st := ev.States()[0]; st.Samples != len(jobs) || st.Bad != len(jobs) {
		t.Fatalf("judged %d samples (%d bad), want %d, each once", st.Samples, st.Bad, len(jobs))
	}
}

// An evaluation instant before the last one starts a new timeline: a
// second run whose clock restarts is judged on its own entries, the
// first run's leave the windows at once, and the windows stay valid
// instead of rescanning until the new clock passes the old entries.
// The burn rates equal those of a fresh evaluator fed only the second
// run; the cumulative totals keep both runs.
func TestClockRestartStartsNewWindows(t *testing.T) {
	spec := Spec{Objectives: []Objective{
		{Tenant: "a", Name: "a-lat", Kind: KindLatency, Target: 0.9, Threshold: msD,
			FastWindow: 5 * msD, SlowWindow: 20 * msD},
		{Tenant: "a", Name: "a-tp", Kind: KindThroughput, Target: 0.5, Floor: 500,
			FastWindow: 4 * msD, SlowWindow: 20 * msD},
	}}
	// run feeds jobs admitted every millisecond from 0 to n-1 ms, each
	// done lat ms later, evaluating after each completion.
	run := func(ev *Evaluator, n, lat int64) {
		for i := int64(0); i < n; i++ {
			job := int(i)
			ev.OnEvent(telemetry.Event{At: at(i), Kind: telemetry.Admit, Job: job, ID: job, Tenant: "a"})
			ev.OnEvent(telemetry.Event{At: at(i + lat), Kind: telemetry.Dispatch, Job: job, ID: job, Tenant: "a"})
			ev.OnEvent(telemetry.Event{At: at(i + lat), Kind: telemetry.Complete, Job: job, ID: job, Tenant: "a"})
			drain(ev, i+lat)
		}
	}
	restarted, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	run(restarted, 40, 3) // every job breaches its 1 ms threshold
	run(restarted, 8, 0)  // the clock restarts at 0; every job meets it
	run(fresh, 8, 0)
	for i, st := range restarted.States() {
		want := fresh.States()[i]
		if st.BurnFast != want.BurnFast || st.BurnSlow != want.BurnSlow {
			t.Errorf("%s: burn %v/%v after the restart, want the second run's alone, %v/%v",
				st.Objective.Name, st.BurnFast, st.BurnSlow, want.BurnFast, want.BurnSlow)
		}
		if o := restarted.objs[i]; !o.inc || len(o.samples) != len(fresh.objs[i].samples) {
			t.Errorf("%s: windows valid %v over %d samples, want valid over the second run's %d",
				st.Objective.Name, o.inc, len(o.samples), len(fresh.objs[i].samples))
		}
	}
	if st := restarted.States()[0]; st.Samples != 48 || st.Bad != 40 {
		t.Fatalf("cumulative totals %d samples, %d bad; want both runs' 48 and 40", st.Samples, st.Bad)
	}
}
