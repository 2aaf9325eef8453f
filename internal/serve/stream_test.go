package serve

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"micstream/internal/cluster"
	"micstream/internal/hstreams"
	"micstream/internal/obs"
	"micstream/internal/sim"
	"micstream/internal/slo"
	"micstream/internal/telemetry"
)

// A served recorder only streams. The observer stack of a live,
// concurrently fed server renders the same /metrics, /slo and /flight
// bodies as the same stack over a recorder that keeps its log while
// the recorded batches replay, the flight dumps are contiguous windows
// of that log, and the served log keeps exactly what it held before
// the server opened, however many jobs it serves.
func TestObserversOnStreamingServerMatchLoggedReplay(t *testing.T) {
	// The impossible objective exhausts its budget early, so the flight
	// recorder dumps and its Seq column is compared too.
	spec := testSpec(t)
	spec.Objectives = append(spec.Objectives, slo.Objective{
		Tenant: "C", Name: "impossible", Kind: slo.KindLatency, Target: 0.99, Threshold: sim.Nanosecond,
	})
	meta := slo.Meta{Run: "stream", Seed: 1, Policy: "predicted"}
	newStack := func(t *testing.T) *slo.Observers {
		ev, err := slo.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		return &slo.Observers{
			Exporter: obs.NewExporter(),
			Flight:   obs.NewFlightRecorder(obs.DefaultFlightCap),
			SLO:      ev,
		}
	}
	// One event and one snapshot recorded before the server opens:
	// the served recorder must keep them, and Seq counts on from them.
	prime := func(rec *telemetry.Recorder) {
		rec.Emit(telemetry.Event{Kind: telemetry.Drain, Job: -1, Device: 0, From: -1, Stream: -1})
		rec.AddMetrics(telemetry.MetricsSnapshot{})
	}

	for _, n := range []int{60, 240} {
		t.Run(fmt.Sprintf("jobs=%d", n), func(t *testing.T) {
			rec := telemetry.NewRecorder()
			prime(rec)
			served := newStack(t)
			s, err := New(newCluster(t, cluster.WithTelemetry(rec), cluster.WithPlacement(cluster.Predicted())),
				WithExporter(served.Exporter), WithFlight(served.Flight), WithSLO(served.SLO), WithSLOMeta(meta))
			if err != nil {
				t.Fatal(err)
			}
			web := httptest.NewServer(s.Handler())
			defer web.Close()
			const submitters = 4
			var wg sync.WaitGroup
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for id := g; id < n; id += submitters {
						if _, err := s.Submit(ingestJob(id)); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if err := s.Drain(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if t.Failed() {
				return
			}
			if rec.Len() != 1 || len(rec.Metrics()) != 1 {
				t.Fatalf("served recorder grew: %d events, %d snapshots after %d jobs; want the 1 and 1 recorded before serving",
					rec.Len(), len(rec.Metrics()), n)
			}
			live := map[string]string{}
			for _, p := range []string{"/metrics", "/slo", "/flight"} {
				code, _, body := get(t, web, "GET", p)
				if code != 200 {
					t.Fatalf("GET %s = %d", p, code)
				}
				live[p] = body
			}

			logged := telemetry.NewRecorder()
			prime(logged)
			replay := newStack(t)
			c := newCluster(t, cluster.WithTelemetry(logged), cluster.WithPlacement(cluster.Predicted()))
			replay.Attach(c.Telemetry())
			if _, err := Replay(c, s.Batches(), nil); err != nil {
				t.Fatal(err)
			}
			var m, sl, fl strings.Builder
			if err := replay.Exporter.Render(&m); err != nil {
				t.Fatal(err)
			}
			if err := replay.WriteSLO(&sl, meta); err != nil {
				t.Fatal(err)
			}
			if err := replay.WriteFlight(&fl); err != nil {
				t.Fatal(err)
			}
			for p, want := range map[string]string{"/metrics": m.String(), "/slo": sl.String(), "/flight": fl.String()} {
				if live[p] != want {
					t.Fatalf("%s differs between the streaming server and the logged replay:\n%s\n---\n%s", p, live[p], want)
				}
			}

			dumps := served.Flight.Dumps()
			if len(dumps) == 0 {
				t.Fatal("flight recorder never dumped; the Seq check needs a dump")
			}
			log := logged.Events()
			for i, d := range dumps {
				if len(d.Events) == 0 {
					continue
				}
				first := d.Events[0].Seq
				for k, e := range d.Events {
					if e.Seq != first+k {
						t.Fatalf("dump %d: event %d has Seq %d, want %d", i, k, e.Seq, first+k)
					}
				}
				if end := first + len(d.Events); end > len(log) || !reflect.DeepEqual(d.Events, log[first:end]) {
					t.Fatalf("dump %d is not the logged window [%d, %d) of %d events", i, first, end, len(log))
				}
			}
		})
	}
}

// Interleaving Next, Drain and Cancel with pushes delivers every
// outcome pushed before the cancel exactly once, in push order, and
// none after it: the subscription reuses one buffer, so a reader that
// falls behind, catches up and restarts must never see a stale or
// repeated slot.
func TestSubscriptionInterleavingDeliversEachOutcomeOnce(t *testing.T) {
	sub := &Subscription{notify: make(chan struct{}, 1)}
	var got []int
	next := func() {
		o, ok := sub.Next()
		if !ok {
			t.Fatal("Next reported exhaustion with outcomes buffered")
		}
		got = append(got, o.Index)
	}
	pushed := 0
	push := func(n int) {
		for k := 0; k < n; k++ {
			sub.push(cluster.Outcome{Index: pushed})
			pushed++
		}
	}
	for round := 0; round < 300; round++ {
		push(round % 7)
		switch round % 4 {
		case 0, 1:
			for k := 0; k < round%5 && sub.buf.Len() > 0; k++ {
				next()
			}
		case 2:
			for _, o := range sub.Drain() {
				got = append(got, o.Index)
			}
		}
	}
	push(3)
	cancelled := pushed
	sub.Cancel()
	push(5) // dropped: the subscription is detached
	next()
	for _, o := range sub.Drain() {
		got = append(got, o.Index)
	}
	if o, ok := sub.Next(); ok {
		t.Fatalf("Next after the buffer emptied returned %+v", o)
	}
	if len(got) != cancelled {
		t.Fatalf("received %d outcomes, want the %d pushed before Cancel", len(got), cancelled)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("outcome %d carries index %d: lost, repeated or reordered", i, idx)
		}
	}
}

// A reader racing the run loop sees every outcome exactly once, in
// order, whether it reads with Next or Drain.
func TestSubscriptionConcurrentReaderSeesEachOutcomeOnce(t *testing.T) {
	const n = 5000
	sub := &Subscription{notify: make(chan struct{}, 1)}
	go func() {
		for i := 0; i < n; i++ {
			sub.push(cluster.Outcome{Index: i})
		}
		sub.close()
	}()
	want := 0
	for k := 0; ; k++ {
		if k%3 == 0 {
			for _, o := range sub.Drain() {
				if o.Index != want {
					t.Fatalf("Drain gave index %d, want %d", o.Index, want)
				}
				want++
			}
			continue
		}
		o, ok := sub.Next()
		if !ok {
			break
		}
		if o.Index != want {
			t.Fatalf("Next gave index %d, want %d", o.Index, want)
		}
		want++
	}
	if want != n {
		t.Fatalf("received %d outcomes, want %d", want, n)
	}
}

// A served cluster with observers keeps no resource spans once the
// server owns it, like its telemetry log; without observers it keeps
// both, as a batch run does.
func TestServedClusterStopsKeepingSpans(t *testing.T) {
	for _, observed := range []bool{false, true} {
		ctx, err := hstreams.Init(hstreams.Config{Devices: 2, Partitions: 2, StreamsPerPartition: 2, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		c, err := cluster.New(ctx, cluster.WithTelemetry(telemetry.NewRecorder()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run([]cluster.Job{ingestJob(0)}); err != nil {
			t.Fatal(err)
		}
		before := ctx.Recorder().Len()
		var opts []Option
		if observed {
			opts = append(opts, WithExporter(obs.NewExporter()))
		}
		s, err := New(c, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 20; i++ {
			if _, err := s.Submit(ingestJob(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		after := ctx.Recorder().Len()
		if observed && after != before {
			t.Fatalf("observed server: span log grew from %d to %d", before, after)
		}
		if !observed && after <= before {
			t.Fatalf("unobserved server: span log stayed at %d spans", after)
		}
	}
}

// failingPlacement places least-loaded until its n-th decision after
// the epoch's boundary instant — at a drain instant, with jobs still in
// flight — which picks a device that does not exist and fails the run.
type failingPlacement struct {
	n        int
	boundary sim.Time
}

func (p *failingPlacement) Name() string { return "failing" }

func (p *failingPlacement) Place(q *cluster.Queued, eligible []cluster.DeviceView) int {
	if eligible[0].Now > p.boundary {
		if p.n--; p.n == 0 {
			return len(eligible)
		}
	}
	return cluster.LeastLoaded().Place(q, eligible)
}

// A served stack — a stream-only recorder whose drain instants reach
// the evaluator bare, one snapshot per epoch, and one lock per epoch —
// exposes after every epoch exactly what an eager stack over a logging
// recorder exposes on the same batches: /metrics, /slo, /flight and
// the Health snapshot. With a flight p95 trigger armed the served stack
// takes every snapshot instead, and a run that fails mid-epoch keeps
// the snapshot of its last drain instant, as the eager stack does,
// though its jobs in flight complete after it.
func TestServedStackMatchesEagerStackEveryEpoch(t *testing.T) {
	spec := testSpec(t)
	spec.Objectives = append(spec.Objectives,
		slo.Objective{Tenant: "C", Name: "c-tight", Kind: slo.KindLatency, Target: 0.9, Threshold: 1200 * sim.Microsecond,
			FastWindow: 5 * sim.Millisecond, SlowWindow: 20 * sim.Millisecond, FastBurn: 2, SlowBurn: 1},
		slo.Objective{Tenant: "B", Name: "b-tp", Kind: slo.KindThroughput, Target: 0.5, Floor: 900,
			FastWindow: 2 * sim.Millisecond, SlowWindow: 8 * sim.Millisecond})
	meta := slo.Meta{Run: "epochs", Seed: 2, Policy: "predicted"}
	cases := []struct {
		name  string
		p95   sim.Duration
		fails bool
	}{
		{"deferred", 0, false},
		{"p95-armed", 4 * sim.Millisecond, false},
		{"run-fails", 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type side struct {
				stack *slo.Observers
				sess  *cluster.Session
				fail  *failingPlacement
			}
			open := func(served bool) side {
				ev, err := slo.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				st := &slo.Observers{Exporter: obs.NewExporter(), Flight: obs.NewFlightRecorder(32), SLO: ev}
				st.Flight.SetP95Threshold(tc.p95)
				rec := telemetry.NewRecorder()
				place, fail := cluster.Predicted(), (*failingPlacement)(nil)
				if tc.fails {
					fail = &failingPlacement{n: 5}
					place = fail
				}
				c := newCluster(t, cluster.WithTelemetry(rec), cluster.WithPlacement(place))
				if served {
					st.AttachServed(rec)
					if rec.Deferred() != (tc.p95 == 0) {
						t.Fatalf("served recorder deferred %v with p95 trigger %v", rec.Deferred(), tc.p95)
					}
				} else {
					st.Attach(rec)
				}
				sess, err := c.NewSession(nil)
				if err != nil {
					t.Fatal(err)
				}
				return side{st, sess, fail}
			}
			served, eager := open(true), open(false)
			expose := func(s side) (string, string, string) {
				var m, sl, fl strings.Builder
				if err := s.stack.Exporter.Render(&m); err != nil {
					t.Fatal(err)
				}
				if err := s.stack.WriteSLO(&sl, meta); err != nil {
					t.Fatal(err)
				}
				if err := s.stack.WriteFlight(&fl); err != nil {
					t.Fatal(err)
				}
				return m.String(), sl.String(), fl.String()
			}
			id, failed := 0, false
			for epoch := 0; epoch < 40 && !failed; epoch++ {
				// Up to 23 jobs: more than the 8 streams and 8 queue
				// slots take, so placements also happen at drain instants.
				batch := make([]cluster.Job, 1+(epoch*7)%23)
				for i := range batch {
					batch[i] = ingestJob(id)
					id++
				}
				for _, s := range []side{served, eager} {
					if _, err := s.sess.Submit(batch); err != nil {
						t.Fatalf("epoch %d: %v", epoch, err)
					}
					if s.fail != nil {
						s.fail.boundary = s.sess.Now()
					}
				}
				served.stack.Lock()
				_, errServed := served.sess.RunEpoch()
				served.stack.Unlock()
				_, errEager := eager.sess.RunEpoch()
				if (errServed == nil) != (errEager == nil) {
					t.Fatalf("epoch %d: served error %v, eager error %v", epoch, errServed, errEager)
				}
				failed = errServed != nil
				sm, ss, sf := expose(served)
				em, es, ef := expose(eager)
				for _, d := range []struct{ path, got, want string }{
					{"/metrics", sm, em}, {"/slo", ss, es}, {"/flight", sf, ef},
				} {
					if d.got != d.want {
						t.Fatalf("epoch %d: %s differs between the served and the eager stack:\n%s\n---\n%s", epoch, d.path, d.got, d.want)
					}
				}
				sx, sa, slast := served.stack.Health()
				ex, ea, elast := eager.stack.Health()
				if !reflect.DeepEqual(sx, ex) || !reflect.DeepEqual(sa, ea) || !reflect.DeepEqual(slast, elast) {
					t.Fatalf("epoch %d: Health differs:\nserved %v %v %+v\neager  %v %v %+v", epoch, sx, sa, slast, ex, ea, elast)
				}
			}
			if failed != tc.fails {
				t.Fatalf("run failed: %v, want %v", failed, tc.fails)
			}
			if len(served.stack.Flight.Dumps()) == 0 || len(served.stack.SLO.Alerts()) == 0 {
				t.Fatalf("%d flight dumps, %d alerts: the comparison needs both", len(served.stack.Flight.Dumps()), len(served.stack.SLO.Alerts()))
			}
		})
	}
}
