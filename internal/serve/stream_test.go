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
