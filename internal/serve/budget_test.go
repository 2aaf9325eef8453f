package serve

import (
	"runtime"
	"testing"
	"time"

	"micstream/internal/cluster"
	"micstream/internal/hstreams"
	"micstream/internal/obs"
	"micstream/internal/sim"
	"micstream/internal/slo"
	"micstream/internal/telemetry"
)

// TestAllocBudgetServe pins the serve rung's per-job allocation budget
// (DESIGN.md §15): a job submitted through Server.Submit, admitted and
// run, and read back through a subscription costs at most four heap
// objects, amortized, on the service path's untraced 2×4×2 cluster
// under predicted placement.
func TestAllocBudgetServe(t *testing.T) {
	servedAllocBudget(t, 4, nil)
}

// TestAllocBudgetServeObserved pins the observed serve path's budget:
// with the exporter, a flight recorder and an SLO evaluator attached,
// the same served job costs at most half a heap object, amortized.
// Place events cut their scores from shared blocks, the evaluator
// tracks jobs in a reused ring, and the stack keeps one snapshot per
// epoch in storage it reuses (DESIGN.md §12, §15).
func TestAllocBudgetServeObserved(t *testing.T) {
	spec := slo.Spec{Objectives: []slo.Objective{
		{Tenant: "A", Name: "a-lat", Kind: slo.KindLatency, Target: 0.9, Threshold: 10 * sim.Millisecond},
		{Tenant: "B", Name: "b-deadline", Kind: slo.KindDeadline, Target: 0.9, Threshold: 10 * sim.Millisecond},
	}}
	ev, err := slo.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	servedAllocBudget(t, 0.5, telemetry.NewRecorder(),
		WithExporter(obs.NewExporter()), WithFlight(obs.NewFlightRecorder(256)), WithSLO(ev))
}

// servedAllocBudget measures the heap objects per served job and fails
// above budget. Two submitters keep the frontier busy, so epochs admit
// one job or several depending on how the goroutines interleave; the
// budget holds either way. testing.AllocsPerRun measures at one P, so
// the same steps are measured again at the ambient GOMAXPROCS, which CI
// sets to 1 and to 2.
func servedAllocBudget(t *testing.T, budget float64, rec *telemetry.Recorder, opts ...Option) {
	const warm, runs = 512, 2000
	ctx, err := hstreams.Init(hstreams.Config{Devices: 2, Partitions: 4, StreamsPerPartition: 2})
	if err != nil {
		t.Fatal(err)
	}
	copts := []cluster.Option{cluster.WithPlacement(cluster.Predicted())}
	if rec != nil {
		copts = append(copts, cluster.WithTelemetry(rec))
	}
	c, err := cluster.New(ctx, copts...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe()
	n := 2 * (warm + 2*runs + 1)
	jobs := make([]cluster.Job, n)
	for i := range jobs {
		jobs[i] = ingestJob(i)
	}
	// The helper submits the odd jobs as the test goroutine submits
	// the even ones, each pair in lockstep, and the test reads both
	// outcomes back: per run, two jobs.
	pairs := make(chan int)
	helped := make(chan error)
	go func() {
		for i := range pairs {
			_, err := s.Submit(jobs[i])
			helped <- err
		}
	}()
	next := 0
	step := func() {
		pairs <- next + 1
		if _, err := s.Submit(jobs[next]); err != nil {
			t.Fatal(err)
		}
		if err := <-helped; err != nil {
			t.Fatal(err)
		}
		next += 2
		for k := 0; k < 2; k++ {
			if _, ok := sub.Next(); !ok {
				t.Fatal("subscription ended early")
			}
		}
	}
	for next < 2*warm {
		step()
	}
	got := testing.AllocsPerRun(runs, step) / 2
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < runs; k++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	ambient := float64(m1.Mallocs-m0.Mallocs) / (2 * runs)
	close(pairs)
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	t.Logf("%.2f objects per job at one P, %.3f at GOMAXPROCS %d", got, ambient, runtime.GOMAXPROCS(0))
	if got > budget || ambient > budget {
		t.Fatalf("a served job allocates %.2f objects at one P and %.3f at GOMAXPROCS %d, budget %g",
			got, ambient, runtime.GOMAXPROCS(0), budget)
	}
	if st := s.Stats(); st.Completed != next {
		t.Fatalf("%d outcomes for %d jobs", st.Completed, next)
	}
}
