package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"micstream/internal/cluster"
	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/obs"
	"micstream/internal/schedtest"
	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

// newCluster builds a fresh timing-only cluster; every call with the
// same options is configured identically, which is what the replay
// determinism tests rely on.
func newCluster(t *testing.T, opts ...cluster.Option) *cluster.Cluster {
	t.Helper()
	ctx, err := hstreams.Init(hstreams.Config{
		Devices:             2,
		Partitions:          2,
		StreamsPerPartition: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ingestJob is a one-kernel job whose content is a pure function of
// id, so every submitter goroutine produces the same job set no
// matter how the race lands.
func ingestJob(id int) cluster.Job {
	j := cluster.Job{
		ID:     id,
		Tenant: string(rune('A' + id%3)),
		Tasks: []*core.Task{{
			ID:         0,
			Cost:       device.KernelCost{Name: "ingest", Flops: 3e8 + 1e8*float64(id%4)},
			StreamHint: -1,
		}},
		Origin: -1,
	}
	if id%5 == 0 {
		j.Origin = id % 2
		j.StagingBytes = 2 << 20
	}
	return j
}

// drainAll reads a subscription to exhaustion.
func drainAll(sub *Subscription) []cluster.Outcome {
	var out []cluster.Outcome
	for {
		o, ok := sub.Next()
		if !ok {
			return out
		}
		out = append(out, o)
	}
}

// The acceptance bar: 8 submitter goroutines race through the
// frontier, and the recorded admission sequence replayed
// single-threaded reproduces the full outcome stream bit for bit —
// the service-mode analogue of the observers-never-perturb test.
func TestConcurrentIngestReplaysBitIdentically(t *testing.T) {
	const goroutines, perG = 8, 25
	opts := []cluster.Option{cluster.WithPlacement(cluster.Predicted()), cluster.WithStealing(0)}
	s, err := New(newCluster(t, opts...))
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := s.Submit(ingestJob(g*perG + i)); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	live := drainAll(sub)
	if len(live) != goroutines*perG {
		t.Fatalf("live stream carried %d outcomes, want %d", len(live), goroutines*perG)
	}

	batches := s.Batches()
	if len(batches) == 0 {
		t.Fatal("no batches recorded")
	}
	var replayed []cluster.Outcome
	if _, err := Replay(newCluster(t, opts...), batches, func(o cluster.Outcome) {
		replayed = append(replayed, o)
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		for i := range live {
			if i >= len(replayed) || !reflect.DeepEqual(live[i], replayed[i]) {
				t.Fatalf("outcome stream diverges at %d:\nlive:   %+v\nreplay: %+v", i, live[i], safeAt(replayed, i))
			}
		}
		t.Fatalf("replay stream longer than live: %d vs %d", len(replayed), len(live))
	}
}

func safeAt(s []cluster.Outcome, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "<missing>"
}

// Racing drains lose nothing: every Submit either lands (index +
// exactly one terminal outcome) or reports ErrStopped, and the two
// sets partition the submitters.
func TestDrainLosesNoJob(t *testing.T) {
	s, err := New(newCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe()
	const submitters = 16
	var wg sync.WaitGroup
	landed := make(chan int, submitters)
	stopped := make(chan int, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			idx, err := s.Submit(ingestJob(g))
			switch err {
			case nil:
				landed <- idx
			case ErrStopped:
				stopped <- g
			default:
				t.Errorf("submitter %d: %v", g, err)
			}
		}(g)
	}
	// Race the drain against the submitters.
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(landed)
	close(stopped)
	nLanded := len(landed)
	if nLanded+len(stopped) != submitters {
		t.Fatalf("landed %d + stopped %d != %d submitters", nLanded, len(stopped), submitters)
	}
	outs := drainAll(sub)
	spans := make([]schedtest.Span, len(outs))
	for i, o := range outs {
		spans[i] = schedtest.Span{
			ID: o.ID, Index: o.Index, Stream: o.Stream,
			Marks: []sim.Time{o.Arrival, o.Placed, o.Start, o.Done},
		}
	}
	schedtest.UniqueCompletion(t, "drain", spans, nLanded,
		[]string{"arrival", "placed", "start", "done"})
	st := s.Stats()
	if st.Submitted != nLanded || st.Completed != nLanded {
		t.Fatalf("stats %d/%d, want %d admitted and completed", st.Submitted, st.Completed, nLanded)
	}
	if _, err := s.Submit(ingestJob(99)); err != ErrStopped {
		t.Fatalf("post-drain submit err = %v, want ErrStopped", err)
	}
	if _, err := s.Result(); err != nil {
		t.Fatalf("Result after drain: %v", err)
	}
}

// A malformed job is rejected back to its own submitter; batchmates
// land normally.
func TestBadJobRejectedWithoutCollateral(t *testing.T) {
	s, err := New(newCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe()
	var wg sync.WaitGroup
	var badErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, badErr = s.Submit(cluster.Job{ID: 7}) // no tasks
	}()
	go func() {
		defer wg.Done()
		if _, err := s.Submit(ingestJob(1)); err != nil {
			t.Errorf("good job rejected: %v", err)
		}
	}()
	wg.Wait()
	if badErr == nil || !strings.Contains(badErr.Error(), "no tasks") {
		t.Fatalf("bad job err = %v, want validation error", badErr)
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	outs := drainAll(sub)
	if len(outs) != 1 || outs[0].ID != 1 || outs[0].Failed {
		t.Fatalf("outcomes = %+v, want one completed job 1", outs)
	}
}

// Result before drain is refused; Drain is idempotent; a second
// subscription opened after close reports exhaustion immediately.
func TestLifecycleEdges(t *testing.T) {
	s, err := New(newCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(); err == nil {
		t.Fatal("Result before drain succeeded")
	}
	if _, err := s.Submit(ingestJob(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	late := s.Subscribe()
	if _, ok := late.Next(); ok {
		t.Fatal("post-drain subscription delivered an outcome")
	}
	// The server's outcomes all left through its sink: the Result keeps
	// none, and its aggregates count the one job.
	r, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, d := range r.Devices {
		ran += d.Jobs
	}
	if r.Jobs != nil || ran != 1 || r.Failed != 0 {
		t.Fatalf("Result keeps %d outcomes and counts %d run, %d failed; want 0, 1, 0", len(r.Jobs), ran, r.Failed)
	}
}

// badPlacement picks a device index no cluster has, so the first epoch
// fails with a scheduling error.
type badPlacement struct{}

func (badPlacement) Name() string                                    { return "bad" }
func (badPlacement) Place(*cluster.Queued, []cluster.DeviceView) int { return 99 }

// After a scheduling error the session admits nothing more: the failed
// epoch's job streams as Failed, the next Submit returns the session's
// error without an index, and Drain reports the error. The loop runs
// epochs in order, so the second Submit reaches the session only after
// the first epoch has failed.
func TestSubmitAfterSessionFailure(t *testing.T) {
	s, err := New(newCluster(t, cluster.WithPlacement(badPlacement{})))
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe()
	if idx, err := s.Submit(ingestJob(1)); err != nil || idx != 0 {
		t.Fatalf("first submit = (%d, %v), want (0, nil)", idx, err)
	}
	if o, ok := sub.Next(); !ok || o.ID != 1 || !o.Failed {
		t.Fatalf("first outcome = %+v (ok %v), want job 1 failed", o, ok)
	}
	idx, err := s.Submit(ingestJob(2))
	if err == nil || !strings.Contains(err.Error(), "out of range") || idx != 0 {
		t.Fatalf("submit after failure = (%d, %v), want the session's out-of-range error", idx, err)
	}
	if err := s.Drain(10 * time.Second); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Drain = %v, want the session's out-of-range error", err)
	}
	if outs := drainAll(sub); len(outs) != 0 {
		t.Fatalf("outcomes after the failed epoch = %+v, want none", outs)
	}
}

// The live observability surface: /metrics serves OpenMetrics
// exposition from the drain-instant snapshots, /flight the anomaly
// dumps, /stats the ingest counters — all readable while the run loop
// is hot.
func TestHandlerServesLiveMetricsAndFlight(t *testing.T) {
	rec := telemetry.NewRecorder()
	c := newCluster(t, cluster.WithTelemetry(rec))
	x := obs.NewExporter()
	f := obs.NewFlightRecorder(64)
	s, err := New(c, WithExporter(x), WithFlight(f))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	stopProbe := make(chan struct{})
	probeDone := make(chan struct{})
	go func() {
		// Hammer the endpoints while jobs flow, so the race detector
		// sees HTTP reads interleaved with run-loop writes.
		defer close(probeDone)
		for {
			select {
			case <-stopProbe:
				return
			default:
			}
			for _, p := range []string{"/metrics", "/flight", "/stats"} {
				resp, err := http.Get(srv.URL + p)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if _, err := s.Submit(ingestJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stopProbe)
	<-probeDone
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	get := func(p string) string {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if m := get("/metrics"); !strings.Contains(m, "micstream_jobs_done") {
		t.Fatalf("/metrics missing exposition:\n%s", m)
	}
	if st := get("/stats"); !strings.Contains(st, "submitted 40") || !strings.Contains(st, "completed 40") {
		t.Fatalf("/stats wrong:\n%s", st)
	}
	get("/flight") // must serve without error even with no dumps
}

// Option validation: bad caps and observability without telemetry are
// rejected at construction.
func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil cluster accepted")
	}
	if _, err := New(newCluster(t), WithQueueCap(0)); err == nil {
		t.Fatal("zero queue cap accepted")
	}
	if _, err := New(newCluster(t), WithBatchCap(-1)); err == nil {
		t.Fatal("negative batch cap accepted")
	}
	if _, err := New(newCluster(t), WithExporter(obs.NewExporter())); err == nil {
		t.Fatal("exporter without telemetry accepted")
	}
}
