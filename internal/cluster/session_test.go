package cluster

import (
	"reflect"
	"strings"
	"testing"

	"micstream/internal/residency"
	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

// sessionWorkload is the mixed scenario the session tests run: three
// tenants, staggered arrivals, a couple of staged off-origin jobs.
func sessionWorkload(n int) []Job {
	jobs := make([]Job, 0, n)
	for i := 0; i < n; i++ {
		j := syntheticJob(i, string(rune('A'+i%3)), sim.Time(i)*sim.Time(sim.Millisecond)/4, 4e8+1e8*float64(i%5))
		if i%4 == 0 {
			j.Origin = i % 2
			j.StagingBytes = 4 << 20
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// A single-batch session must reproduce the batch Run exactly: the
// same Result aggregates, the same outcomes (streamed here, kept
// there), the same telemetry events and metrics snapshots — batch Run
// is a one-batch session, and Submit's copy of the batch must not
// change what the engine sees.
func TestSessionSingleBatchMatchesRun(t *testing.T) {
	jobs := sessionWorkload(16)

	recRun := telemetry.NewRecorder()
	cRun, err := New(newCtx(t, 2, 2, 2), WithPlacement(Predicted()), WithStealing(0), WithTelemetry(recRun))
	if err != nil {
		t.Fatal(err)
	}
	want, err := cRun.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	recSess := telemetry.NewRecorder()
	cSess, err := New(newCtx(t, 2, 2, 2), WithPlacement(Predicted()), WithStealing(0), WithTelemetry(recSess))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Outcome
	sess, err := cSess.NewSession(func(o Outcome) { streamed = append(streamed, o) })
	if err != nil {
		t.Fatal(err)
	}
	if base, err := sess.Submit(jobs); err != nil || base != 0 {
		t.Fatalf("Submit = (%d, %v), want (0, nil)", base, err)
	}
	if n, err := sess.RunEpoch(); err != nil || n != len(jobs) {
		t.Fatalf("RunEpoch = (%d, %v), want (%d, nil)", n, err, len(jobs))
	}
	got := sess.Result()
	if got.Jobs != nil {
		t.Fatalf("a session with a sink kept %d outcomes in its Result", len(got.Jobs))
	}
	agg := *want
	agg.Jobs = nil
	if !reflect.DeepEqual(&agg, got) {
		t.Fatalf("session Result diverges from batch Run:\nrun:     %+v\nsession: %+v", &agg, got)
	}
	if recRun.Len() == 0 || len(recRun.Metrics()) == 0 {
		t.Fatal("batch Run recorded no telemetry; comparison vacuous")
	}
	if !reflect.DeepEqual(recRun.Events(), recSess.Events()) {
		t.Fatalf("session events diverge from batch Run (%d vs %d events)", recRun.Len(), recSess.Len())
	}
	if !reflect.DeepEqual(recRun.Metrics(), recSess.Metrics()) {
		t.Fatalf("session metrics diverge from batch Run (%d vs %d snapshots)", len(recRun.Metrics()), len(recSess.Metrics()))
	}
	if len(streamed) != len(jobs) {
		t.Fatalf("streamed %d outcomes, want %d", len(streamed), len(jobs))
	}
	// The stream carries each terminal outcome exactly once, in virtual
	// completion order, and each matches the batch run's outcome.
	seen := make(map[int]bool)
	for i, o := range streamed {
		if seen[o.Index] {
			t.Fatalf("outcome %d streamed twice", o.Index)
		}
		seen[o.Index] = true
		if !reflect.DeepEqual(o, want.Jobs[o.Index]) {
			t.Fatalf("streamed outcome %d differs from the batch run's", o.Index)
		}
		if i > 0 && streamed[i].Done < streamed[i-1].Done {
			t.Fatalf("stream out of completion order at %d: %v after %v", i, streamed[i].Done, streamed[i-1].Done)
		}
	}
}

// Splitting the same workload across epochs keeps every job accounted:
// indices stay dense across batches, each epoch fully drains, every
// outcome streams once, and the final Result covers all epochs. A
// session with a sink keeps only the last epoch's outcomes: earlier
// ones retired at the boundaries after they streamed.
func TestSessionMultiEpochAccounting(t *testing.T) {
	jobs := sessionWorkload(18)
	c, err := New(newCtx(t, 2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Outcome
	sess, err := c.NewSession(func(o Outcome) { streamed = append(streamed, o) })
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(jobs); start += 6 {
		base, err := sess.Submit(jobs[start : start+6])
		if err != nil {
			t.Fatal(err)
		}
		if base != start {
			t.Fatalf("batch at %d got base %d", start, base)
		}
		if n, err := sess.RunEpoch(); err != nil || n != 6 {
			t.Fatalf("epoch at %d: (%d, %v), want (6, nil)", start, n, err)
		}
		if sess.Pending() != 0 {
			t.Fatalf("epoch boundary with %d pending jobs", sess.Pending())
		}
	}
	if sess.Epochs() != 3 || sess.Submitted() != 18 || sess.Terminal() != 18 {
		t.Fatalf("epochs/submitted/terminal = %d/%d/%d, want 3/18/18", sess.Epochs(), sess.Submitted(), sess.Terminal())
	}
	r := sess.Result()
	jobsRun := 0
	for _, d := range r.Devices {
		jobsRun += d.Jobs
	}
	if r.Jobs != nil || jobsRun != 18 || r.Failed != 0 || len(streamed) != 18 {
		t.Fatalf("result keeps %d outcomes and counts %d run, %d failed; streamed %d; want 0, 18, 0, 18",
			len(r.Jobs), jobsRun, r.Failed, len(streamed))
	}
	byIndex := make([]*Outcome, len(jobs))
	for k := range streamed {
		o := &streamed[k]
		if o.Index < 0 || o.Index >= len(jobs) || byIndex[o.Index] != nil {
			t.Fatalf("streamed outcome index %d out of range or repeated", o.Index)
		}
		byIndex[o.Index] = o
	}
	for i, o := range byIndex {
		if o.Failed || o.ID != jobs[i].ID {
			t.Fatalf("outcome %d: failed %v, ID %d, want job %d completed", i, o.Failed, o.ID, jobs[i].ID)
		}
		got, ok := sess.Outcome(i)
		if last := i >= 12; ok != last || last && !reflect.DeepEqual(got, *o) {
			t.Fatalf("Outcome(%d) = (%+v, %v), want the streamed outcome only in the last epoch", i, got, ok)
		}
	}
}

// The residency cache stays warm across epochs: a dataset staged in
// epoch 1 is a hit for the identical job in epoch 2 — the service
// mode's reason to exist over repeated batch Runs.
func TestSessionResidencyWarmAcrossEpochs(t *testing.T) {
	d := residency.Region{Dataset: "panel", First: 0, Tiles: 8, TileBytes: 1 << 20}
	mk := func(id int) []Job {
		return []Job{readerJob(id, 0, 0, 5e8, d)}
	}
	c, err := New(newCtx(t, 2, 2, 1),
		WithPlacement(placeByID{m: map[int]int{1: 1, 2: 1}}),
		WithResidency(0))
	if err != nil {
		t.Fatal(err)
	}
	var got []Outcome
	sess, err := c.NewSession(func(o Outcome) { got = append(got, o) })
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 2; id++ {
		if _, err := sess.Submit(mk(id)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 {
		t.Fatalf("streamed %d outcomes, want 2", len(got))
	}
	if got[0].HitBytes != 0 || got[0].MissBytes != d.Bytes() {
		t.Fatalf("epoch-1 job: hit %d miss %d, want cold (0, %d)", got[0].HitBytes, got[0].MissBytes, d.Bytes())
	}
	if got[1].HitBytes != d.Bytes() || got[1].MissBytes != 0 {
		t.Fatalf("epoch-2 job: hit %d miss %d, want warm (%d, 0)", got[1].HitBytes, got[1].MissBytes, d.Bytes())
	}
}

// Submit is rejected mid-epoch, after Close, and when a batch fails
// validation — in every case without admitting anything.
func TestSessionSubmitRejections(t *testing.T) {
	c, err := New(newCtx(t, 2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Submit([]Job{{ID: 9}}); err == nil || !strings.Contains(err.Error(), "no tasks") {
		t.Fatalf("taskless job: err %v, want validation error", err)
	}
	if sess.Submitted() != 0 {
		t.Fatalf("rejected batch still admitted %d jobs", sess.Submitted())
	}
	// Batches stack at one boundary: a second Submit before RunEpoch
	// is legal and keeps admission order (the serve layer's per-job
	// fallback depends on it).
	if _, err := sess.Submit(sessionWorkload(2)); err != nil {
		t.Fatal(err)
	}
	if base, err := sess.Submit(sessionWorkload(1)); err != nil || base != 2 {
		t.Fatalf("stacked submit = (%d, %v), want (2, nil)", base, err)
	}
	if n, err := sess.RunEpoch(); err != nil || n != 3 {
		t.Fatalf("stacked epoch = (%d, %v), want (3, nil)", n, err)
	}
	// Mid-epoch means inside RunEpoch: a Submit from an outcome
	// callback is rejected.
	var midErr error
	c2, err := New(newCtx(t, 2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	var sess2 *Session
	sess2, err = c2.NewSession(func(Outcome) {
		_, midErr = sess2.Submit(sessionWorkload(1))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Submit(sessionWorkload(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if midErr == nil || !strings.Contains(midErr.Error(), "mid-epoch") {
		t.Fatalf("callback submit: err %v, want mid-epoch rejection", midErr)
	}
	sess.Close()
	if _, err := sess.Submit(sessionWorkload(1)); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("closed submit: err %v, want closed rejection", err)
	}
	if _, err := sess.RunEpoch(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("closed epoch: err %v, want closed rejection", err)
	}
	// The cluster itself is reusable after Close.
	if _, err := c.Run(sessionWorkload(4)); err != nil {
		t.Fatalf("Run after session Close: %v", err)
	}
}

// Two batches stacked at one epoch boundary run exactly like one batch
// of their concatenation, epoch after epoch: the same Result, the same
// outcome stream and the same telemetry. Stacking joins the second
// batch's boundary arrivals to the boundary's one admission event, so
// this holds only if that event admits them after the first batch's,
// in order — with every job at the boundary and with staggered later
// arrivals alike.
func TestSessionStackedBatchesMatchConcatenation(t *testing.T) {
	for _, staggered := range []bool{false, true} {
		jobs := sessionWorkload(24)
		if !staggered {
			for i := range jobs {
				jobs[i].Arrival = 0
			}
		}
		type run struct {
			res    *Result
			stream []Outcome
			events []telemetry.Event
		}
		play := func(cut int) run {
			rec := telemetry.NewRecorder()
			c, err := New(newCtx(t, 2, 2, 2), WithPlacement(Predicted()), WithStealing(0), WithTelemetry(rec))
			if err != nil {
				t.Fatal(err)
			}
			var r run
			sess, err := c.NewSession(func(o Outcome) { r.stream = append(r.stream, o) })
			if err != nil {
				t.Fatal(err)
			}
			for _, epoch := range [][]Job{jobs[:12], jobs[12:]} {
				parts := [][]Job{epoch}
				if cut > 0 {
					parts = [][]Job{epoch[:cut], epoch[cut:]}
				}
				for _, p := range parts {
					if _, err := sess.Submit(p); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := sess.RunEpoch(); err != nil {
					t.Fatal(err)
				}
			}
			r.res, r.events = sess.Result(), rec.Events()
			return r
		}
		want := play(0)
		for _, cut := range []int{1, 5, 11} {
			got := play(cut)
			if !reflect.DeepEqual(got.res, want.res) {
				t.Fatalf("staggered=%v cut=%d: stacked batches' Result differs from the concatenation's", staggered, cut)
			}
			if !reflect.DeepEqual(got.stream, want.stream) || !reflect.DeepEqual(got.events, want.events) {
				t.Fatalf("staggered=%v cut=%d: stacked batches' outcome stream or telemetry differs", staggered, cut)
			}
		}
	}
}

// A batch mixing jobs that arrive at the boundary — at its instant or
// clamped up from before it — with jobs arriving later is admitted in
// index order within each instant: the boundary's jobs first, by one
// event, then each later arrival at its own instant. The telemetry
// Admit events carry the order and the instants.
func TestSessionMixedArrivalsAdmitInIndexOrder(t *testing.T) {
	rec := telemetry.NewRecorder()
	c, err := New(newCtx(t, 2, 2, 2), WithTelemetry(rec))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	// A first epoch moves the boundary off zero, so arrivals before it
	// clamp up to it.
	if _, err := sess.Submit(sessionWorkload(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	now := sess.Now()
	if now <= 0 {
		t.Fatal("the first epoch did not advance the clock")
	}
	ms := sim.Time(sim.Millisecond)
	arrivals := []sim.Time{now + 2*ms, 0, now, now + ms, now - 1, now + 2*ms, now, now + ms, 1}
	batch := make([]Job, len(arrivals))
	for i, at := range arrivals {
		batch[i] = syntheticJob(100+i, "T", at, 2e8)
	}
	base, err := sess.Submit(batch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	at := func(i int) sim.Time { return max(arrivals[i], now) }
	var order []int
	for _, e := range rec.Events() {
		if e.Kind != telemetry.Admit || e.Job < base {
			continue
		}
		i := e.Job - base
		if e.At != at(i) {
			t.Fatalf("job %d admitted at %v, want %v", i, e.At, at(i))
		}
		order = append(order, i)
	}
	if len(order) != len(batch) {
		t.Fatalf("%d Admit events for %d jobs", len(order), len(batch))
	}
	for k := 1; k < len(order); k++ {
		a, b := order[k-1], order[k]
		if at(a) > at(b) || (at(a) == at(b) && a > b) {
			t.Fatalf("admission order %v is not by (instant, index)", order)
		}
	}
}

// A session with a sink folds its outcomes into its Result as their
// storage retires at epoch boundaries; one without keeps them all. Run
// over the same batches, the two Results are equal at every boundary
// once Jobs is cleared — every sum, floating-point ones included,
// because both fold in index order — and the streamed outcomes are the
// kept ones. The cluster is contended: four devices, stealing, slicing,
// an LRU cache, staged jobs, several tenants and deadlines; a second
// pair runs under a placement that fails mid-run.
func TestStreamedResultMatchesKept(t *testing.T) {
	type run struct {
		results []*Result // after each epoch
		stream  []Outcome
		err     error
	}
	play := func(sink bool, place Policy) run {
		ctx := newCtx(t, 4, 2, 2)
		c, err := New(ctx, WithPlacement(place), WithStealing(0),
			WithSlicing(1), WithResidency(2<<20), sjfDevices())
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := BuildScenario(ctx, ScenarioConfig{Jobs: 600, Seed: 11, Arrival: "bursty",
			WindowNs: 40_000_000, Tenants: 5, TilesPerJob: 3, KernelFlops: 4e7, XferBytes: 1 << 20,
			SizeSpread: 16, AffinityFraction: 0.9, Origins: []int{0}, Datasets: 6, WriteFraction: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			if i%3 == 0 {
				jobs[i].Deadline = sim.Millisecond
			}
		}
		var r run
		var onOutcome func(Outcome)
		if sink {
			onOutcome = func(o Outcome) { r.stream = append(r.stream, o) }
		}
		sess, err := c.NewSession(onOutcome)
		if err != nil {
			t.Fatal(err)
		}
		for start, n := 0, 1; start < len(jobs); start, n = start+n, n%97+13 {
			if _, err := sess.Submit(jobs[start:min(start+n, len(jobs))]); err != nil {
				break
			}
			_, r.err = sess.RunEpoch()
			r.results = append(r.results, sess.Result())
		}
		return r
	}
	for _, tc := range []struct {
		name  string
		place func() Policy
		fails bool
	}{
		{"affinity", Affinity, false},
		{"fails mid-run", func() Policy { return &vandalPlacement{good: 250} }, true},
	} {
		kept, streamed := play(false, tc.place()), play(true, tc.place())
		if (kept.err != nil) != tc.fails || (streamed.err != nil) != tc.fails {
			t.Fatalf("%s: errors %v and %v, want failure %v", tc.name, kept.err, streamed.err, tc.fails)
		}
		if len(kept.results) != len(streamed.results) || len(kept.results) < 3 {
			t.Fatalf("%s: %d and %d epochs", tc.name, len(kept.results), len(streamed.results))
		}
		for e, want := range kept.results {
			got := streamed.results[e]
			if got.Jobs != nil {
				t.Fatalf("%s epoch %d: the sink session's Result keeps %d outcomes", tc.name, e, len(got.Jobs))
			}
			agg := *want
			agg.Jobs = nil
			if !reflect.DeepEqual(&agg, got) {
				t.Fatalf("%s epoch %d: streamed Result differs from kept:\nkept:     %+v\nstreamed: %+v", tc.name, e, &agg, got)
			}
		}
		final := kept.results[len(kept.results)-1]
		if len(streamed.stream) != len(final.Jobs) {
			t.Fatalf("%s: streamed %d outcomes, kept %d", tc.name, len(streamed.stream), len(final.Jobs))
		}
		for _, o := range streamed.stream {
			if !reflect.DeepEqual(o, final.Jobs[o.Index]) {
				t.Fatalf("%s: streamed outcome %d differs from the kept one", tc.name, o.Index)
			}
		}
		if tc.fails {
			if final.Failed == 0 || final.Failed == len(final.Jobs) {
				t.Fatalf("%s: %d of %d jobs failed, want a mid-run split", tc.name, final.Failed, len(final.Jobs))
			}
			continue
		}
		if final.Steals == 0 || final.StagedJobs == 0 || final.EvictedBytes == 0 ||
			final.DeadlineMisses == 0 || len(final.Tenants) < 3 {
			t.Fatalf("%s: mechanisms idle: %d steals, %d staged, %d B evicted, %d misses, %d tenants", tc.name,
				final.Steals, final.StagedJobs, final.EvictedBytes, final.DeadlineMisses, len(final.Tenants))
		}
	}
}
