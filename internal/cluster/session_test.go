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
// same Result, the same telemetry events and metrics snapshots —
// batch Run is a one-batch session, and Submit's copy of the batch
// must not change what the engine sees.
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
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("session Result diverges from batch Run:\nrun:     %+v\nsession: %+v", want, got)
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
	// completion order, and each matches its Result slot.
	seen := make(map[int]bool)
	for i, o := range streamed {
		if seen[o.Index] {
			t.Fatalf("outcome %d streamed twice", o.Index)
		}
		seen[o.Index] = true
		if !reflect.DeepEqual(o, got.Jobs[o.Index]) {
			t.Fatalf("streamed outcome %d differs from Result slot", o.Index)
		}
		if i > 0 && streamed[i].Done < streamed[i-1].Done {
			t.Fatalf("stream out of completion order at %d: %v after %v", i, streamed[i].Done, streamed[i-1].Done)
		}
	}
}

// Splitting the same workload across epochs keeps every job accounted:
// indices stay dense across batches, each epoch fully drains, and the
// final Result covers all epochs.
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
	if len(r.Jobs) != 18 || len(streamed) != 18 {
		t.Fatalf("result %d jobs, streamed %d, want 18/18", len(r.Jobs), len(streamed))
	}
	for i, o := range r.Jobs {
		if o.Failed {
			t.Fatalf("job %d failed", i)
		}
		if o.Index != i || o.ID != jobs[i].ID {
			t.Fatalf("outcome %d misindexed: Index %d ID %d", i, o.Index, o.ID)
		}
		if got, ok := sess.Outcome(i); !ok || !reflect.DeepEqual(got, o) {
			t.Fatalf("Outcome(%d) = (%+v, %v), want Result slot", i, got, ok)
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
