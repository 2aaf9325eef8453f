package cluster

import (
	"reflect"
	"testing"

	"micstream/internal/arena"
	"micstream/internal/hstreams"
	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

// TestAllocBudgetSession pins the session rung's per-job allocation
// budget (DESIGN.md §15): a job submitted alone through Session.Submit
// and run to its outcome by RunEpoch costs at most three heap objects,
// amortized, on the service path's untraced 2×4×2 cluster under
// predicted placement. Per-job records live in chunked storage, the
// queues reuse their buffers and the boundary's admission event is
// bound once per session, so today a job costs well under one object;
// allocating each record, queue slot and admission event on its own
// again (six objects per job) fails here.
func TestAllocBudgetSession(t *testing.T) {
	const budget, warm, runs = 3, 512, 2000
	ctx, err := hstreams.Init(hstreams.Config{Devices: 2, Partitions: 4, StreamsPerPartition: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, WithPlacement(Predicted()))
	if err != nil {
		t.Fatal(err)
	}
	// The service path's ingest mix: four tenants, one kernel of
	// 2e8–6e8 flops, every fourth job pinned to an origin with 4 MiB to
	// stage when it runs elsewhere, every job arriving at its boundary.
	jobs := make([]Job, warm+runs+1)
	for i := range jobs {
		jobs[i] = syntheticJob(i, []string{"t0", "t1", "t2", "t3"}[i%4], 0, 2e8+1e8*float64(i%5))
		if i%4 == 0 {
			jobs[i].Origin = (i / 4) % 2
			jobs[i].StagingBytes = 4 << 20
		}
	}
	done := 0
	sess, err := c.NewSession(func(Outcome) { done++ })
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Job, 1)
	next := 0
	step := func() {
		batch[0] = jobs[next]
		next++
		if _, err := sess.Submit(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	for next < warm {
		step()
	}
	if got := testing.AllocsPerRun(runs, step); got > budget {
		t.Fatalf("a session job allocates %.2f objects, budget %d", got, budget)
	}
	if done != next {
		t.Fatalf("%d outcomes for %d jobs", done, next)
	}
}

// TestAllocBudgetContended pins the contended batch path's allocation
// budget (DESIGN.md §15): a Cluster.Run on four devices with affinity
// placement, stealing, one task per stream grant and a 4 MiB LRU cache
// per device, over a bursty mix whose jobs read and write shared
// datasets, costs at most a quarter of a heap object per job. Arrivals
// come through one engine feed, staged jobs reuse the cluster's stage
// records and the residency tracker's tiles sit in reused nodes;
// scheduling each arrival with a closure of its own again (one object
// per job) fails here. Each measured batch arrives after the engine's
// current instant, as a fresh cluster's does: arrivals clamped to the
// boundary would skip the feed.
func TestAllocBudgetContended(t *testing.T) {
	const budget, runs = 0.25, 3
	ctx, err := hstreams.Init(hstreams.Config{Devices: 4, Partitions: 4, StreamsPerPartition: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, WithPlacement(Affinity()), WithStealing(sim.Millisecond),
		WithSlicing(1), WithResidency(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	mix, err := BuildScenario(ctx, ScenarioConfig{Jobs: 2000, Seed: 7, Arrival: "bursty",
		WindowNs: 150_000_000, TilesPerJob: 4, KernelFlops: 2.5e7, XferBytes: 1 << 20,
		AffinityFraction: 0.7, Origins: []int{0, 1}, Datasets: 8, WriteFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Job, len(mix))
	var steals, evicted int64
	run := func() {
		// Each batch is a fresh copy of the mix, shifted past the
		// engine's clock; the copy reuses one slice.
		now := ctx.Now()
		copy(batch, mix)
		for i := range batch {
			batch[i].Arrival += now + 1
		}
		res, err := c.Run(batch)
		if err != nil {
			t.Fatal(err)
		}
		steals += int64(res.Steals)
		evicted += res.EvictedBytes
	}
	run()
	perJob := testing.AllocsPerRun(runs, run) / float64(len(mix))
	if steals == 0 || evicted == 0 {
		t.Fatalf("mechanisms idle: %d steals, %d bytes evicted", steals, evicted)
	}
	if perJob > budget {
		t.Fatalf("a contended job allocates %.3f objects, budget %.2f", perJob, budget)
	}
	t.Logf("%.3f objects per job", perJob)
}

// TestSessionRetention pins how much per-job state a long session with
// a sink keeps (DESIGN.md §15): over 10,000 one-job epochs the
// admission records and outcomes of jobs whose outcomes have streamed
// retire at each epoch boundary, so at most two chunks of each stay
// live however long the session runs, and Session.Outcome answers only
// at or above the watermark. One later-arrival job, submitted with a
// run of one-job batches stacked behind it at one boundary, pins the
// watermark until the epoch that runs them: nothing past it retires
// early.
func TestSessionRetention(t *testing.T) {
	const epochs, pinAt, stacked = 10_000, 100, 3 * arena.ChunkLen
	ctx, err := hstreams.Init(hstreams.Config{Devices: 2, Partitions: 4, StreamsPerPartition: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, WithPlacement(Predicted()))
	if err != nil {
		t.Fatal(err)
	}
	// streamed[i] is outcome i as it streamed, in completion order.
	var streamed []Outcome
	sess, err := c.NewSession(func(o Outcome) {
		for len(streamed) <= o.Index {
			streamed = append(streamed, Outcome{Index: -1})
		}
		if streamed[o.Index].Index >= 0 {
			t.Fatalf("outcome %d streamed twice", o.Index)
		}
		streamed[o.Index] = o
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Job, 1)
	submit := func(arrival sim.Time) int {
		i := sess.Submitted()
		batch[0] = syntheticJob(i, []string{"t0", "t1", "t2"}[i%3], arrival, 2e8+1e8*float64(i%5))
		base, err := sess.Submit(batch)
		if err != nil {
			t.Fatal(err)
		}
		return base
	}
	for e := 0; e < epochs; e++ {
		if e == pinAt {
			pin := submit(sess.Now() + sim.Time(sim.Millisecond))
			for range stacked {
				submit(0)
			}
			if c.watermark != pin || c.admitted.Chunks() < 3 || c.outcomes.Chunks() < 3 {
				t.Fatalf("a pinned boundary moved the watermark to %d (pin %d) and kept %d admission and %d outcome chunks",
					c.watermark, pin, c.admitted.Chunks(), c.outcomes.Chunks())
			}
		} else {
			submit(0)
		}
		if _, err := sess.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	n := sess.Submitted()
	if got := c.admitted.Chunks(); got > 2 {
		t.Fatalf("%d admission chunks live after %d jobs, want at most 2", got, n)
	}
	if got := c.outcomes.Chunks(); got > 2 {
		t.Fatalf("%d outcome chunks live after %d jobs, want at most 2", got, n)
	}
	if c.watermark != n-1 {
		t.Fatalf("watermark %d after %d jobs", c.watermark, n)
	}
	if len(streamed) != n {
		t.Fatalf("%d outcomes streamed for %d jobs", len(streamed), n)
	}
	for i, o := range streamed {
		if o.Index != i {
			t.Fatalf("outcome %d never streamed", i)
		}
		got, ok := sess.Outcome(i)
		if kept := i >= c.watermark; ok != kept || kept && !reflect.DeepEqual(got, o) {
			t.Fatalf("Outcome(%d) = (%+v, %v) at watermark %d, want the streamed %+v only at or above it",
				i, got, ok, c.watermark, o)
		}
	}
}

// TestBatchRunKeepsOnlyInFlightRecords pins the lifecycle of admission
// records (DESIGN.md §15): a contended 5,000-job batch Run — the
// TestAllocBudgetContended mix of four devices with stealing, slicing
// and an LRU cache — carves no more record chunks than its peak count
// of jobs in flight needs, because a record goes back to the spare list
// when its outcome streams and the next admission takes it. Every
// record is back by the end, and recycling changes nothing a Result
// reports: repeats, traced and untraced, are DeepEqual.
func TestBatchRunKeepsOnlyInFlightRecords(t *testing.T) {
	const jobs = 5000
	run := func(traced bool) *Result {
		ctx, err := hstreams.Init(hstreams.Config{Devices: 4, Partitions: 4, StreamsPerPartition: 2})
		if err != nil {
			t.Fatal(err)
		}
		opts := []Option{WithPlacement(Affinity()), WithStealing(sim.Millisecond),
			WithSlicing(1), WithResidency(4 << 20)}
		if traced {
			opts = append(opts, WithTelemetry(telemetry.NewRecorder()))
		}
		c, err := New(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		// TestAllocBudgetContended's mix at its arrival rate, 2,000 jobs
		// per 150 ms.
		mix, err := BuildScenario(ctx, ScenarioConfig{Jobs: jobs, Seed: 7, Arrival: "bursty",
			WindowNs: 375_000_000, TilesPerJob: 4, KernelFlops: 2.5e7, XferBytes: 1 << 20,
			AffinityFraction: 0.7, Origins: []int{0, 1}, Datasets: 8, WriteFraction: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		// Every admission and every completion ends in a dispatch loop,
		// so sampling after each one sees the peak of jobs in flight.
		peak := 0
		c.afterChange = func() { peak = max(peak, c.seq-c.nterminal) }
		res, err := c.Run(mix)
		if err != nil {
			t.Fatal(err)
		}
		if res.Steals == 0 || res.EvictedBytes == 0 {
			t.Fatalf("mechanisms idle: %d steals, %d bytes evicted", res.Steals, res.EvictedBytes)
		}
		if peak > jobs/2 {
			t.Fatalf("%d of %d jobs in flight at once: too few drain to recycle a record", peak, jobs)
		}
		chunks := (c.made + arena.ChunkLen - 1) / arena.ChunkLen
		if need := (peak + arena.ChunkLen - 1) / arena.ChunkLen; chunks > need {
			t.Fatalf("%d record chunks for a peak of %d jobs in flight, which needs %d", chunks, peak, need)
		}
		if len(c.spare) != c.made {
			t.Fatalf("%d of %d records back on the spare list after the run", len(c.spare), c.made)
		}
		t.Logf("traced=%v: %d records (%d chunks), peak %d of %d jobs in flight", traced, c.made, chunks, peak, jobs)
		return res
	}
	want := run(false)
	for i, traced := range []bool{false, true} {
		if got := run(traced); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (traced %v) differs from the first", i+1, traced)
		}
	}
}

// TestSessionCopiesRetire pins what Session.Submit's batch copies cost
// a long session with a sink (DESIGN.md §15): a copy chunk goes back to
// the spare list once the watermark passes the last job it holds, so
// after 10,000 one-job epochs at most two chunks are live. A later
// arrival pins the watermark for one epoch while three chunks' worth of
// one-job batches stack behind it; their chunks stay until it lands,
// and every job streams under its own ID, so no chunk was reused while
// a job in it was still in flight.
func TestSessionCopiesRetire(t *testing.T) {
	const epochs, pinAt, stacked = 10_000, 100, 3 * arena.ChunkLen
	ctx, err := hstreams.Init(hstreams.Config{Devices: 2, Partitions: 4, StreamsPerPartition: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, WithPlacement(Predicted()))
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	sess, err := c.NewSession(func(o Outcome) {
		if o.ID != o.Index || o.Failed {
			t.Fatalf("outcome %d streamed for job %d (failed %v)", o.Index, o.ID, o.Failed)
		}
		streamed++
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Job, 1)
	submit := func(arrival sim.Time) {
		i := sess.Submitted()
		batch[0] = syntheticJob(i, "t0", arrival, 2e8+1e8*float64(i%5))
		if _, err := sess.Submit(batch); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < epochs; e++ {
		if e == pinAt {
			submit(sess.Now() + sim.Time(sim.Millisecond))
			for range stacked {
				submit(0)
			}
			if got := len(sess.copies); got < 3 {
				t.Fatalf("a pinned boundary kept %d copy chunks, want the %d it pins", got, 3)
			}
		} else {
			submit(0)
		}
		if _, err := sess.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if n := sess.Submitted(); streamed != n {
		t.Fatalf("%d outcomes streamed for %d jobs", streamed, n)
	}
	if got := len(sess.copies); got > 2 {
		t.Fatalf("%d copy chunks live after %d jobs, want at most 2", got, sess.Submitted())
	}
}
