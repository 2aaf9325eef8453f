package cluster

import (
	"testing"

	"micstream/internal/hstreams"
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
