package serve

import (
	"runtime"
	"testing"
	"time"

	"micstream/internal/cluster"
	"micstream/internal/hstreams"
)

// TestAllocBudgetServe pins the serve rung's per-job allocation budget
// (DESIGN.md §15): a job submitted through Server.Submit, admitted and
// run, and read back through a subscription costs at most four heap
// objects, amortized, on the service path's untraced 2×4×2 cluster
// under predicted placement. Two submitters keep the frontier busy, so
// epochs admit one job or several depending on how the goroutines
// interleave; the budget holds either way. testing.AllocsPerRun
// measures at one P, so the same steps are measured again at the
// ambient GOMAXPROCS, which CI sets to 1 and to 2.
func TestAllocBudgetServe(t *testing.T) {
	const budget, warm, runs = 4, 512, 2000
	ctx, err := hstreams.Init(hstreams.Config{Devices: 2, Partitions: 4, StreamsPerPartition: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(ctx, cluster.WithPlacement(cluster.Predicted()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c)
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
		t.Fatalf("a served job allocates %.2f objects at one P and %.3f at GOMAXPROCS %d, budget %d",
			got, ambient, runtime.GOMAXPROCS(0), budget)
	}
	if st := s.Stats(); st.Completed != next {
		t.Fatalf("%d outcomes for %d jobs", st.Completed, next)
	}
}
