package cluster

import (
	"strings"
	"testing"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/hstreams"
	"micstream/internal/residency"
	"micstream/internal/sched"
	"micstream/internal/sim"
)

// placeByID pins each job to the device its ID maps to, deferring
// while the target is saturated — the steering harness the residency
// tests use to put tiles exactly where a scenario needs them.
type placeByID struct{ m map[int]int }

func (p placeByID) Name() string { return "by-id" }

func (p placeByID) Place(q *Queued, eligible []DeviceView) int {
	want := p.m[q.Job.ID]
	for i, v := range eligible {
		if v.Device == want {
			return i
		}
	}
	return -1
}

// readerJob is a one-kernel job whose input is the given region of a
// device-resident dataset.
func readerJob(id int, arrival sim.Time, origin int, flops float64, reads ...residency.Region) Job {
	j := syntheticJob(id, "t", arrival, flops)
	j.Origin = origin
	j.Reads = reads
	j.StagingBytes = residency.TotalBytes(reads)
	return j
}

// transferJob is a job dominated by one H2D transfer of n bytes —
// used to hold a device busy for a link-denominated span.
func transferJob(ctx *hstreams.Context, id int, arrival sim.Time, n int) Job {
	buf := hstreams.AllocVirtual(ctx, "residency-test/hold", n, 1)
	return Job{
		ID:      id,
		Tenant:  "t",
		Arrival: arrival,
		Tasks: []*core.Task{{
			ID:         0,
			H2D:        []core.TransferSpec{core.Xfer(buf, 0, n)},
			Cost:       device.KernelCost{Name: "hold", Flops: 1e8},
			StreamHint: -1,
		}},
		Origin: -1,
	}
}

func TestWithResidencyValidation(t *testing.T) {
	ctx := newCtx(t, 2, 1, 1)
	if _, err := New(ctx, WithResidency(-1)); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("negative capacity: err = %v, want capacity error", err)
	}
	c, err := New(newCtx(t, 2, 1, 1), WithResidency(0))
	if err != nil {
		t.Fatal(err)
	}
	if c.Residency() == nil || c.Residency().Capacity() != 0 {
		t.Fatal("unbounded residency tracker not built")
	}
	if cl, err := New(newCtx(t, 2, 1, 1)); err != nil || cl.Residency() != nil {
		t.Fatalf("cache-less cluster: err=%v tracker=%v, want nil tracker", err, cl.Residency())
	}

	// Malformed regions are rejected at Run.
	c2, err := New(newCtx(t, 2, 1, 1), WithResidency(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	bad := syntheticJob(0, "t", 0, 1e8)
	bad.Origin = 0
	bad.Reads = []residency.Region{
		{Dataset: "d", First: 0, Tiles: 4, TileBytes: 1 << 10},
		{Dataset: "d", First: 2, Tiles: 2, TileBytes: 1 << 10},
	}
	if _, err := c2.Run([]Job{bad}); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlapping reads: err = %v, want overlap error", err)
	}
}

// TestColdMissOnlyStaging is the tentpole contract on a hand-built
// sequence: the first off-origin reader of a dataset pays the full
// staged transfer, every later reader on that device pays nothing,
// and hits + misses always equal the demand.
func TestColdMissOnlyStaging(t *testing.T) {
	ctx := newCtx(t, 2, 1, 1)
	d := residency.Region{Dataset: "panel", First: 0, Tiles: 8, TileBytes: 1 << 20}
	// Three readers of the same dataset, serialized by arrival, all
	// steered to device 1 (off-origin).
	jobs := []Job{
		readerJob(0, 0, 0, 1e8, d),
		readerJob(1, sim.Time(40*sim.Millisecond), 0, 1e8, d),
		readerJob(2, sim.Time(80*sim.Millisecond), 0, 1e8, d),
	}
	c, err := New(ctx,
		WithPlacement(placeByID{m: map[int]int{0: 1, 1: 1, 2: 1}}),
		WithResidency(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	demand := d.Bytes()
	first := r.Jobs[0]
	if !first.Staged || first.MissBytes != demand || first.HitBytes != 0 {
		t.Errorf("cold reader: staged=%v hit=%d miss=%d, want full cold miss of %d", first.Staged, first.HitBytes, first.MissBytes, demand)
	}
	if first.StagedBytes != int64(float64(demand)*DefaultStagingFactor) {
		t.Errorf("cold reader charged %d bytes, want %d", first.StagedBytes, int64(float64(demand)*DefaultStagingFactor))
	}
	for _, o := range r.Jobs[1:] {
		if o.Staged || o.MissBytes != 0 || o.HitBytes != demand {
			t.Errorf("warm reader %d: staged=%v hit=%d miss=%d, want free full hit", o.ID, o.Staged, o.HitBytes, o.MissBytes)
		}
	}
	if r.HitBytes+r.MissBytes != 3*demand {
		t.Errorf("hits %d + misses %d != demanded %d", r.HitBytes, r.MissBytes, 3*demand)
	}
	if r.MissBytes != demand || r.StagedJobs != 1 {
		t.Errorf("run staged %d jobs / %d miss bytes, want cold-miss-only: 1 job, %d bytes", r.StagedJobs, r.MissBytes, demand)
	}

	// The cache-less control run stages every reader in full.
	ctrl, err := New(newCtx(t, 2, 1, 1), WithPlacement(placeByID{m: map[int]int{0: 1, 1: 1, 2: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ctrl.Run([]Job{
		readerJob(0, 0, 0, 1e8, d),
		readerJob(1, sim.Time(40*sim.Millisecond), 0, 1e8, d),
		readerJob(2, sim.Time(80*sim.Millisecond), 0, 1e8, d),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rc.StagedJobs != 3 || rc.HitBytes != 0 || rc.MissBytes != 3*demand {
		t.Errorf("cache-less control: staged=%d hit=%d miss=%d, want 3 full stagings", rc.StagedJobs, rc.HitBytes, rc.MissBytes)
	}
	if r.Makespan >= rc.Makespan {
		t.Errorf("warm makespan %v should beat cache-less %v", r.Makespan, rc.Makespan)
	}
}

// TestWarmSequentialRuns: the cache persists across Run calls, so the
// same workload replayed on one cluster runs entirely warm.
func TestWarmSequentialRuns(t *testing.T) {
	ctx := newCtx(t, 2, 1, 1)
	d := residency.Region{Dataset: "grid", First: 0, Tiles: 4, TileBytes: 2 << 20}
	c, err := New(ctx, WithPlacement(placeByID{m: map[int]int{7: 1}}), WithResidency(0))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := c.Run([]Job{readerJob(7, 0, 0, 1e9, d)})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Run([]Job{readerJob(7, 0, 0, 1e9, d)})
	if err != nil {
		t.Fatal(err)
	}
	if cold.MissBytes != d.Bytes() || cold.HitBytes != 0 {
		t.Errorf("cold run: hit=%d miss=%d, want full miss %d", cold.HitBytes, cold.MissBytes, d.Bytes())
	}
	if warm.MissBytes != 0 || warm.HitBytes != d.Bytes() || warm.StagedJobs != 0 {
		t.Errorf("warm run: hit=%d miss=%d staged=%d, want full hit", warm.HitBytes, warm.MissBytes, warm.StagedJobs)
	}
	if warm.Makespan >= cold.Makespan {
		t.Errorf("warm makespan %v should beat cold %v", warm.Makespan, cold.Makespan)
	}
	if got := c.Residency().ResidentBytes(1); got != d.Bytes() {
		t.Errorf("device 1 holds %d bytes after the runs, want %d", got, d.Bytes())
	}
}

// TestInvalidationForcesRestage: a write to a dataset at its origin
// invalidates the staged copy, so the next off-origin reader pays the
// cold miss again; a read-only control keeps the hit.
func TestInvalidationForcesRestage(t *testing.T) {
	d := residency.Region{Dataset: "state", First: 0, Tiles: 4, TileBytes: 1 << 20}
	run := func(write bool) *Result {
		ctx := newCtx(t, 2, 1, 1)
		mid := syntheticJob(1, "t", sim.Time(40*sim.Millisecond), 1e8)
		mid.Origin = 0 // runs at home: no staging either way
		if write {
			mid.Writes = []residency.Region{d}
		}
		c, err := New(ctx, WithPlacement(placeByID{m: map[int]int{0: 1, 1: 0, 2: 1}}), WithResidency(0))
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run([]Job{
			readerJob(0, 0, 0, 1e8, d),
			mid,
			readerJob(2, sim.Time(80*sim.Millisecond), 0, 1e8, d),
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	dirty := run(true)
	if o := dirty.Jobs[2]; !o.Staged || o.MissBytes != d.Bytes() {
		t.Errorf("reader after origin write: staged=%v miss=%d, want full re-stage of %d", o.Staged, o.MissBytes, d.Bytes())
	}
	clean := run(false)
	if o := clean.Jobs[2]; o.Staged || o.HitBytes != d.Bytes() {
		t.Errorf("reader without write: staged=%v hit=%d, want free full hit", o.Staged, o.HitBytes)
	}
}

// TestEvictionBoundsCache: a capacity smaller than the working set
// evicts at drain instants, the Result reports the evicted volume, and
// no device ends the run over budget.
func TestEvictionBoundsCache(t *testing.T) {
	ctx := newCtx(t, 2, 1, 1)
	cap := int64(6 << 20)
	mk := func(id int, at sim.Time, ds string) Job {
		return readerJob(id, at, 0, 1e8,
			residency.Region{Dataset: ds, First: 0, Tiles: 4, TileBytes: 1 << 20})
	}
	c, err := New(ctx,
		WithPlacement(placeByID{m: map[int]int{0: 1, 1: 1, 2: 1, 3: 1}}),
		WithResidency(cap),
	)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run([]Job{
		mk(0, 0, "a"),
		mk(1, sim.Time(40*sim.Millisecond), "b"),
		mk(2, sim.Time(80*sim.Millisecond), "c"),  // over budget: evicts a
		mk(3, sim.Time(120*sim.Millisecond), "a"), // a is gone: cold again
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.EvictedBytes == 0 {
		t.Error("no eviction despite working set over capacity")
	}
	if o := r.Jobs[3]; !o.Staged || o.MissBytes != o.HitBytes+o.MissBytes {
		t.Errorf("re-reader of evicted dataset: staged=%v hit=%d, want cold re-stage", o.Staged, o.HitBytes)
	}
	for dev := 0; dev < 2; dev++ {
		if got := c.Residency().ResidentBytes(dev); got > cap {
			t.Errorf("device %d ends the run holding %d > capacity %d", dev, got, cap)
		}
	}
}

// TestStealRepricesAgainstThiefResidency is the steal-pricing
// regression: a thief that already holds a committed job's tiles must
// price the move without the redundant staging transfer. The sizes
// make the blind price prohibitive — with the residency consult the
// steal happens and ships nothing; without it (the cache-less control,
// pricing the full demand) no steal is worth taking, stranding the
// backlog behind a busy device.
func TestStealRepricesAgainstThiefResidency(t *testing.T) {
	d := residency.Region{Dataset: "panel", First: 0, Tiles: 16, TileBytes: 4 << 20} // 64 MiB: ~21 ms staged
	run := func(cache bool) *Result {
		ctx := newCtx(t, 2, 1, 1)
		opts := []Option{
			// j0 warms device 1; the rest pin to device 0.
			WithPlacement(placeByID{m: map[int]int{0: 1, 1: 0, 2: 0, 3: 0}}),
			WithStealing(0),
			WithQueueDepth(4),
		}
		if cache {
			opts = append(opts, WithResidency(0))
		}
		c, err := New(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		jobs := []Job{
			readerJob(0, 0, 0, 1e8, d),      // stages the panel onto device 1, done ≈ 21 ms
			transferJob(ctx, 1, 0, 176<<20), // holds device 0 busy ≈ 27 ms
			readerJob(2, 0, 0, 1e8, d),      // queued on device 0 (its origin: unstaged)
			readerJob(3, 0, 0, 1e8, d),      // queued deeper — the steal candidate
		}
		r, err := c.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	aware := run(true)
	if aware.Steals == 0 {
		t.Fatal("residency-aware pricing refused the free steal")
	}
	var stolen *Outcome
	for i := range aware.Jobs {
		if aware.Jobs[i].Stolen {
			stolen = &aware.Jobs[i]
		}
	}
	if stolen == nil {
		t.Fatal("Steals > 0 but no stolen outcome")
	}
	if stolen.Device != 1 || stolen.StolenFrom != 0 {
		t.Fatalf("stolen job moved %d→%d, want 0→1 (the warm thief)", stolen.StolenFrom, stolen.Device)
	}
	if stolen.Staged || stolen.MissBytes != 0 || stolen.HitBytes != d.Bytes() {
		t.Errorf("stolen job staged=%v hit=%d miss=%d, want the whole panel served from the thief's cache",
			stolen.Staged, stolen.HitBytes, stolen.MissBytes)
	}

	blind := run(false)
	if blind.Steals != 0 {
		t.Fatalf("cache-blind pricing stole %d jobs; the staging re-charge should have priced every move out", blind.Steals)
	}
	if aware.Makespan >= blind.Makespan {
		t.Errorf("residency-aware makespan %v should beat cache-blind %v", aware.Makespan, blind.Makespan)
	}
}

// repeatedDatasetMix is the residency analogue of the PR 3/PR 4
// scenario helpers: device-resident jobs cycling through a few shared
// datasets, so a cache has real reuse to exploit.
func repeatedDatasetMix(seed uint64) ScenarioConfig {
	return ScenarioConfig{
		Seed:             seed,
		Arrival:          "bursty",
		SizeSpread:       4,
		AffinityFraction: 1,
		Origins:          []int{0},
		Datasets:         4,
		XferBytes:        8 << 20,
		WindowNs:         10_000_000,
	}
}

// TestResidencyNeverLosesOnMixes replays the PR 3 placement grid and
// the PR 4 stealing mixes — dataset-keyed so the cache has something
// to reuse — and demands the cached cluster never loses to the
// cache-less one on makespan.
func TestResidencyNeverLosesOnMixes(t *testing.T) {
	mixes := []struct {
		name             string
		spread, affinity float64
		datasets         int
		xfer             int64
		windowNs         int64
		depth            int
		steal            bool
	}{
		{"balanced", 1, 0, 0, 1 << 20, 20_000_000, 8, false},
		{"mild", 4, 0.25, 4, 2 << 20, 15_000_000, 8, false},
		{"moderate", 8, 0.5, 4, 4 << 20, 10_000_000, 8, false},
		{"severe", 8, 0.7, 4, 8 << 20, 15_000_000, 8, false},
		{"moderate-steal", 8, 0.5, 4, 4 << 20, 10_000_000, 8, true},
		{"stranded-steal", 4, 1, 4, 8 << 20, 10_000_000, 16, true},
	}
	for _, mix := range mixes {
		for seed := uint64(2016); seed < 2019; seed++ {
			var spans [2]sim.Duration
			for i, cache := range []bool{false, true} {
				ctx := newCtx(t, 2, 2, 2)
				jobs, err := BuildScenario(ctx, ScenarioConfig{
					Seed:             seed,
					Arrival:          "bursty",
					SizeSpread:       mix.spread,
					AffinityFraction: mix.affinity,
					Origins:          []int{0, 1},
					Datasets:         mix.datasets,
					XferBytes:        mix.xfer,
					WindowNs:         mix.windowNs,
				})
				if err != nil {
					t.Fatal(err)
				}
				opts := []Option{WithPlacement(Predicted()), WithQueueDepth(mix.depth)}
				if mix.steal {
					opts = append(opts, WithStealing(0))
				}
				if cache {
					opts = append(opts, WithResidency(0))
				}
				c, err := New(ctx, opts...)
				if err != nil {
					t.Fatal(err)
				}
				r, err := c.Run(jobs)
				if err != nil {
					t.Fatal(err)
				}
				if r.HitBytes+r.MissBytes != offOriginDemand(jobs, r) {
					t.Errorf("%s/seed %d cache=%v: hits %d + misses %d != off-origin demand %d",
						mix.name, seed, cache, r.HitBytes, r.MissBytes, offOriginDemand(jobs, r))
				}
				spans[i] = r.Makespan
			}
			if spans[1] > spans[0] {
				t.Errorf("%s/seed %d: cached makespan %v loses to cache-less %v", mix.name, seed, spans[1], spans[0])
			}
		}
	}
}

// offOriginDemand sums the staging demand of the jobs that ended up
// off their origin — the denominator of the hit/miss accounting.
func offOriginDemand(jobs []Job, r *Result) int64 {
	var n int64
	for i := range jobs {
		o := r.Jobs[i]
		if o.Failed || jobs[i].Origin < 0 || jobs[i].Origin == o.Device {
			continue
		}
		n += jobs[i].StagingDemand()
	}
	return n
}

// TestAffinityHerdsDatasetReaders: on a repeated-dataset mix the
// affinity policy concentrates each dataset's readers, so it stages no
// more cold bytes than cache-blind-tie-broken predicted and never a
// worse makespan than the cache-less baseline.
func TestAffinityHerdsDatasetReaders(t *testing.T) {
	for seed := uint64(2016); seed < 2019; seed++ {
		run := func(place Policy, cache bool) *Result {
			ctx := newCtx(t, 2, 2, 2)
			jobs, err := BuildScenario(ctx, repeatedDatasetMix(seed))
			if err != nil {
				t.Fatal(err)
			}
			opts := []Option{WithPlacement(place), WithQueueDepth(8)}
			if cache {
				opts = append(opts, WithResidency(0))
			}
			c, err := New(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.Run(jobs)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		aff := run(Affinity(), true)
		pred := run(Predicted(), true)
		base := run(Predicted(), false)
		if aff.MissBytes > pred.MissBytes {
			t.Errorf("seed %d: affinity staged %d cold bytes, predicted only %d", seed, aff.MissBytes, pred.MissBytes)
		}
		if aff.MissBytes >= base.MissBytes {
			t.Errorf("seed %d: affinity cold misses %d should undercut cache-less staging %d", seed, aff.MissBytes, base.MissBytes)
		}
		if aff.Makespan > base.Makespan {
			t.Errorf("seed %d: affinity makespan %v loses to cache-less predicted %v", seed, aff.Makespan, base.Makespan)
		}
	}
}

// TestFailedRunRollsBackPhantomResidency: a committed job whose
// device aborts before dispatch never ran its staged transfer, so its
// residency installs must not survive into a later run on the same
// (persistent) cache as phantom hits.
func TestFailedRunRollsBackPhantomResidency(t *testing.T) {
	ctx := newCtx(t, 2, 1, 1)
	d := residency.Region{Dataset: "phantom", First: 0, Tiles: 4, TileBytes: 1 << 20}
	// Device 1's stream policy dies on its first dispatch, so the
	// off-origin reader committed there installs tiles but never runs.
	c, err := New(ctx,
		WithPlacement(placeByID{m: map[int]int{0: 1}}),
		WithResidency(0),
		WithDevicePolicy(func() sched.Policy { return &vandalStreamPolicy{good: 0} }),
	)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run([]Job{readerJob(0, 0, 0, 1e8, d)})
	if err == nil {
		t.Fatal("vandal device policy should abort the run")
	}
	if r == nil || !r.Jobs[0].Failed {
		t.Fatal("aborted run should return the job as a failed outcome")
	}
	if got := c.Residency().ResidentBytes(1); got != 0 {
		t.Fatalf("device 1 holds %d phantom bytes after the failed run, want 0", got)
	}
	if hit, _ := c.Residency().Lookup(1, []residency.Region{d}); hit != 0 {
		t.Fatalf("failed job's tiles still hit for %d bytes", hit)
	}
}
