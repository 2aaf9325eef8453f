package cluster

import (
	"reflect"
	"runtime"
	"testing"

	"micstream/internal/hstreams"
	"micstream/internal/sched"
	"micstream/internal/sim"
)

// contendedConfig is a contended cluster mix at task granularity:
// 4-tile jobs, a slicing cap of 1 (every task its own dispatch),
// stealing, and a small residency cache shared by eight datasets with
// write-backs — every dispatch-path mechanism runs.
var contendedConfig = ScenarioConfig{Jobs: 400, Seed: 1, Arrival: "bursty", TilesPerJob: 4,
	AffinityFraction: 0.7, Origins: []int{0, 1}, Datasets: 8, WriteFraction: 0.2, XferBytes: 1 << 20}

// newContended builds the contended cluster (untraced, timing-only)
// with the given placement and device policies, and its jobs.
func newContended(t *testing.T, place Policy, devPolicy func() sched.Policy) (*Cluster, []Job) {
	t.Helper()
	ctx, err := hstreams.Init(hstreams.Config{Devices: 4, Partitions: 4, StreamsPerPartition: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, WithPlacement(place), WithDevicePolicy(devPolicy),
		WithStealing(sim.Millisecond), WithSlicing(1), WithResidency(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := BuildScenario(ctx, contendedConfig)
	if err != nil {
		t.Fatal(err)
	}
	return c, jobs
}

// hostilePlacement wraps a placement policy and, after its inner twin
// has chosen, overwrites every view it was handed; it also keeps the
// slice. The placement scratch is reused across decisions, so this
// checks that it reaches a policy only as copies.
type hostilePlacement struct {
	inner Policy
	kept  []DeviceView
}

func (h *hostilePlacement) Name() string { return h.inner.Name() }

func (h *hostilePlacement) bind(c *Cluster) {
	if b, ok := h.inner.(clusterBinder); ok {
		b.bind(c)
	}
}

func (h *hostilePlacement) reset() {
	if r, ok := h.inner.(resetter); ok {
		r.reset()
	}
}

func (h *hostilePlacement) Place(q *Queued, eligible []DeviceView) int {
	pick := h.inner.Place(q, eligible)
	for i := range eligible {
		eligible[i] = DeviceView{Device: 99 - i, Streams: -1, Idle: -1, Queued: 1 << 20, Backlog: -1, EarliestFree: -1, Now: -1}
	}
	h.kept = eligible
	return pick
}

// hostileStreams is the device-level counterpart: it overwrites the
// scheduler's View slices and idle list after its inner twin picked,
// and keeps the View.
type hostileStreams struct {
	inner sched.Policy
	kept  *sched.View
}

func (h *hostileStreams) Name() string { return h.inner.Name() }

func (h *hostileStreams) Pick(pending []*sched.Pending, idle []int, v *sched.View) (int, int) {
	pi, stream := h.inner.Pick(pending, idle, v)
	for i := range v.StreamLoad {
		v.StreamLoad[i] = -1
	}
	for i := range v.StreamPartition {
		v.StreamPartition[i] = -1
	}
	for i := range v.StreamTenant {
		v.StreamTenant[i] = "mallory"
	}
	for i := range idle {
		idle[i] = -1
	}
	h.kept = v
	return pi, stream
}

// Policies that overwrite every slice they are handed (the placement's
// eligible views, the device schedulers' View slices and idle lists)
// and keep them leave the contended run's Result DeepEqual to their
// well-behaved twins'.
func TestHostilePoliciesCannotCorruptCluster(t *testing.T) {
	for _, name := range []string{"affinity", "predicted", "round-robin", "least-loaded"} {
		run := func(wrap bool) *Result {
			t.Helper()
			place, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			dev := sched.SJF
			if wrap {
				place = &hostilePlacement{inner: place}
				dev = func() sched.Policy { return &hostileStreams{inner: sched.SJF()} }
			}
			c, jobs := newContended(t, place, dev)
			r, err := c.Run(jobs)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		want, got := run(false), run(true)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: hostile policies changed the result", name)
		}
	}
}

// clusterAllocsPerJob bounds the allocations of one contended batch
// Run per job. The dispatch path allocates a sixty-fourth of a heap
// object per stream operation (12 per 4-tile job, plus staging), its
// share of an event chunk, and a few objects per job (its admission
// records); this mix measures 6.9 objects/job, and the bound leaves
// under 10% headroom.
const clusterAllocsPerJob = 7.5

// A contended batch Run at task granularity allocates a bounded number
// of heap objects per job: nothing per dispatch, per grant or per
// placement decision.
func TestContendedRunAllocsPerJob(t *testing.T) {
	c, jobs := newContended(t, Affinity(), sched.FIFO)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	r, err := c.Run(jobs)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Residency().Stats()
	if r.Steals == 0 || r.StagedJobs == 0 || st.EvictedBytes == 0 || st.InvalidatedBytes == 0 {
		t.Fatalf("mix no longer contended: steals %d, staged %d, evicted %d B, invalidated %d B",
			r.Steals, r.StagedJobs, st.EvictedBytes, st.InvalidatedBytes)
	}
	perJob := float64(m1.Mallocs-m0.Mallocs) / float64(len(jobs))
	if perJob > clusterAllocsPerJob {
		t.Fatalf("contended Run allocated %.1f objects/job, want <= %.1f", perJob, clusterAllocsPerJob)
	}
	t.Logf("%.1f objects/job", perJob)
}
