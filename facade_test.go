package micstream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestWithLinkOverridesModel(t *testing.T) {
	run := func(opts ...Option) Duration {
		p, err := NewPlatform(opts...)
		if err != nil {
			t.Fatal(err)
		}
		buf := AllocVirtual(p, "v", 1<<20, 1)
		if _, err := p.Stream(0).EnqueueH2D(buf, 0, buf.Len(), 0); err != nil {
			t.Fatal(err)
		}
		return Duration(p.Barrier())
	}
	slow := run(WithLink(1e9, 0))
	fast := run(WithLink(10e9, 0))
	if fast*9 > slow {
		t.Fatalf("10x bandwidth should be ≈10x faster: %v vs %v", fast, slow)
	}
}

func TestContextExposesRuntime(t *testing.T) {
	p, err := NewPlatform(WithPartitions(3))
	if err != nil {
		t.Fatal(err)
	}
	if p.Context() == nil || p.Context().NumStreams() != 3 {
		t.Fatal("Context accessor broken")
	}
	if p.NumDevices() != 1 {
		t.Fatal("device count wrong")
	}
}

func TestHostSliceFacade(t *testing.T) {
	p, err := NewPlatform(WithFunctionalKernels())
	if err != nil {
		t.Fatal(err)
	}
	host := []int32{5, 6}
	buf := Alloc1D(p, "v", host)
	got := HostSlice[int32](buf)
	if &got[0] != &host[0] {
		t.Fatal("HostSlice does not alias")
	}
}

// A full producer→staged-consumer flow through the facade: EnqueuePhase
// with XferAfter across two devices.
func TestFacadeCrossDeviceStaging(t *testing.T) {
	p, err := NewPlatform(WithDevices(2), WithFunctionalKernels())
	if err != nil {
		t.Fatal(err)
	}
	host := make([]float64, 128)
	buf := Alloc1D(p, "tile", host)
	producer := &Task{
		ID:   0,
		H2D:  []TransferSpec{Xfer(buf, 0, len(host))},
		Cost: KernelCost{Name: "produce", Flops: 1e6},
		Body: func(k *KernelCtx) {
			dev := DeviceSlice[float64](buf, k.DeviceIndex)
			for i := range dev {
				dev[i] = float64(i)
			}
		},
		D2H:        []TransferSpec{Xfer(buf, 0, len(host))},
		StreamHint: 0, // device 0
	}
	var consumed float64
	consumer := &Task{
		ID:   1,
		H2D:  []TransferSpec{XferAfter(buf, 0, len(host), 0)},
		Cost: KernelCost{Name: "consume", Flops: 1e6},
		Body: func(k *KernelCtx) {
			dev := DeviceSlice[float64](buf, k.DeviceIndex)
			for _, v := range dev {
				consumed += v
			}
		},
		StreamHint: 1, // device 1
	}
	ev, err := EnqueuePhase(p, []*Task{producer, consumer})
	if err != nil {
		t.Fatal(err)
	}
	p.Barrier()
	if !ev.Done(1).Done() {
		t.Fatal("consumer never finished")
	}
	want := float64(127*128) / 2
	if consumed != want {
		t.Fatalf("consumer saw %v, want %v — staging moved wrong data", consumed, want)
	}
}

func TestFacadeCoordinateDescent(t *testing.T) {
	space := SearchSpace{
		Partitions: []int{2, 4, 8},
		TilesFor:   func(int) []int { return []int{4, 8, 16} },
	}
	res, err := TuneCoordinateDescent(space, func(p, tiles int) (float64, error) {
		return float64((p-4)*(p-4) + (tiles-8)*(tiles-8)), nil
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 4 || res.Tiles != 8 {
		t.Fatalf("found (%d,%d), want (4,8)", res.Partitions, res.Tiles)
	}
}

func TestCandidateTilesFacade(t *testing.T) {
	tiles := CandidateTiles(7, 400)
	for _, v := range tiles[:len(tiles)-1] {
		if v%7 != 0 {
			t.Fatalf("tile %d not a multiple of 7", v)
		}
	}
}

func TestFacadeScheduler(t *testing.T) {
	p, err := NewPlatform(WithPartitions(4))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := BuildScenario(p, ScenarioConfig{Pattern: "mild", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := PolicyByName("sjf")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(p, WithPolicy(policy))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Jobs) != 10+20+30+40 {
		t.Fatalf("completed %d jobs, want 100", len(r.Jobs))
	}
	if r.JainSlowdown <= 0 || r.JainSlowdown > 1 {
		t.Fatalf("Jain index %v out of range", r.JainSlowdown)
	}
	if len(PolicyNames()) != 4 || len(PatternNames()) != 4 {
		t.Fatalf("policy/pattern listings incomplete: %v %v", PolicyNames(), PatternNames())
	}
	// The platform's virtual clock advanced with the schedule.
	if p.Elapsed() <= 0 {
		t.Fatal("platform clock did not advance")
	}
}

func TestFacadeSchedExperiments(t *testing.T) {
	ids := ExperimentIDs()
	for _, want := range []string{"fairness", "imbalance"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("ExperimentIDs() missing %q: %v", want, ids)
		}
	}
	var buf strings.Builder
	if err := RunExperiment("imbalance", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "severe") {
		t.Fatal("imbalance table missing the severe pattern")
	}
}

func TestFacadeCluster(t *testing.T) {
	pol, err := PlaceBy("predicted")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(
		WithClusterDevices(2),
		WithClusterPartitions(2),
		WithClusterStreams(2),
		WithPlacement(pol),
		WithClusterQueueDepth(4),
		WithClusterStagingFactor(2),
		WithClusterDevicePolicy(FIFOPolicy),
	)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := BuildClusterScenario(c, ClusterScenarioConfig{
		Seed: 9, AffinityFraction: 0.5, Origins: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Jobs) != 48 {
		t.Fatalf("completed %d jobs, want 48", len(r.Jobs))
	}
	if r.Makespan <= 0 || len(r.Devices) != 2 {
		t.Fatalf("bad cluster result: makespan %v, %d devices", r.Makespan, len(r.Devices))
	}
	if got := len(PlacementNames()); got != 4 {
		t.Fatalf("PlacementNames() has %d entries, want 4", got)
	}
	if ClusterPlatform(c).Elapsed() <= 0 {
		t.Fatal("cluster platform clock did not advance")
	}
	for _, name := range PlacementNames() {
		if p, err := PlaceBy(name); err != nil || p.Name() != name {
			t.Fatalf("PlaceBy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := PlaceBy("nope"); err == nil {
		t.Fatal("unknown placement name should error")
	}
	if sp := StaticPlacement(1); sp.Name() != "static-1" {
		t.Fatalf("StaticPlacement name = %q", sp.Name())
	}
}

// A facade cluster records resource spans only for a trace reader:
// without telemetry the platform has no span recorder; with it,
// Cluster.Trace still draws every link and partition occupancy. The
// spans never feed a decision, so both runs' results are identical.
func TestFacadeClusterSpansOnlyWithTelemetry(t *testing.T) {
	run := func(opts ...ClusterOption) (*Cluster, *ClusterResult) {
		t.Helper()
		c, err := NewCluster(append([]ClusterOption{WithClusterDevices(2), WithClusterPartitions(2)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := BuildClusterScenario(c, ClusterScenarioConfig{
			Seed: 5, AffinityFraction: 0.5, Origins: []int{0, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return c, r
	}
	plain, plainRes := run()
	if rec := ClusterPlatform(plain).Context().Recorder(); rec != nil {
		t.Fatalf("cluster without telemetry records spans (%d so far)", len(rec.Spans()))
	}
	traced, tracedRes := run(WithClusterTelemetry(NewTelemetry()))
	if !reflect.DeepEqual(plainRes, tracedRes) {
		t.Fatal("telemetry changed the ClusterResult")
	}

	var buf bytes.Buffer
	if err := traced.Trace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Args struct {
				Name string `json:"name"`
				Kind string `json:"kind"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	threads := map[[2]int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			threads[[2]int{e.Pid, e.Tid}] = e.Args.Name
		}
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Cat != "span" {
			continue
		}
		thread := threads[[2]int{e.Pid, e.Tid}]
		switch {
		case strings.HasSuffix(thread, "/pcie"):
			seen["link "+e.Args.Kind] = true
		case strings.Contains(thread, "/part"):
			seen["partition "+e.Args.Kind] = true
		}
	}
	for _, want := range []string{"link H2D", "link D2H", "partition EXE"} {
		if !seen[want] {
			t.Errorf("traced cluster's Chrome trace has no %s span (saw %v)", want, seen)
		}
	}
}

func TestFacadeTuneCluster(t *testing.T) {
	// The model picks device count and granularity jointly; a free
	// split should prefer the largest device count, a ruinously
	// expensive one should stay on one device.
	m := NewModel(Xeon31SP(), DefaultLink())
	w := UniformWorkload("bag", 64<<20, 64<<20, KernelCost{Name: "k", Flops: 4e10, Efficiency: 0.5})
	space := SearchSpace{
		Partitions: []int{2, 4, 8},
		TilesFor:   func(p int) []int { return []int{4 * p} },
	}
	free, err := TuneCluster([]int{1, 2, 4}, space, m.ClusterEvalFunc(SplitWorkload(w, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if free.Devices != 4 {
		t.Fatalf("free split tuned to %d devices, want 4", free.Devices)
	}
	costly := SplitWorkload(w, func(devices int) int64 { return int64(devices-1) * (1 << 30) })
	pinned, err := TuneCluster([]int{1, 2, 4}, space, m.ClusterEvalFunc(costly))
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Devices != 1 {
		t.Fatalf("ruinous staging tuned to %d devices, want 1", pinned.Devices)
	}
	guided, err := TuneClusterGuided([]int{1, 2, 4}, space,
		m.ClusterEvalFunc(costly), m.ClusterEvalFunc(costly), 2)
	if err != nil {
		t.Fatal(err)
	}
	if guided.Devices != 1 || guided.Evaluations != 2 {
		t.Fatalf("guided cluster tune = %+v, want 1 device in 2 evaluations", guided)
	}
}

func TestFacadeClusterExperiments(t *testing.T) {
	ids := ExperimentIDs()
	for _, want := range []string{"placement", "cluster-scaling"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("ExperimentIDs() missing %q: %v", want, ids)
		}
	}
}

// Admit a small multi-tenant job stream onto a two-partition platform
// and read back the per-tenant accounting. Virtual time is
// deterministic, so the output is stable.
func ExampleNewScheduler() {
	p, err := NewPlatform(WithPartitions(2))
	if err != nil {
		panic(err)
	}
	buf := AllocVirtual(p, "data", 1<<20, 1)
	job := func(id int, tenant string, arrivalNs int64, flops float64) Job {
		return Job{
			ID: id, Tenant: tenant, Arrival: Time(arrivalNs),
			Tasks: []*Task{{
				ID:         0,
				H2D:        []TransferSpec{Xfer(buf, 0, buf.Len())},
				Cost:       KernelCost{Name: "work", Flops: flops},
				D2H:        []TransferSpec{Xfer(buf, 0, buf.Len())},
				StreamHint: -1,
			}},
		}
	}
	s, err := NewScheduler(p)
	if err != nil {
		panic(err)
	}
	r, err := s.Run([]Job{
		job(0, "alice", 0, 4e9),
		job(1, "bob", 0, 1e9),
		job(2, "alice", 1_000_000, 1e9),
	})
	if err != nil {
		panic(err)
	}
	for _, ts := range r.Tenants {
		fmt.Printf("%s: %d jobs\n", ts.Tenant, ts.Jobs)
	}
	fmt.Printf("policy: %s, all done at %v\n", r.Policy, r.Makespan)
	// Output:
	// alice: 2 jobs
	// bob: 1 jobs
	// policy: fifo, all done at 8.487ms
}

// Select a scheduling policy with WithPolicy: while the first job
// occupies the single stream, two more queue up, and shortest-job-
// first dispatches the light one ahead of the medium one that arrived
// earlier.
func ExampleWithPolicy() {
	p, err := NewPlatform(WithPartitions(1))
	if err != nil {
		panic(err)
	}
	job := func(id int, name string, flops float64, arrivalNs int64) Job {
		return Job{ID: id, Tenant: name, Arrival: Time(arrivalNs), Tasks: []*Task{{
			ID: 0, Cost: KernelCost{Name: name, Flops: flops}, StreamHint: -1,
		}}}
	}
	s, err := NewScheduler(p, WithPolicy(SJFPolicy()))
	if err != nil {
		panic(err)
	}
	r, err := s.Run([]Job{
		job(0, "first", 4e9, 0),
		job(1, "medium", 8e9, 1000),
		job(2, "light", 1e9, 2000),
	})
	if err != nil {
		panic(err)
	}
	for _, o := range r.Jobs {
		fmt.Printf("job %d (%s) started at %v\n", o.ID, o.Tenant, o.Start)
	}
	// Output:
	// job 0 (first) started at 0ns
	// job 1 (medium) started at 5.127ms
	// job 2 (light) started at 4.085ms
}

func TestFacadeResidency(t *testing.T) {
	c, err := NewCluster(
		WithClusterDevices(2),
		WithClusterPartitions(1),
		WithPlacement(AffinityPlacement()),
		WithResidency(64<<20),
	)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := BuildClusterScenario(c, ClusterScenarioConfig{
		Jobs: 16, Seed: 9, AffinityFraction: 1, Origins: []int{0},
		Datasets: 2, XferBytes: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, j := range jobs {
		if len(j.Reads) > 0 {
			declared++
			if j.StagingDemand() != j.Reads[0].Bytes() {
				t.Fatalf("job %d demand %d != region bytes %d", j.ID, j.StagingDemand(), j.Reads[0].Bytes())
			}
		}
	}
	if declared != 16 {
		t.Fatalf("%d of 16 scenario jobs declare regions", declared)
	}
	r, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.HitBytes == 0 {
		t.Error("repeated-dataset scenario produced no cache hits")
	}
	var demand int64
	for i, j := range jobs {
		if o := r.Jobs[i]; j.Origin >= 0 && j.Origin != o.Device && !o.Failed {
			demand += j.StagingDemand()
		}
	}
	if r.HitBytes+r.MissBytes != demand {
		t.Errorf("hits %d + misses %d != off-origin demand %d", r.HitBytes, r.MissBytes, demand)
	}
	var st ResidencyStats = c.Residency().Stats()
	if st.HitBytes != r.HitBytes {
		t.Errorf("tracker hits %d != result hits %d on the first run", st.HitBytes, r.HitBytes)
	}
	if got := CacheModeNames(); len(got) != 2 || got[0] != "off" || got[1] != "lru" {
		t.Errorf("CacheModeNames() = %v, want [off lru]", got)
	}
	if _, err := PlaceBy("affinity"); err != nil {
		t.Errorf("PlaceBy(affinity): %v", err)
	}
	// A region is usable directly through the facade alias.
	reg := Region{Dataset: "d", First: 0, Tiles: 2, TileBytes: 1 << 10}
	if reg.Bytes() != 2<<10 {
		t.Errorf("Region.Bytes() = %d", reg.Bytes())
	}
}
