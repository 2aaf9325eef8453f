package micstream

// One testing.B benchmark per figure of the paper's evaluation. Each
// iteration regenerates the complete figure (every series and sweep
// point) through the experiment harness, so
//
//	go test -bench=Fig -benchtime=1x
//
// reproduces the entire evaluation section. The heavy sweeps take
// seconds per iteration; benchmark time measures the simulator, not
// the modeled platform (whose virtual times are inside the tables).

import (
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"micstream/internal/experiments"
)

// benchFigure runs one experiment generator per iteration and reports
// the number of data points produced.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	g, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := g()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
		if err := t.Fprint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

// Microbenchmark level (§IV).

func BenchmarkFig05TransferOverlap(b *testing.B) { benchFigure(b, "fig5") }
func BenchmarkFig06ComputeOverlap(b *testing.B)  { benchFigure(b, "fig6") }
func BenchmarkFig07PartitionSweep(b *testing.B)  { benchFigure(b, "fig7") }

// Application level, streamed vs non-streamed (§V-A, Fig. 8).

func BenchmarkFig08aMM(b *testing.B)      { benchFigure(b, "fig8a") }
func BenchmarkFig08bCF(b *testing.B)      { benchFigure(b, "fig8b") }
func BenchmarkFig08cKmeans(b *testing.B)  { benchFigure(b, "fig8c") }
func BenchmarkFig08dHotspot(b *testing.B) { benchFigure(b, "fig8d") }
func BenchmarkFig08eNN(b *testing.B)      { benchFigure(b, "fig8e") }
func BenchmarkFig08fSRAD(b *testing.B)    { benchFigure(b, "fig8f") }

// Resource granularity (§V-B-1, Fig. 9).

func BenchmarkFig09aMMPartitions(b *testing.B)      { benchFigure(b, "fig9a") }
func BenchmarkFig09bCFPartitions(b *testing.B)      { benchFigure(b, "fig9b") }
func BenchmarkFig09cKmeansPartitions(b *testing.B)  { benchFigure(b, "fig9c") }
func BenchmarkFig09dHotspotPartitions(b *testing.B) { benchFigure(b, "fig9d") }
func BenchmarkFig09eNNPartitions(b *testing.B)      { benchFigure(b, "fig9e") }
func BenchmarkFig09fSRADPartitions(b *testing.B)    { benchFigure(b, "fig9f") }

// Task granularity (§V-B-2, Fig. 10).

func BenchmarkFig10aMMTiles(b *testing.B)      { benchFigure(b, "fig10a") }
func BenchmarkFig10bCFTiles(b *testing.B)      { benchFigure(b, "fig10b") }
func BenchmarkFig10cKmeansTiles(b *testing.B)  { benchFigure(b, "fig10c") }
func BenchmarkFig10dHotspotTiles(b *testing.B) { benchFigure(b, "fig10d") }
func BenchmarkFig10eNNTiles(b *testing.B)      { benchFigure(b, "fig10e") }
func BenchmarkFig10fSRADTiles(b *testing.B)    { benchFigure(b, "fig10f") }

// Multi-MIC (§VI, Fig. 11) and the §V-C search-space study.

func BenchmarkFig11MultiMIC(b *testing.B) { benchFigure(b, "fig11") }
func BenchmarkTunerSearch(b *testing.B)   { benchFigure(b, "heuristics") }

// Scheduler studies: multi-tenant fairness and the cluster placement
// comparison (each iteration regenerates the full study grid).

func BenchmarkSchedFairness(b *testing.B)     { benchFigure(b, "fairness") }
func BenchmarkClusterPlacement(b *testing.B)  { benchFigure(b, "placement") }
func BenchmarkClusterScalingFig(b *testing.B) { benchFigure(b, "cluster-scaling") }
func BenchmarkClusterStealing(b *testing.B)   { benchFigure(b, "stealing") }
func BenchmarkClusterResidency(b *testing.B)  { benchFigure(b, "residency") }

// Ablations of the model's load-bearing terms and extensions beyond
// the paper (their shapes are asserted in
// internal/experiments/ablations_test.go).

func BenchmarkAblationDuplex(b *testing.B)      { benchFigure(b, "ablation-duplex") }
func BenchmarkAblationContention(b *testing.B)  { benchFigure(b, "ablation-contention") }
func BenchmarkAblationAlloc(b *testing.B)       { benchFigure(b, "ablation-alloc") }
func BenchmarkExtHotspotPipelined(b *testing.B) { benchFigure(b, "ext-hotspot-pipe") }
func BenchmarkExtMultiMICScaling(b *testing.B)  { benchFigure(b, "ext-multimic") }
func BenchmarkExtTaxonomy(b *testing.B)         { benchFigure(b, "ext-taxonomy") }

// Engine-level microbenchmarks: the cost of the simulation substrate
// itself (events, reservations, enqueues).

func BenchmarkEnqueueKernel(b *testing.B) {
	p, err := NewPlatform(WithPartitions(4))
	if err != nil {
		b.Fatal(err)
	}
	cost := KernelCost{Name: "k", Flops: 1e6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Stream(i%4).EnqueueKernel(cost, i, nil)
		if i%1024 == 1023 {
			p.Barrier()
		}
	}
	p.Barrier()
}

func BenchmarkEnqueueTransfer(b *testing.B) {
	p, err := NewPlatform(WithPartitions(4))
	if err != nil {
		b.Fatal(err)
	}
	buf := AllocVirtual(p, "v", 1<<20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Stream(i%4).EnqueueH2D(buf, 0, buf.Len(), i); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			p.Barrier()
		}
	}
	p.Barrier()
}

// End-to-end admission throughput: how many simulated jobs per second
// of host CPU the scheduling engines sustain. These are the
// regression canaries for the dispatch hot paths — the virtual-time
// results are asserted elsewhere; here only the simulator's own cost
// is measured, as jobs/s and as heap allocations per job (allocs/job,
// counted around Run alone). CI's smoke runs them once per push
// (-benchtime 1x) to catch crashes; one run is no measurement, so
// commits are compared by bench/ledger's paired runs.

func BenchmarkSchedAdmission(b *testing.B) {
	b.ReportAllocs()
	jobs := 0
	var inRun time.Duration
	var mallocs uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := NewPlatform(WithPartitions(4), WithStreamsPerPartition(2))
		if err != nil {
			b.Fatal(err)
		}
		scenario, err := BuildScenario(p, ScenarioConfig{Pattern: "severe", Arrival: "bursty", Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewScheduler(p, WithPolicy(SJFPolicy()))
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		start := time.Now()
		r, err := s.Run(scenario)
		inRun += time.Since(start)
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		b.StartTimer()
		if err != nil {
			b.Fatal(err)
		}
		jobs += len(r.Jobs)
	}
	if sec := inRun.Seconds(); sec > 0 {
		b.ReportMetric(float64(jobs)/sec, "jobs/s")
	}
	if jobs > 0 {
		b.ReportMetric(float64(mallocs)/float64(jobs), "allocs/job")
	}
}

func BenchmarkClusterAdmission(b *testing.B) {
	b.ReportAllocs()
	jobs := 0
	var inRun time.Duration
	var mallocs uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewCluster(
			WithClusterDevices(2),
			WithClusterPartitions(2),
			WithClusterStreams(2),
			WithClusterQueueDepth(8),
		)
		if err != nil {
			b.Fatal(err)
		}
		scenario, err := BuildClusterScenario(c, ClusterScenarioConfig{
			Jobs: 96, Seed: 7, Arrival: "bursty", AffinityFraction: 0.5, Origins: []int{0, 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		start := time.Now()
		r, err := c.Run(scenario)
		inRun += time.Since(start)
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		b.StartTimer()
		if err != nil {
			b.Fatal(err)
		}
		jobs += len(r.Jobs)
	}
	if sec := inRun.Seconds(); sec > 0 {
		b.ReportMetric(float64(jobs)/sec, "jobs/s")
	}
	if jobs > 0 {
		b.ReportMetric(float64(mallocs)/float64(jobs), "allocs/job")
	}
}

// BenchmarkServeIngest is the service-mode admission canary: eight
// submitter goroutines race jobs through the admission frontier of a
// live ClusterServer and the sustained wall-clock ingest rate is
// reported as jobs/s — the same figure cmd/micserve prints.
func BenchmarkServeIngest(b *testing.B) { benchServe(b, false) }

// BenchmarkServeObserved is BenchmarkServeIngest with the full observer
// stack a monitored server runs: telemetry, the OpenMetrics exporter, a
// DefaultFlightCap flight recorder and an SLO evaluator. Its jobs/s
// and B/job against the bare canary are the observers' cost.
func BenchmarkServeObserved(b *testing.B) { benchServe(b, true) }

// benchServe runs the serve canaries: per iteration a fresh server
// over a 2×2×2 cluster, eight submitters of 32 jobs each, then a
// drain. It reports the sustained ingest rate as jobs/s and the bytes
// allocated per job as B/job.
func benchServe(b *testing.B, observed bool) {
	const submitters, perG = 8, 32
	jobs := 0
	var inRun time.Duration
	var bytes uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts := []ClusterOption{
			WithClusterDevices(2),
			WithClusterPartitions(2),
			WithClusterStreams(2),
		}
		var serveOpts []ServeOption
		if observed {
			ev, err := NewSLOEvaluator(SLOSpec{Objectives: []SLOObjective{
				{Tenant: "ta", Name: "ta-latency", Kind: "latency", Target: 0.95, Threshold: Duration(10 * time.Millisecond)},
				{Tenant: "tb", Name: "tb-throughput", Kind: "throughput", Target: 0.9, Floor: 1},
			}})
			if err != nil {
				b.Fatal(err)
			}
			opts = append(opts, WithClusterTelemetry(NewTelemetry()))
			serveOpts = append(serveOpts,
				WithServeExporter(NewOpenMetricsExporter()),
				WithServeFlight(NewFlightRecorder(DefaultFlightCap)),
				WithServeSLO(ev))
		}
		c, err := NewCluster(opts...)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := Serve(c, serveOpts...)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < perG; k++ {
					id := g*perG + k
					job := ClusterJob{
						ID:     id,
						Tenant: "t" + string(rune('a'+id%4)),
						Tasks: []*Task{{
							Cost:       KernelCost{Name: "ingest", Flops: 2e8 + 1e8*float64(id%5)},
							StreamHint: -1,
						}},
						Origin: -1,
					}
					if _, err := srv.Submit(job); err != nil {
						b.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if err := srv.Drain(time.Minute); err != nil {
			b.Fatal(err)
		}
		inRun += time.Since(start)
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		bytes += m1.TotalAlloc - m0.TotalAlloc
		b.StartTimer()
		st := srv.Stats()
		if st.Completed != submitters*perG {
			b.Fatalf("completed %d of %d jobs", st.Completed, submitters*perG)
		}
		jobs += st.Completed
	}
	if sec := inRun.Seconds(); sec > 0 {
		b.ReportMetric(float64(jobs)/sec, "jobs/s")
	}
	if jobs > 0 {
		b.ReportMetric(float64(bytes)/float64(jobs), "B/job")
	}
}

// BenchmarkClusterTraced is BenchmarkClusterAdmission with telemetry
// enabled: the jobs/s delta against the untraced canary is the
// recording overhead (bench/ledger measures it as bench.trace_overhead).
func BenchmarkClusterTraced(b *testing.B) {
	jobs := 0
	var inRun time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rec := NewTelemetry()
		c, err := NewCluster(
			WithClusterDevices(2),
			WithClusterPartitions(2),
			WithClusterStreams(2),
			WithClusterQueueDepth(8),
			WithClusterTelemetry(rec),
		)
		if err != nil {
			b.Fatal(err)
		}
		scenario, err := BuildClusterScenario(c, ClusterScenarioConfig{
			Jobs: 96, Seed: 7, Arrival: "bursty", AffinityFraction: 0.5, Origins: []int{0, 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		r, err := c.Run(scenario)
		inRun += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if rec.Len() == 0 {
			b.Fatal("traced run recorded no events")
		}
		jobs += len(r.Jobs)
	}
	if sec := inRun.Seconds(); sec > 0 {
		b.ReportMetric(float64(jobs)/sec, "jobs/s")
	}
}

func BenchmarkPipelineThroughput(b *testing.B) {
	// End-to-end cost of simulating one 64-task pipelined offload.
	for i := 0; i < b.N; i++ {
		p, err := NewPlatform(WithPartitions(4))
		if err != nil {
			b.Fatal(err)
		}
		buf := AllocVirtual(p, "v", 64<<20, 1)
		var tasks []*Task
		per := buf.Len() / 64
		for t := 0; t < 64; t++ {
			tasks = append(tasks, &Task{
				ID:         t,
				H2D:        []TransferSpec{Xfer(buf, t*per, per)},
				Cost:       KernelCost{Name: "k", Flops: 1e8},
				D2H:        []TransferSpec{Xfer(buf, t*per, per)},
				StreamHint: -1,
			})
		}
		if _, err := RunTasks(p, tasks, 0); err != nil {
			b.Fatal(err)
		}
	}
}
