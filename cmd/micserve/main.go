// Command micserve runs the cluster in service mode: a long-running
// server ingesting jobs concurrently from many submitter goroutines
// through the admission frontier, reporting the sustained ingest rate
// in jobs per second.
//
// Usage:
//
//	micserve -jobs=2000 -submitters=8
//	micserve -jobs=5000 -submitters=16 -rate=50000 -place=affinity -cache=lru
//	micserve -jobs=1000 -verify            # prove the replay bit-identity
//	micserve -serve=:9090 -jobs=100000     # live /metrics, /flight, /stats
//	micserve -slo=objectives.json -serve=:9090   # adds live /slo and /health
//
// Wall-clock time decides only which epoch batch each job lands in;
// the schedule itself runs in virtual time, so -verify can replay the
// recorded admission sequence single-threaded and check the outcome
// stream is bit-identical to what the live server streamed
// (DESIGN.md §15).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"reflect"
	"slices"
	"sync"
	"time"

	"micstream"
)

func main() {
	var (
		place      = flag.String("place", "predicted", "placement policy")
		steal      = flag.Duration("steal", 0, "enable work stealing at this backlog threshold (virtual time); 0 disables")
		slice      = flag.Int("slice", 0, "enable preemptive slicing at this tasks-per-grant cap; 0 dispatches whole jobs")
		cache      = flag.String("cache", "off", "residency cache mode: off, lru")
		cachecap   = flag.Int64("cachecap", 0, "residency cache capacity per device in bytes (0 = unbounded; needs -cache=lru)")
		njobs      = flag.Int("jobs", 2000, "total jobs to ingest")
		submitters = flag.Int("submitters", 8, "concurrent submitter goroutines")
		rate       = flag.Float64("rate", 0, "target aggregate ingest rate in jobs/sec wall-clock; 0 = unthrottled")
		queuecap   = flag.Int("queuecap", 256, "admission frontier capacity")
		batchcap   = flag.Int("batchcap", 0, "max jobs admitted per epoch; 0 = unbounded")
		drain      = flag.Duration("drain", 30*time.Second, "drain deadline (wall-clock)")
		serveAddr  = flag.String("serve", "", "serve live /metrics, /flight and /stats on this address while ingesting")
		sloPath    = flag.String("slo", "", "evaluate SLO objectives from this JSON spec file; adds live /slo and /health to -serve")
		sloOut     = flag.String("slo-json", "", "write the final SLO verdict as SLO JSON to this file (needs -slo)")
		verify     = flag.Bool("verify", false, "after draining, replay the recorded admission sequence single-threaded and check bit-identity")
		list       = flag.Bool("list", false, "list placements and cache modes")
	)
	flag.Parse()

	if *list {
		fmt.Println("placements:", micstream.PlacementNames())
		fmt.Println("caches:", micstream.CacheModeNames())
		return
	}
	switch {
	case *njobs < 1:
		usageError("-jobs must be positive, got %d", *njobs)
	case *submitters < 1:
		usageError("-submitters must be positive, got %d", *submitters)
	case *rate < 0:
		usageError("-rate must be non-negative, got %g", *rate)
	case *queuecap < 1:
		usageError("-queuecap must be positive, got %d", *queuecap)
	case *batchcap < 0:
		usageError("-batchcap must be non-negative, got %d", *batchcap)
	case *steal < 0:
		usageError("-steal must be non-negative, got %v", *steal)
	case *slice < 0:
		usageError("-slice must be non-negative, got %d", *slice)
	case *drain <= 0:
		usageError("-drain must be positive, got %v", *drain)
	}
	if _, err := micstream.PlaceBy(*place); err != nil {
		usageError("-place: %v", err)
	}
	if !slices.Contains(micstream.CacheModeNames(), *cache) {
		usageError("-cache: unknown cache mode %q (have %v)", *cache, micstream.CacheModeNames())
	}
	// Contradictory combos are command-line mistakes, not settings to
	// silently ignore.
	cachecapSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "cachecap" {
			cachecapSet = true
		}
	})
	if cachecapSet && *cache != "lru" {
		usageError("-cachecap needs -cache=lru (cache mode %q ignores it)", *cache)
	}
	if *sloOut != "" && *sloPath == "" {
		usageError("-slo-json needs -slo to declare the objectives")
	}
	// A malformed objective spec is a command-line mistake, refused up
	// front before any ingest starts.
	var sloSpec micstream.SLOSpec
	if *sloPath != "" {
		var err error
		if sloSpec, err = micstream.LoadSLOSpec(*sloPath); err != nil {
			usageError("-slo: %v", err)
		}
	}

	build := func(tel *micstream.Telemetry) (*micstream.Cluster, error) {
		pol, err := micstream.PlaceBy(*place)
		if err != nil {
			return nil, err
		}
		opts := []micstream.ClusterOption{
			micstream.WithClusterDevices(devices),
			micstream.WithClusterPartitions(partitions),
			micstream.WithClusterStreams(streams),
			micstream.WithPlacement(pol),
		}
		if *steal > 0 {
			opts = append(opts, micstream.WithClusterStealing(*steal))
		}
		if *slice > 0 {
			opts = append(opts, micstream.WithClusterSlicing(*slice))
		}
		if *cache == "lru" {
			opts = append(opts, micstream.WithResidency(*cachecap))
		}
		if tel != nil {
			opts = append(opts, micstream.WithClusterTelemetry(tel))
		}
		return micstream.NewCluster(opts...)
	}

	serveOpts := []micstream.ServeOption{
		micstream.WithServeQueueCap(*queuecap),
		micstream.WithServeBatchCap(*batchcap),
	}
	var tel *micstream.Telemetry
	if *serveAddr != "" || *sloPath != "" {
		tel = micstream.NewTelemetry()
	}
	if *serveAddr != "" {
		serveOpts = append(serveOpts,
			micstream.WithServeExporter(micstream.NewOpenMetricsExporter()),
			micstream.WithServeFlight(micstream.NewFlightRecorder(256)))
	}
	var sloEval *micstream.SLOEvaluator
	if *sloPath != "" {
		var err error
		if sloEval, err = micstream.NewSLOEvaluator(sloSpec); err != nil {
			fatal(err)
		}
		serveOpts = append(serveOpts,
			micstream.WithServeSLO(sloEval),
			micstream.WithServeSLOMeta(micstream.SLOMeta{Run: "serve-" + *place, Policy: *place}))
	}
	// Listen before anything is ingested: the line names the bound
	// address (a :0 port resolved), and a busy port fails without it.
	var ln net.Listener
	if *serveAddr != "" {
		var err error
		if ln, err = net.Listen("tcp", *serveAddr); err != nil {
			fatal(err)
		}
	}
	c, err := build(tel)
	if err != nil {
		fatal(err)
	}
	srv, err := micstream.Serve(c, serveOpts...)
	if err != nil {
		fatal(err)
	}
	if ln != nil {
		routes := "/metrics, /flight, /health"
		if sloEval != nil {
			routes += ", /slo"
		}
		fmt.Printf("serving    http://%s/stats (also %s)\n", ln.Addr(), routes)
		go func() {
			if err := srv.Serve(ln); err != nil {
				fmt.Fprintf(os.Stderr, "micserve: http: %v\n", err)
			}
		}()
	}

	var sub *micstream.OutcomeSubscription
	if *verify {
		sub = srv.Subscribe()
	}

	// The ingest driver: -submitters goroutines split -jobs between
	// them, each pacing itself so the aggregate offered rate is
	// -rate (unthrottled when 0). Job content is a pure function of
	// the job id, so the replay check depends only on the recorded
	// batch partition — the one thing wall clock is allowed to decide.
	perSubmitter := time.Duration(0)
	if *rate > 0 {
		perSubmitter = time.Duration(float64(*submitters) / *rate * float64(time.Second))
	}
	var wg sync.WaitGroup
	errc := make(chan error, *submitters)
	wallStart := time.Now()
	for g := 0; g < *submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for id := g; id < *njobs; id += *submitters {
				j := ingestJob(id)
				if sloEval != nil {
					// Deadline-kind objectives stamp their budget onto
					// the job, so scheduler miss accounting and the
					// evaluator judge the same number.
					jobs := []micstream.ClusterJob{j}
					micstream.StampSLODeadlines(jobs, sloSpec)
					j = jobs[0]
				}
				if _, err := srv.Submit(j); err != nil {
					errc <- fmt.Errorf("job %d: %w", id, err)
					return
				}
				if perSubmitter > 0 {
					time.Sleep(perSubmitter)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		fatal(err)
	}
	if err := srv.Drain(*drain); err != nil {
		fatal(err)
	}
	wall := time.Since(wallStart)
	st := srv.Stats()
	r, err := srv.Result()
	if err != nil {
		fatal(err)
	}
	sustained := float64(st.Completed) / wall.Seconds()

	fmt.Printf("ingest     %d jobs, %d submitters, %d epochs\n", st.Completed, *submitters, st.Epochs)
	fmt.Printf("wall       %v (%.1f jobs/sec sustained)\n", wall.Round(time.Millisecond), sustained)
	fmt.Printf("virtual    %v makespan, %.2f GFlop/s\n", r.Makespan, r.GFlops)
	fmt.Printf("placement  %s; %d steals, %d preempts, %d staged jobs (%d MiB)\n",
		r.Placement, r.Steals, r.Preempts, r.StagedJobs, r.StagedBytes>>20)
	if r.Failed > 0 {
		fmt.Printf("failed     %d jobs\n", r.Failed)
	}
	for _, st := range sloStates(sloEval) {
		verdict := "compliant"
		if st.Exhausted {
			verdict = fmt.Sprintf("budget exhausted at %v", st.ExhaustedAt)
		} else if st.Alerting {
			verdict = "burn-rate alert firing"
		}
		fmt.Printf("slo        %s (tenant %s): budget %.2f, %d/%d bad, burn %.1f fast / %.1f slow — %s\n",
			st.Objective.Name, st.Objective.TenantLabel(), st.BudgetRemaining,
			st.Bad, st.Samples, st.BurnFast, st.BurnSlow, verdict)
	}
	if sloEval != nil && *sloOut != "" {
		f, err := os.Create(*sloOut)
		if err != nil {
			fatal(err)
		}
		meta := micstream.SLOMeta{Run: "serve-" + *place, Policy: *place}
		if err := sloEval.WriteJSON(f, meta); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("slo report → %s\n", *sloOut)
	}

	if *verify {
		live := collect(sub)
		replayC, err := build(nil)
		if err != nil {
			fatal(err)
		}
		var replayed []micstream.ClusterOutcome
		if _, err := micstream.ReplayBatches(replayC, srv.Batches(), func(o micstream.ClusterOutcome) {
			replayed = append(replayed, o)
		}); err != nil {
			fatal(fmt.Errorf("replay: %w", err))
		}
		if !reflect.DeepEqual(live, replayed) {
			fatal(fmt.Errorf("replay diverged from the live outcome stream (%d vs %d outcomes)", len(replayed), len(live)))
		}
		fmt.Printf("replay     bit-identical (%d outcomes, %d batches)\n", len(live), len(srv.Batches()))
	}
}

// sloStates returns the evaluator's verdicts, or nothing when SLOs
// are off.
func sloStates(ev *micstream.SLOEvaluator) []micstream.SLOState {
	if ev == nil {
		return nil
	}
	return ev.States()
}

// The served cluster's shape and the ingest mix are fixed.
const (
	devices    = 2
	partitions = 4
	streams    = 2
	tenants    = 4
	xferMiB    = 4 // staged transfer per pinned job
)

// ingestJob builds job id's spec: tenant and cost derive from the id,
// and every fourth job holds its input on a device, the pinned jobs
// taking the devices in turn, so placement weighs staging against
// load.
func ingestJob(id int) micstream.ClusterJob {
	j := micstream.ClusterJob{
		ID:     id,
		Tenant: fmt.Sprintf("t%d", id%tenants),
		Tasks: []*micstream.Task{{
			ID:         0,
			Cost:       micstream.KernelCost{Name: "ingest", Flops: 2e8 + 1e8*float64(id%5)},
			StreamHint: -1,
		}},
		Origin: -1,
	}
	if id%4 == 0 {
		j.Origin = (id / 4) % devices
		j.StagingBytes = xferMiB << 20
	}
	return j
}

func collect(sub *micstream.OutcomeSubscription) []micstream.ClusterOutcome {
	var out []micstream.ClusterOutcome
	for {
		o, ok := sub.Next()
		if !ok {
			return out
		}
		out = append(out, o)
	}
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "micserve: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "micserve:", err)
	os.Exit(1)
}
