// Command miccluster runs the model-driven multi-MIC cluster scheduler
// over a synthetic workload and prints per-device and per-tenant
// accounting: job counts, utilization, staging traffic, throughput and
// latency percentiles.
//
// Usage:
//
//	miccluster -place=predicted -devices=2 -spread=8 -affinity=0.5
//	miccluster -compare -arrival=correlated -seed=7
//	miccluster -steal=1ns -affinity=1 -origins=0 -xfer=8388608 -depth=16
//	miccluster -slice=1 -steal=1ns -policy=sjf -spread=16
//	miccluster -cache=lru -cachecap=67108864 -datasets=4 -place=affinity
//	miccluster -scaling -devices=4
//	miccluster -explain=7 -slice=1 -steal=1ns
//	miccluster -serve=:9100 -metrics-json=metrics.json -drift=DRIFT_run.json
//	miccluster -flight=flight.txt -flight-p95=5ms
//	miccluster -slo=objectives.json -slo-json=SLO_run.json
//	miccluster -list
//
// Placement policies: least-loaded (fewest committed jobs),
// round-robin (rotate devices), predicted (earliest model-predicted
// completion including the cross-device staging term — the policy the
// placement experiment shows winning on imbalanced mixes), affinity
// (predicted's scores, near-ties broken toward the device already
// holding the job's tiles — needs -cache=lru to differ). -steal
// enables drain-instant work stealing: an idle device re-binds
// committed jobs from a device whose backlog exceeds the threshold
// when the predicted completion (staging re-charged) improves. -slice
// enables preemptive job slicing: a stream grant dispatches at most
// that many tasks and the remainder re-enters the device queue at the
// slice boundary, where a size-aware -policy (sjf, adaptive) lets
// light jobs overtake it and -steal extends to dispatched jobs — an
// idle device migrates the remainder mid-job, re-pricing staging for
// only the tasks it still needs.
// -cache=lru enables the device-resident staging cache: -datasets
// makes device-resident jobs cycle through shared inputs, repeats
// stage only their cold misses, and -cachecap bounds the per-device
// cache (LRU-evicted at drain instants; -writefrac makes some jobs
// overwrite their dataset, invalidating cached copies). -compare runs
// every placement on the same workload side by side; -scaling prints
// a Fig. 11-style table of 1..devices GFLOPS through the scheduler.
//
// The explanation flags replay the run's telemetry: -explain=<job>
// prints that job's causal timeline (place-wait, commit-wait, exec,
// slice-wait, migration — the phases sum exactly to its latency) plus
// per-tenant and per-device where-time-goes tables; -drift writes the
// model-drift audit (predicted vs realised completion and slice
// estimates) as DRIFT JSON; -metrics-json dumps the drain-instant
// snapshot series machine-readably; -flight writes a flight-recorder
// report (the last events before each job failure or, with
// -flight-p95, each tenant's first p95 breach); -serve exposes the
// final metrics at /metrics in OpenMetrics text format after the run
// (with -slo, the mic_slo_* families too).
// -slo evaluates a JSON objective spec (per-tenant latency targets,
// deadline miss budgets, throughput floors — DESIGN.md §16) over the
// run's telemetry: error budgets and multi-window burn rates update at
// every drain instant, violations are attributed to their dominant
// causal phase, budget exhaustion triggers the -flight recorder, and
// -slo-json writes the byte-deterministic SLO report.
// Observers never perturb the schedule: a run with every explanation
// flag on is bit-identical to the bare run. Every run is a pure
// function of its flags.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"micstream"
)

func main() {
	var (
		devices    = flag.Int("devices", 2, "coprocessor count")
		place      = flag.String("place", "predicted", "placement policy: least-loaded, round-robin, predicted, affinity")
		policy     = flag.String("policy", "fifo", "per-device stream policy: fifo, rr, sjf, adaptive")
		depth      = flag.Int("depth", 8, "per-device committed-queue depth")
		steal      = flag.Duration("steal", 0, "work-stealing backlog threshold (e.g. 1ms; 1ns steals on any backlog); 0 disables")
		slice      = flag.Int("slice", 0, "max tasks one stream grant dispatches (preemptive job slicing); 0 dispatches whole jobs")
		staging    = flag.Float64("staging", 0, "staging factor override (0 = default 2x)")
		cache      = flag.String("cache", "off", "residency cache mode: off, lru (device-resident staging cache; off-origin jobs stage cold misses only)")
		cachecap   = flag.Int64("cachecap", 64<<20, "per-device residency cache capacity in bytes (0 = unbounded; needs -cache=lru)")
		datasets   = flag.Int("datasets", 0, "shared datasets device-resident jobs cycle through (0 = private inputs, nothing for the cache to reuse)")
		writefrac  = flag.Float64("writefrac", 0, "fraction of dataset jobs that overwrite their region, invalidating cached copies (needs -datasets)")
		njobs      = flag.Int("njobs", 48, "job count")
		spread     = flag.Float64("spread", 4, "geometric job-size spread (1 = identical jobs)")
		affinity   = flag.Float64("affinity", 0.25, "fraction of jobs with device-resident inputs")
		xfer       = flag.Int64("xfer", 1<<20, "per-job transfer (and staging) volume in bytes")
		origins    = flag.String("origins", "", "comma-separated devices affine jobs cycle through (default: all devices; e.g. -origins=0 pins all inputs to device 0)")
		arrival    = flag.String("arrival", "poisson", "arrival process: poisson, bursty, heavytail, diurnal, correlated")
		seed       = flag.Uint64("seed", 1, "scenario seed")
		jobs       = flag.Bool("jobs", false, "also print every job's lifecycle")
		compare    = flag.Bool("compare", false, "run every placement policy on the same workload")
		scaling    = flag.Bool("scaling", false, "print a Fig. 11-style 1..devices scaling table")
		list       = flag.Bool("list", false, "list placement policies, stream policies, and arrival processes")
		traceOut   = flag.String("trace", "", "write the run as Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
		metrics    = flag.Bool("metrics", false, "print the drain-instant metrics snapshots")
		explain    = flag.Int("explain", -1, "print the causal timeline for this job index plus where-time-goes tables (-1 disables)")
		serve      = flag.String("serve", "", "after the run, serve the final metrics at this address in OpenMetrics text format (e.g. :9100)")
		metricsOut = flag.String("metrics-json", "", "write the drain-instant metrics snapshots as JSON to this file")
		driftOut   = flag.String("drift", "", "write the model-drift audit (predicted vs realised) as DRIFT JSON to this file")
		flightOut  = flag.String("flight", "", "write a flight-recorder report (events preceding failures / p95 breaches) to this file")
		flightCap  = flag.Int("flight-cap", micstream.DefaultFlightCap, "flight-recorder ring capacity in events")
		flightP95  = flag.Duration("flight-p95", 0, "flight-recorder trigger: dump on a tenant's first p95 over this (virtual time); 0 disables")
		sloPath    = flag.String("slo", "", "evaluate SLO objectives from this JSON spec file over the run's telemetry")
		sloOut     = flag.String("slo-json", "", "write the SLO verdict as SLO JSON to this file (needs -slo)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println("placements:", micstream.PlacementNames())
		fmt.Println("policies:  ", micstream.PolicyNames())
		fmt.Println("arrivals:  ", micstream.ArrivalNames())
		fmt.Println("caches:    ", micstream.CacheModeNames())
		return
	}
	switch {
	case *devices < 1:
		usageError("-devices must be positive, got %d", *devices)
	case *njobs < 1:
		usageError("-njobs must be positive, got %d", *njobs)
	case *depth < 1:
		usageError("-depth must be positive, got %d", *depth)
	case *steal < 0:
		usageError("-steal must be non-negative, got %v", *steal)
	case *slice < 0:
		usageError("-slice must be non-negative, got %d", *slice)
	case *staging < 0:
		usageError("-staging must be non-negative, got %g", *staging)
	case *cachecap < 0:
		usageError("-cachecap must be non-negative, got %d", *cachecap)
	case *datasets < 0:
		usageError("-datasets must be non-negative, got %d", *datasets)
	case *writefrac < 0 || *writefrac > 1:
		usageError("-writefrac must be in [0,1], got %g", *writefrac)
	case *spread < 1:
		usageError("-spread must be at least 1, got %g", *spread)
	case *affinity < 0 || *affinity > 1:
		usageError("-affinity must be in [0,1], got %g", *affinity)
	case *xfer < 1:
		usageError("-xfer must be positive, got %d", *xfer)
	}
	// Name-valued flags fail up front with a usage error instead of
	// deep inside a run: an unknown policy or arrival process is a
	// command-line mistake, not a runtime failure.
	if _, err := micstream.PlaceBy(*place); err != nil && !*compare {
		usageError("-place: %v", err)
	}
	if _, err := micstream.PolicyByName(*policy); err != nil {
		usageError("-policy: %v", err)
	}
	if !slices.Contains(micstream.ArrivalNames(), *arrival) {
		usageError("-arrival: unknown arrival process %q (have %v)", *arrival, micstream.ArrivalNames())
	}
	if !slices.Contains(micstream.CacheModeNames(), *cache) {
		usageError("-cache: unknown cache mode %q (have %v)", *cache, micstream.CacheModeNames())
	}
	origin, err := parseOrigins(*origins, *devices)
	if err != nil {
		usageError("-origins: %v", err)
	}
	// Contradictory combos are command-line mistakes, not settings to
	// silently ignore: a flag whose effect depends on a mode demands
	// that mode, and a per-run report clashes with the multi-run views.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["cachecap"] && *cache != "lru" {
		usageError("-cachecap needs -cache=lru (cache mode %q ignores it)", *cache)
	}
	if *writefrac > 0 && *datasets < 1 {
		usageError("-writefrac needs -datasets: without shared datasets no job has a region to overwrite")
	}
	if explicit["flight-cap"] && *flightOut == "" {
		usageError("-flight-cap sizes the flight-recorder ring; it needs -flight")
	}
	if *jobs && (*compare || *scaling) {
		usageError("-jobs prints one run's lifecycles; drop -compare/-scaling")
	}
	if *metrics && *scaling {
		usageError("-metrics snapshots one scheduler run; drop -scaling")
	}
	if *traceOut != "" && (*compare || *scaling) {
		usageError("-trace records one run; drop -compare/-scaling")
	}
	if *sloOut != "" && *sloPath == "" {
		usageError("-slo-json needs -slo to declare the objectives")
	}
	if *sloPath != "" && (*compare || *scaling) {
		usageError("-slo judges one run's objectives; drop -compare/-scaling")
	}
	// The spec file is parsed and validated up front: a malformed
	// objective is a command-line mistake, not a runtime failure.
	var sloSpec micstream.SLOSpec
	if *sloPath != "" {
		if sloSpec, err = micstream.LoadSLOSpec(*sloPath); err != nil {
			usageError("-slo: %v", err)
		}
	}
	explaining := *explain >= 0 || *serve != "" || *metricsOut != "" || *driftOut != "" || *flightOut != "" || *sloPath != ""
	if explaining && (*compare || *scaling) {
		usageError("-explain/-serve/-metrics-json/-drift/-flight describe one run; drop -compare/-scaling")
	}
	if *explain < -1 || *explain >= *njobs {
		usageError("-explain: job index %d out of range [0,%d)", *explain, *njobs)
	}
	if *flightCap < 1 {
		usageError("-flight-cap must be positive, got %d", *flightCap)
	}
	if *flightP95 < 0 {
		usageError("-flight-p95 must be non-negative, got %v", *flightP95)
	}
	if *flightP95 > 0 && *flightOut == "" {
		usageError("-flight-p95 needs -flight to write the report somewhere")
	}
	// Output-path flags fail up front with a usage error: an unwritable
	// profile or trace path is a command-line mistake, and discovering
	// it after the run would discard the work.
	var traceFile *os.File
	if *traceOut != "" {
		if traceFile, err = os.Create(*traceOut); err != nil {
			usageError("-trace: %v", err)
		}
	}
	create := func(flagName, path string) *os.File {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			usageError("-%s: %v", flagName, err)
		}
		return f
	}
	metricsFile := create("metrics-json", *metricsOut)
	driftFile := create("drift", *driftOut)
	flightFile := create("flight", *flightOut)
	sloFile := create("slo-json", *sloOut)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			usageError("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			usageError("-cpuprofile: %v", err)
		}
	}
	var memOut *os.File
	if *memprofile != "" {
		if memOut, err = os.Create(*memprofile); err != nil {
			usageError("-memprofile: %v", err)
		}
	}
	finish := func() {
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		if memOut != nil {
			runtime.GC()
			if err := pprof.WriteHeapProfile(memOut); err != nil {
				fatal(err)
			}
			if err := memOut.Close(); err != nil {
				fatal(err)
			}
		}
	}

	cf := clusterFlags{
		devices: *devices, policy: *policy, depth: *depth, steal: *steal, slice: *slice,
		staging: *staging, cache: *cache, cachecap: *cachecap,
		scenario: micstream.ClusterScenarioConfig{
			Jobs: *njobs, Seed: *seed, Arrival: *arrival,
			WindowNs: arrivalWindow.Nanoseconds(), Tenants: tenants,
			SizeSpread: *spread, AffinityFraction: *affinity,
			Datasets: *datasets, WriteFraction: *writefrac,
			XferBytes: *xfer, Origins: origin,
		},
	}
	if *scaling {
		runScaling(cf)
		finish()
		return
	}

	// -serve describes one run, so at most one exporter is served, and
	// only after the profiles are written: serving blocks until killed.
	var exporter *micstream.OpenMetricsExporter
	places := []string{*place}
	if *compare {
		places = micstream.PlacementNames()
	}
	for i, name := range places {
		if i > 0 {
			fmt.Println()
		}
		// One recorder per run: with -compare each policy's snapshots
		// stay separate instead of accumulating into one timeline.
		var rec *micstream.Telemetry
		if traceFile != nil || *metrics || explaining {
			rec = micstream.NewTelemetry()
		}
		// Live observers ride the recorder's hooks; they are pure
		// consumers, so the schedule is bit-identical with them on.
		stack := &micstream.Observers{}
		if *serve != "" {
			stack.Exporter = micstream.NewOpenMetricsExporter()
		}
		if flightFile != nil {
			stack.Flight = micstream.NewFlightRecorder(*flightCap)
			stack.Flight.SetP95Threshold(micstream.Duration((*flightP95).Nanoseconds()))
		}
		var specPtr *micstream.SLOSpec
		if *sloPath != "" {
			if stack.SLO, err = micstream.NewSLOEvaluator(sloSpec); err != nil {
				fatal(err)
			}
			specPtr = &sloSpec
		}
		stack.Attach(rec)
		r, c := runOnce(name, cf, rec, specPtr)
		printResult(r, name, *arrival, *seed, *cache != "off", *jobs)
		if *metrics {
			printMetrics(c.Metrics())
		}
		if traceFile != nil {
			if err := c.Trace(traceFile); err != nil {
				fatal(err)
			}
			if err := traceFile.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("\ntrace: %d events, %d snapshots → %s\n", rec.Len(), len(c.Metrics()), *traceOut)
		}
		if *explain >= 0 {
			explainJob(rec, *explain)
		}
		if metricsFile != nil {
			writeAndClose(metricsFile, *metricsOut, "metrics", func(f *os.File) error {
				return micstream.WriteMetricsJSON(f, c.Metrics())
			})
		}
		if driftFile != nil {
			meta := micstream.DriftMeta{Run: fmt.Sprintf("%s-%s-%d", name, *arrival, *seed),
				Seed: int64(*seed), Placement: name, TransferScale: 1, ComputeScale: 1}
			if m := c.PricingModel(); m != nil {
				meta.TransferScale, meta.ComputeScale = m.Calibration()
			}
			writeAndClose(driftFile, *driftOut, "drift audit", func(f *os.File) error {
				return micstream.WriteDriftJSON(f, micstream.AuditDrift(rec.Events()), meta)
			})
		}
		if flightFile != nil {
			writeAndClose(flightFile, *flightOut, "flight report", func(f *os.File) error {
				return stack.Flight.WriteText(f)
			})
		}
		if stack.SLO != nil {
			printSLO(stack.SLO)
			if sloFile != nil {
				meta := micstream.SLOMeta{Run: fmt.Sprintf("%s-%s-%d", name, *arrival, *seed),
					Seed: int64(*seed), Policy: name}
				writeAndClose(sloFile, *sloOut, "slo report", func(f *os.File) error {
					return stack.SLO.WriteJSON(f, meta)
				})
			}
		}
		exporter = stack.Exporter
	}
	finish()
	if exporter != nil {
		// Listen before announcing: the line names the bound address
		// (a :0 port resolved), and a busy port fails without it.
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nserving OpenMetrics at http://%s/metrics (interrupt to stop)\n", ln.Addr())
		if err := exporter.Serve(ln); err != nil {
			fatal(err)
		}
	}
}

// writeAndClose renders one explanation artifact and reports where it
// went; a failed write is fatal, not a usage error — the run already
// happened.
func writeAndClose(f *os.File, path, what string, render func(*os.File) error) {
	if err := render(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s → %s\n", what, path)
}

// explainJob folds the run's event log into per-job causal timelines
// and prints the requested job's phase breakdown — the five phases sum
// exactly to its latency — followed by the per-tenant and per-device
// where-time-goes tables.
func explainJob(rec *micstream.Telemetry, job int) {
	timelines := micstream.FoldTimelines(rec.Events())
	var target *micstream.JobTimeline
	for i := range timelines {
		if timelines[i].Job == job {
			target = &timelines[i]
			break
		}
	}
	if target == nil {
		fatal(fmt.Errorf("-explain: job index %d not present in the run's event log", job))
	}
	fmt.Println()
	if err := micstream.WriteTimeline(os.Stdout, target); err != nil {
		fatal(err)
	}
	fmt.Println()
	if err := micstream.WriteTimelineBreakdowns(os.Stdout, "where time goes, by tenant", micstream.TimelinesByTenant(timelines)); err != nil {
		fatal(err)
	}
	fmt.Println()
	if err := micstream.WriteTimelineBreakdowns(os.Stdout, "where time goes, by device", micstream.TimelinesByDevice(timelines)); err != nil {
		fatal(err)
	}
}

// clusterFlags holds the validated flags: the cluster's shape and
// scheduler knobs, and the scenario the single-run modes build.
type clusterFlags struct {
	devices  int
	policy   string
	depth    int
	steal    time.Duration
	slice    int
	staging  float64
	cache    string
	cachecap int64
	scenario micstream.ClusterScenarioConfig
}

// The device shape and the mix's arrival window and tenant count are
// fixed: every run, golden and CI step uses these.
const (
	partitions    = 2
	streams       = 2
	arrivalWindow = 20 * time.Millisecond
	tenants       = 4
)

// options builds the cluster configuration the flags declare on devs
// devices: everything but placement and telemetry, which only the
// single-run modes set. Flag names were validated in main; the policy
// factory runs once per device after validation cannot fail.
func (f clusterFlags) options(devs int) []micstream.ClusterOption {
	opts := []micstream.ClusterOption{
		micstream.WithClusterDevices(devs),
		micstream.WithClusterPartitions(partitions),
		micstream.WithClusterStreams(streams),
		micstream.WithClusterQueueDepth(f.depth),
		micstream.WithClusterDevicePolicy(func() micstream.SchedPolicy {
			p, err := micstream.PolicyByName(f.policy)
			if err != nil {
				fatal(err)
			}
			return p
		}),
	}
	if f.steal > 0 {
		opts = append(opts, micstream.WithClusterStealing(f.steal))
	}
	if f.slice > 0 {
		opts = append(opts, micstream.WithClusterSlicing(f.slice))
	}
	if f.staging > 0 {
		opts = append(opts, micstream.WithClusterStagingFactor(f.staging))
	}
	if f.cache == "lru" {
		opts = append(opts, micstream.WithResidency(f.cachecap))
	}
	return opts
}

// runOnce builds a fresh cluster and runs the configured scenario,
// returning the result and the cluster (for its telemetry accessors).
// A non-nil sloSpec stamps its deadline-kind thresholds onto the
// matching tenants' jobs before the run, so scheduler miss accounting
// and the evaluator judge the same budget.
func runOnce(place string, f clusterFlags, rec *micstream.Telemetry, sloSpec *micstream.SLOSpec) (*micstream.ClusterResult, *micstream.Cluster) {
	pol, err := micstream.PlaceBy(place)
	if err != nil {
		fatal(err)
	}
	opts := append(f.options(f.devices), micstream.WithPlacement(pol))
	if rec != nil {
		opts = append(opts, micstream.WithClusterTelemetry(rec))
	}
	c, err := micstream.NewCluster(opts...)
	if err != nil {
		fatal(err)
	}
	scenario, err := micstream.BuildClusterScenario(c, f.scenario)
	if err != nil {
		fatal(err)
	}
	if sloSpec != nil {
		micstream.StampSLODeadlines(scenario, *sloSpec)
	}
	r, err := c.Run(scenario)
	if err != nil {
		fatal(err)
	}
	return r, c
}

// printResult renders one run: header, residency accounting when the
// cache is on, per-device table, per-tenant table, and optionally
// every job.
func printResult(r *micstream.ClusterResult, place, arrival string, seed uint64, cached, perJob bool) {
	var kernU, linkU float64
	for _, ds := range r.Devices {
		kernU += ds.KernelUtilization
		linkU += ds.LinkUtilization
	}
	if n := float64(len(r.Devices)); n > 0 {
		kernU /= n
		linkU /= n
	}
	fmt.Printf("placement=%s arrival=%s seed=%d: %d jobs over %d devices, makespan %v, %d staged (%d MB), %d stolen (%d mid-job), kernel %.0f%% link %.0f%%\n",
		place, arrival, seed, len(r.Jobs), len(r.Devices), r.Makespan, r.StagedJobs, r.StagedBytes>>20, r.Steals, r.Preempts, kernU*100, linkU*100)
	if cached {
		fmt.Printf("residency: %d MB hit, %d MB cold-missed, %d MB evicted\n",
			r.HitBytes>>20, r.MissBytes>>20, r.EvictedBytes>>20)
	}
	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "device\tjobs\tstaged\tbusy\tutilization\tkernel\tlink")
	for _, ds := range r.Devices {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%v\t%.0f%%\t%.0f%%\t%.0f%%\n",
			ds.Device, ds.Jobs, ds.Staged, ds.Busy, ds.Utilization*100, ds.KernelUtilization*100, ds.LinkUtilization*100)
	}
	tw.Flush()
	fmt.Println()
	tw = tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "tenant\tjobs\tthrpt[job/s]\tp50\tp95\tp99\tslowdown")
	for _, ts := range r.Tenants {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%v\t%v\t%v\t%.2f\n",
			ts.Tenant, ts.Jobs, ts.Throughput, ts.P50, ts.P95, ts.P99, ts.MeanSlowdown)
	}
	tw.Flush()

	if perJob {
		fmt.Println()
		tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "job\ttenant\torigin\tdevice\tstream\tslices\tstaged\tstolen\tarrival\tplaced\tstart\tdone\tlatency")
		for _, o := range r.Jobs {
			stolen := "-"
			if o.Stolen {
				stolen = fmt.Sprintf("%d→%d@%v", o.StolenFrom, o.Device, o.StolenAt)
			}
			if n := len(o.Migrations); n > 0 {
				stolen += fmt.Sprintf(" (%d mid-job)", n)
			}
			fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%d\t%v\t%s\t%v\t%v\t%v\t%v\t%v\n",
				o.ID, o.Tenant, o.Origin, o.Device, o.Stream, o.Slices, o.Staged, stolen, o.Arrival, o.Placed, o.Start, o.Done, o.Latency())
		}
		tw.Flush()
	}
}

// printSLO renders each objective's final verdict: sample counts,
// breaches, remaining error budget, burn rates, and the alert and
// exhaustion instants (virtual time).
func printSLO(ev *micstream.SLOEvaluator) {
	fmt.Println()
	fmt.Println("slo verdicts (error budgets and burn rates at the final drain instant)")
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "objective\ttenant\tkind\tsamples\tbad\tbudget\tburn-fast\tburn-slow\tfirst-alert\texhausted")
	for _, st := range ev.States() {
		firstAlert, exhausted := "-", "-"
		if st.FirstAlertAt > 0 {
			firstAlert = st.FirstAlertAt.String()
		}
		if st.Exhausted {
			exhausted = st.ExhaustedAt.String()
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%.2f\t%.1f\t%.1f\t%s\t%s\n",
			st.Objective.Name, st.Objective.TenantLabel(), st.Objective.Kind,
			st.Samples, st.Bad, st.BudgetRemaining, st.BurnFast, st.BurnSlow,
			firstAlert, exhausted)
	}
	tw.Flush()
}

// printMetrics renders the drain-instant metrics time series: the
// final snapshot's device and tenant state, preceded by a compact
// trajectory of cluster-wide counters.
func printMetrics(snaps []micstream.MetricsSnapshot) {
	fmt.Println()
	if len(snaps) == 0 {
		fmt.Println("metrics: no snapshots recorded")
		return
	}
	last := snaps[len(snaps)-1]
	fmt.Printf("metrics: %d drain-instant snapshots, final at %v (done %d, steals %d, fairness %.3f)\n\n",
		len(snaps), last.At, last.Done, last.Steals, last.Fairness)
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "device\tqueued\tinflight\tbacklog\tkernel\tlink\tstaged[MB]\tresident[MB]")
	for _, d := range last.Devices {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%v\t%.0f%%\t%v\t%d\t%d\n",
			d.Device, d.Queued, d.InFlight, d.Backlog, d.Utilization*100, d.LinkBusy, d.StagedBytes>>20, d.ResidentBytes>>20)
	}
	tw.Flush()
	fmt.Println()
	tw = tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "tenant\tdone\tthrpt[job/s]\tmean\tp95")
	for _, t := range last.Tenants {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%v\t%v\n", t.Tenant, t.Done, t.Throughput, t.MeanLatency, t.P95)
	}
	tw.Flush()
}

// runScaling prints the Fig. 11-style table: the same device-0-resident
// bag of jobs on 1..devices MICs under predicted placement. The
// workload *shape* is fixed by the mode (identical 6-GFLOP jobs, all
// resident on device 0, arriving at once) so the only variable down
// the rows is the device count. -njobs, -xfer, -seed and the cluster
// flags (-staging, -policy, -depth, -steal, -slice, -cache) are
// honoured; the mix-shaping flags (-spread, -affinity, -arrival,
// -origins, -datasets, -writefrac) do not apply here.
func runScaling(f clusterFlags) {
	fmt.Printf("multi-MIC scaling through the cluster scheduler (predicted placement, %d identical jobs resident on device 0)\n\n", f.scenario.Jobs)
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "devices\tmakespan\tGFLOPS\tspeedup\tprojected\tstaged")
	// Powers of two up to the requested count, always including the
	// requested count itself (so -devices=3 gets its own row).
	counts := []int{1}
	for d := 2; d < f.devices; d *= 2 {
		counts = append(counts, d)
	}
	if f.devices > 1 {
		counts = append(counts, f.devices)
	}
	var base float64
	for _, devs := range counts {
		c, err := micstream.NewCluster(f.options(devs)...)
		if err != nil {
			fatal(err)
		}
		scenario, err := micstream.BuildClusterScenario(c, micstream.ClusterScenarioConfig{
			Jobs:             f.scenario.Jobs,
			Seed:             f.scenario.Seed,
			SizeSpread:       1,
			AffinityFraction: 1,
			Origins:          []int{0},
			KernelFlops:      6e9,
			XferBytes:        f.scenario.XferBytes,
			WindowNs:         1_000_000,
		})
		if err != nil {
			fatal(err)
		}
		r, err := c.Run(scenario)
		if err != nil {
			fatal(err)
		}
		if devs == 1 {
			base = r.GFlops
		}
		fmt.Fprintf(tw, "%d\t%v\t%.1f\t%.2fx\t%.2fx\t%d\n",
			devs, r.Makespan, r.GFlops, r.GFlops/base, float64(devs), r.StagedJobs)
	}
	tw.Flush()
	fmt.Println("\nspeedup lands above 1x but below the projection: every off-origin job")
	fmt.Println("re-stages its input through the host, the Fig. 11 shortfall (paper §VI).")
	fmt.Println("raise -xfer or -staging to deepen the shortfall; -spread/-affinity/")
	fmt.Println("-arrival/-datasets shape the mix modes only, not this table (the scaling")
	fmt.Println("bag gives every job a private input, so -cache=lru has nothing to reuse).")
}

// parseOrigins parses the -origins flag: a comma-separated device
// list, each in [0, devices). Empty means every device in order.
func parseOrigins(s string, devices int) ([]int, error) {
	if s == "" {
		out := make([]int, devices)
		for d := range out {
			out[d] = d
		}
		return out, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad device %q", part)
		}
		if d < 0 || d >= devices {
			return nil, fmt.Errorf("device %d out of range [0,%d)", d, devices)
		}
		out = append(out, d)
	}
	return out, nil
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "miccluster: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "miccluster:", err)
	os.Exit(1)
}
