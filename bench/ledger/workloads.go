package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"micstream"
)

// sizes fixes how much work each round does. fullSizes is what the
// benchmark runs; the tests use tiny ones.
type sizes struct {
	serveJobs     int      // jobs per serve-ingest round
	observedJobs  int      // jobs per serve-observed round
	clusterJobs   int      // jobs per cluster-contended round
	ladderJobs    int      // jobs fed to each ladder rung
	ladderObserve int      // jobs fed to the observers rung
	tables        []string // paper tables to regenerate, in digest order
	digest        string   // their expected SHA-256; empty skips the check
}

//go:embed testdata/paper_tables.sha256
var paperDigest string

var fullSizes = sizes{
	serveJobs:     10_000,
	observedJobs:  10_000,
	clusterJobs:   5_000,
	ladderJobs:    50_000,
	ladderObserve: 10_000,
	tables:        paperTableIDs(),
	digest:        strings.TrimSpace(paperDigest),
}

// paperTables are the paper's 23 evaluation tables in figure order,
// each with the experiments.* group its host time is charged to.
var paperTables = []struct{ id, group string }{
	{"fig5", "micro"}, {"fig6", "micro"}, {"fig7", "micro"},
	{"fig8a", "apps"}, {"fig8b", "apps"}, {"fig8c", "apps"}, {"fig8d", "apps"}, {"fig8e", "apps"}, {"fig8f", "apps"},
	{"fig9a", "partitions"}, {"fig9b", "partitions"}, {"fig9c", "partitions"}, {"fig9d", "partitions"}, {"fig9e", "partitions"}, {"fig9f", "partitions"},
	{"fig10a", "tiles"}, {"fig10b", "tiles"}, {"fig10c", "tiles"}, {"fig10d", "tiles"}, {"fig10e", "tiles"}, {"fig10f", "tiles"},
	{"fig11", "multimic"},
	{"heuristics", "heuristics"},
}

var tableGroups = []string{"micro", "apps", "partitions", "tiles", "multimic", "heuristics"}

func paperTableIDs() []string {
	ids := make([]string, len(paperTables))
	for i, t := range paperTables {
		ids[i] = t.id
	}
	return ids
}

func tableGroup(id string) string {
	for _, t := range paperTables {
		if t.id == id {
			return t.group
		}
	}
	return "other"
}

// ledger runs workloads at one size and seed. Round r draws its inputs
// from stream firstRound+r of the seed, so the child processes of one
// run measure different inputs.
type ledger struct {
	sz         sizes
	seed       uint64
	firstRound int
	heap       *heapSampler
	// startup is how long this process took from its start by the parent
	// to main: process creation, runtime and package initialization. It
	// is 0 when the ledger runs in process.
	startup time.Duration
}

func newLedger(sz sizes, seed uint64, firstRound int) *ledger {
	return &ledger{sz: sz, seed: seed, firstRound: firstRound, heap: startHeapSampler()}
}

func (l *ledger) rng(round int) *rand.Rand { return newRNG(l.seed, l.firstRound+round) }

func (l *ledger) workload(name string, budget time.Duration) *report {
	switch name {
	case "paper-figures":
		return l.paperFigures(budget)
	case "serve-ingest":
		return l.serve(budget, false)
	case "serve-observed":
		return l.serve(budget, true)
	case "cluster-contended":
		return l.clusterContended(budget)
	}
	return &report{errs: []error{fmt.Errorf("unknown workload %q", name)}}
}

// setupReps is how many times a round sets up. The round runs on the
// last set-up, and setup_s is the median over all of them: single
// set-ups range from 0.5 to 3.4 ms at random, and serve-observed fits
// only three rounds in a process, too few for a steady median.
const setupReps = 5

// timeSetups times setup setupReps times, calling discard before each
// repeat to release the previous one, and returns the times in seconds.
// Each set-up starts from a collected heap with the collector paused. A
// collected heap sits at the runtime's 4 MiB floor, where a set-up's
// own allocations start a cycle in some rounds and not in others; that
// doubled the set-up time at random. The cycle they would start runs
// instead in the forced collection that begins the measured part of the
// round (startMeter).
func timeSetups(setup, discard func() error) ([]float64, error) {
	times := make([]float64, setupReps)
	for k := range times {
		if k > 0 && discard != nil {
			if err := discard(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		t := time.Now()
		err := setup()
		times[k] = time.Since(t).Seconds()
		debug.SetGCPercent(gcPercent)
		if err != nil {
			return nil, err
		}
	}
	return times, nil
}

// rounds calls fn for round 0, 1, … while one more round, judged by the
// longest so far, still fits in the budget — but at least once. It
// stops at the first error, which it records in rep.
func (l *ledger) rounds(rep *report, budget time.Duration, fn func(round int) error) {
	start := time.Now()
	var longest time.Duration
	for r := 0; r == 0 || time.Since(start)+longest <= budget; r++ {
		t := time.Now()
		err := fn(r)
		rep.rounds = r + 1
		if err != nil {
			rep.check(fmt.Errorf("round %d: %w", r, err))
			return
		}
		longest = max(longest, time.Since(t))
	}
}

// --- paper-figures ---------------------------------------------------

// paperRound is one regeneration of the configured tables.
type paperRound struct {
	wall     time.Duration            // the tables' host times added up
	times    map[string]time.Duration // host time per table
	rendered map[string][]byte
	stats    roundStats
}

// paperOrder is the paper-figures set-up: every id resolved against
// the experiment registry, then grouped into jobs, one per
// experiments.* group, with the jobs and each job's tables in seeded
// order. The seed only shuffles the order; the tables take no inputs.
func paperOrder(rng *rand.Rand, ids []string) ([][]string, error) {
	known := micstream.ExperimentIDs()
	byGroup := map[string][]string{}
	for _, id := range ids {
		if _, ok := slices.BinarySearch(known, id); !ok {
			return nil, fmt.Errorf("no experiment %q", id)
		}
		byGroup[tableGroup(id)] = append(byGroup[tableGroup(id)], id)
	}
	var jobs [][]string
	for _, g := range tableGroups {
		if job := byGroup[g]; len(job) > 0 {
			rng.Shuffle(len(job), func(i, j int) { job[i], job[j] = job[j], job[i] })
			jobs = append(jobs, job)
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// regenerate renders the jobs' tables in order. Each table starts from
// a collected heap, so no table pays for the garbage of the one before
// it, which the seeded order would otherwise make vary.
func (l *ledger) regenerate(jobs [][]string) (paperRound, error) {
	pr := paperRound{times: map[string]time.Duration{}, rendered: map[string][]byte{}}
	m := startMeter(l.heap)
	for _, id := range slices.Concat(jobs...) {
		runtime.GC()
		var buf bytes.Buffer
		t := time.Now()
		err := micstream.RunExperiment(id, &buf)
		d := time.Since(t)
		if err != nil {
			return pr, fmt.Errorf("table %s: %w", id, err)
		}
		pr.times[id] = d
		pr.wall += d
		pr.rendered[id] = buf.Bytes()
	}
	pr.stats = m.stop()
	return pr, nil
}

// groupSeconds is the host time spent in each experiments.* group.
func (pr paperRound) groupSeconds() map[string]float64 {
	sums := map[string]float64{}
	for id, d := range pr.times {
		sums[tableGroup(id)] += d.Seconds()
	}
	return sums
}

// tablesDigest is the SHA-256 of the rendered tables concatenated in
// ids order.
func tablesDigest(ids []string, rendered map[string][]byte) string {
	h := sha256.New()
	for _, id := range ids {
		h.Write(rendered[id])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkDigest(got, want string) error {
	if got != want {
		return fmt.Errorf("paper tables digest %s, want %s", got, want)
	}
	return nil
}

// paperFigures regenerates every table once per round. A job is one
// experiments.* group (Figs. 5–7, 8, 9, 10, 11 and the heuristics
// table), as a reader regenerates one figure's panels: jobs_per_s is
// groups per second of a whole pass, and the latency percentiles pool
// the groups' times, so the median falls between the heuristics and
// tiles groups (0.5–1 s each) and p99 reads the apps group (Fig. 8,
// 1.8–2.6 s). Single tables made a poor job: the median of 23 fell
// among 15–60 ms tables whose times swing ±40% from one process to the
// next. The tables take no inputs, so the set-up a reader pays is
// starting the program — process creation, runtime and package
// initialization — and drawing the order; it is timed once per process.
func (l *ledger) paperFigures(budget time.Duration) *report {
	rep := &report{}
	ids := l.sz.tables
	var setup, lat, rate, peak []float64
	groups := map[string][]float64{}
	l.rounds(rep, budget, func(r int) error {
		t := time.Now()
		jobs, err := paperOrder(l.rng(r), ids)
		if err != nil {
			return err
		}
		if r == 0 {
			setup = append(setup, (l.startup + time.Since(t)).Seconds())
		}
		pr, err := l.regenerate(jobs)
		rep.attempted += len(jobs)
		if err != nil {
			rep.failed++
			return err
		}
		if l.sz.digest != "" {
			rep.check(checkDigest(tablesDigest(ids, pr.rendered), l.sz.digest))
		}
		sums := pr.groupSeconds()
		for _, g := range tableGroups {
			groups[g] = append(groups[g], sums[g])
		}
		rate = append(rate, float64(len(jobs))/pr.wall.Seconds())
		for _, sec := range sums {
			lat = append(lat, sec*1e6)
		}
		peak = append(peak, pr.stats.peakMiB)
		return nil
	})
	rep.addMedian("setup_s", "s", setup)
	rep.addMedian("jobs_per_s", "1/s", rate)
	rep.addAt("latency_p50_us", "us", lat, 0.5)
	rep.addAt("latency_p99_us", "us", lat, 0.99)
	rep.addMedian("peak_heap_mib", "MiB", peak)
	for _, g := range tableGroups {
		rep.addMedian("experiments."+g+"_s", "s", groups[g])
	}
	return rep
}

// --- serve-ingest and serve-observed ---------------------------------

//go:embed testdata/slo.json
var sloSpecJSON []byte

// submitters is the closed loop's client count: one per core of the
// 2-core hosts the ledger is sized for.
const submitters = 2

// serveRound is one closed-loop ingest round on a fresh server.
type serveRound struct {
	setups []float64     // seconds per set-up
	start  time.Time     // when the closed loop started
	wall   time.Duration // start to the last outcome received
	// Per job, in ns since start: Submit called, Submit returned (the
	// job is admitted), outcome received.
	sub0, sub1, recv []int64
	epochs           int
	failed           int
	stats            roundStats
}

func (s *serveRound) latencies() (lat, submit, lag []float64) {
	for i := range s.sub0 {
		lat = append(lat, float64(s.recv[i]-s.sub0[i])/1e3)
		submit = append(submit, float64(s.sub1[i]-s.sub0[i])/1e3)
		lag = append(lag, float64(s.recv[i]-s.sub1[i])/1e3)
	}
	return lat, submit, lag
}

// newServer builds the ingest cluster and a server on it. Observed
// servers run the way `micserve -serve -slo` does: a telemetry
// recorder, the OpenMetrics exporter, a 256-event flight recorder and
// the SLO evaluator of testdata/slo.json.
func newServer(observed bool, seed uint64) (*micstream.ClusterServer, error) {
	opts := []micstream.ServeOption{micstream.WithServeQueueCap(256)}
	var tel *micstream.Telemetry
	if observed {
		spec, err := micstream.ParseSLOSpec(sloSpecJSON)
		if err != nil {
			return nil, err
		}
		ev, err := micstream.NewSLOEvaluator(spec)
		if err != nil {
			return nil, err
		}
		tel = micstream.NewTelemetry()
		opts = append(opts,
			micstream.WithServeExporter(micstream.NewOpenMetricsExporter()),
			micstream.WithServeFlight(micstream.NewFlightRecorder(256)),
			micstream.WithServeSLO(ev),
			micstream.WithServeSLOMeta(micstream.SLOMeta{Run: "ledger", Seed: int64(seed), Policy: "predicted"}))
	}
	c, err := newIngestCluster(tel)
	if err != nil {
		return nil, err
	}
	return micstream.Serve(c, opts...)
}

// serveJobs draws one round's jobs, stamped with the SLO deadlines when
// the server is observed.
func serveJobs(rng *rand.Rand, n int, observed bool) ([]micstream.ClusterJob, error) {
	jobs := ingestJobs(rng, n)
	if observed {
		spec, err := micstream.ParseSLOSpec(sloSpecJSON)
		if err != nil {
			return nil, err
		}
		micstream.StampSLODeadlines(jobs, spec)
	}
	return jobs, nil
}

// serveRound runs one round: set-up, then the closed loop. With verify
// it also checks that the recorded batches replay to the live outcome
// stream.
func (l *ledger) serveRound(n, round int, observed, verify bool) (*serveRound, error) {
	var jobs []micstream.ClusterJob
	var srv *micstream.ClusterServer
	setups, err := timeSetups(func() (err error) {
		if jobs, err = serveJobs(l.rng(round), n, observed); err != nil {
			return err
		}
		srv, err = newServer(observed, l.seed)
		return err
	}, func() error { return srv.Drain(time.Second) })
	if err != nil {
		return nil, err
	}
	sr := &serveRound{setups: setups}
	m := startMeter(l.heap)
	live, err := drive(srv, jobs, sr, verify, observed)
	sr.stats = m.stop()
	if err != nil {
		return sr, err
	}
	if err := checkOutcomes(live.seen, live.failed); err != nil {
		return sr, err
	}
	if observed && live.health != nil {
		return sr, live.health
	}
	if verify {
		c, err := newIngestCluster(nil)
		if err != nil {
			return sr, err
		}
		var replayed []micstream.ClusterOutcome
		if _, err := micstream.ReplayBatches(c, srv.Batches(), func(o micstream.ClusterOutcome) {
			replayed = append(replayed, o)
		}); err != nil {
			return sr, fmt.Errorf("replay: %w", err)
		}
		if !reflect.DeepEqual(live.outcomes, replayed) {
			return sr, fmt.Errorf("replayed batches diverge from the live stream (%d vs %d outcomes)", len(replayed), len(live.outcomes))
		}
	}
	return sr, nil
}

// liveStream is what the subscriber saw.
type liveStream struct {
	seen     []int // outcomes received per job
	failed   int
	outcomes []micstream.ClusterOutcome // the whole stream, when kept
	health   error                      // first bad endpoint answer (observed servers)
}

// drive runs the closed loop on srv: two submitters each send their
// next job as soon as Submit returns, and one subscriber receives the
// outcomes — and, on an observed server, renders /metrics, /slo and
// /health in process every 250 ms. It drains the server and fills sr's
// timings.
func drive(srv *micstream.ClusterServer, jobs []micstream.ClusterJob, sr *serveRound, keep, observed bool) (liveStream, error) {
	n := len(jobs)
	sr.sub0, sr.sub1, sr.recv = make([]int64, n), make([]int64, n), make([]int64, n)
	live := liveStream{seen: make([]int, n)}
	sub := srv.Subscribe()
	var handler http.Handler
	if observed {
		handler = srv.Handler()
	}
	base := time.Now()
	sr.start = base
	done := make(chan struct{})
	go func() {
		defer close(done)
		var rendered time.Time
		for {
			o, ok := sub.Next()
			if ok {
				if o.ID < 0 || o.ID >= n {
					live.failed++
					continue
				}
				sr.recv[o.ID] = int64(time.Since(base))
				live.seen[o.ID]++
				if o.Failed {
					live.failed++
				}
				if keep {
					live.outcomes = append(live.outcomes, o)
				}
			}
			if handler != nil && (!ok || time.Since(rendered) >= 250*time.Millisecond) {
				rendered = time.Now()
				if err := renderEndpoints(handler); err != nil && live.health == nil {
					live.health = err
				}
			}
			if !ok {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make([]error, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for id := g; id < n; id += submitters {
				sr.sub0[id] = int64(time.Since(base))
				if _, err := srv.Submit(jobs[id]); err != nil {
					errs[g] = fmt.Errorf("submit job %d: %w", id, err)
					return
				}
				sr.sub1[id] = int64(time.Since(base))
			}
		}(g)
	}
	wg.Wait()
	drainErr := srv.Drain(30 * time.Second)
	<-done
	sr.wall = time.Duration(slices.Max(sr.recv))
	sr.epochs = srv.Stats().Epochs
	sr.failed = live.failed
	for _, err := range append(errs, drainErr) {
		if err != nil {
			return live, err
		}
	}
	return live, nil
}

// renderEndpoints renders the observed server's live endpoints through
// its handler, as an operator polling it would.
func renderEndpoints(h http.Handler) error {
	for _, path := range []string{"/metrics", "/slo", "/health"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			return fmt.Errorf("GET %s answered %d: %s", path, w.Code, strings.TrimSpace(w.Body.String()))
		}
	}
	return nil
}

// checkOutcomes requires exactly one outcome per admitted job and no
// failed one.
func checkOutcomes(seen []int, failed int) error {
	for id, k := range seen {
		if k != 1 {
			return fmt.Errorf("job %d got %d outcomes, want exactly 1", id, k)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d jobs failed", failed)
	}
	return nil
}

func (l *ledger) serve(budget time.Duration, observed bool) *report {
	rep := &report{}
	n := l.sz.serveJobs
	if observed {
		n = l.sz.observedJobs
	}
	var setup, rate, peak, lat, gcCycles, gcPause []float64
	l.rounds(rep, budget, func(r int) error {
		sr, err := l.serveRound(n, r, observed, r == 0)
		rep.attempted += n
		if sr != nil {
			rep.failed += sr.failed
		}
		if err != nil {
			return err
		}
		setup = append(setup, sr.setups...)
		rate = append(rate, float64(n)/sr.wall.Seconds())
		peak = append(peak, sr.stats.peakMiB)
		gcCycles = append(gcCycles, sr.stats.gcCycles)
		gcPause = append(gcPause, float64(sr.stats.gcPause.Microseconds())/1e3)
		jl, _, _ := sr.latencies()
		lat = append(lat, jl...)
		return nil
	})
	rep.addMedian("setup_s", "s", setup)
	rep.addMedian("jobs_per_s", "1/s", rate)
	rep.addAt("latency_p50_us", "us", lat, 0.5)
	rep.addAt("latency_p99_us", "us", lat, 0.99)
	rep.addMedian("peak_heap_mib", "MiB", peak)
	rep.addMedian("gc.cycles", "count", gcCycles)
	rep.addMedian("gc.pause_ms", "ms", gcPause)
	return rep
}

// --- cluster-contended -----------------------------------------------

// clusterRound is one batch Cluster.Run of the contended mix.
type clusterRound struct {
	setups      []float64 // seconds per set-up
	wall        time.Duration
	res         *micstream.ClusterResult
	invalidated int64
	stats       roundStats
}

func (l *ledger) clusterRound(n, round int, verify bool) (*clusterRound, error) {
	var c *micstream.Cluster
	var jobs []micstream.ClusterJob
	setups, err := timeSetups(func() (err error) {
		if c, err = newContendedCluster(); err != nil {
			return err
		}
		jobs = contendedJobs(l.rng(round), c, n)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	cr := &clusterRound{setups: setups}
	inval := c.Residency().Stats().InvalidatedBytes
	m := startMeter(l.heap)
	t := time.Now()
	res, err := c.Run(jobs)
	cr.wall = time.Since(t)
	cr.stats = m.stop()
	cr.res = res
	if err != nil {
		return cr, err
	}
	cr.invalidated = c.Residency().Stats().InvalidatedBytes - inval
	if !verify {
		return cr, nil
	}
	c2, err := newContendedCluster()
	if err != nil {
		return cr, err
	}
	again, err := c2.Run(contendedJobs(l.rng(round), c2, n))
	if err != nil {
		return cr, err
	}
	if !reflect.DeepEqual(res, again) {
		return cr, fmt.Errorf("two runs of round %d differ", round)
	}
	if err := checkStaging(jobs, res); err != nil {
		return cr, err
	}
	if res.Steals == 0 || res.EvictedBytes == 0 || cr.invalidated == 0 {
		return cr, fmt.Errorf("mechanisms idle: %d steals, %d bytes evicted, %d bytes invalidated", res.Steals, res.EvictedBytes, cr.invalidated)
	}
	return cr, nil
}

// checkStaging requires every off-origin job's hit and miss bytes to
// split exactly its staging demand, and the totals to add up.
func checkStaging(jobs []micstream.ClusterJob, res *micstream.ClusterResult) error {
	var demand int64
	for _, o := range res.Jobs {
		if o.Origin < 0 || o.Device == o.Origin {
			continue
		}
		d := jobs[o.Index].StagingDemand()
		if o.HitBytes+o.MissBytes != d {
			return fmt.Errorf("job %d: %d hit + %d miss bytes, staging demand %d", o.Index, o.HitBytes, o.MissBytes, d)
		}
		demand += d
	}
	if res.HitBytes+res.MissBytes != demand {
		return fmt.Errorf("%d hit + %d miss bytes, staging demand %d", res.HitBytes, res.MissBytes, demand)
	}
	return nil
}

func (l *ledger) clusterContended(budget time.Duration) *report {
	rep := &report{}
	n := l.sz.clusterJobs
	var setup, rate, peak, runLat []float64
	l.rounds(rep, budget, func(r int) error {
		cr, err := l.clusterRound(n, r, r == 0)
		rep.attempted += n
		if cr != nil && cr.res != nil {
			rep.failed += cr.res.Failed
		}
		if err != nil {
			return err
		}
		setup = append(setup, cr.setups...)
		rate = append(rate, float64(n)/cr.wall.Seconds())
		runLat = append(runLat, float64(cr.wall.Microseconds()))
		peak = append(peak, cr.stats.peakMiB)
		return nil
	})
	rep.addMedian("setup_s", "s", setup)
	rep.addMedian("jobs_per_s", "1/s", rate)
	rep.addAt("latency_p50_us", "us", runLat, 0.5)
	rep.addAt("latency_p99_us", "us", runLat, 0.99)
	rep.addMedian("peak_heap_mib", "MiB", peak)
	return rep
}
