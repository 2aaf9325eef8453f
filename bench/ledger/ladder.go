package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"micstream"
)

// The layer ladder feeds one seeded job stream of the serve-ingest mix
// into each layer's public entry point in turn, top down as a user
// meets them, and reports per rung jobs/s plus heap bytes and
// allocations per job from runtime.MemStats deltas. The gap between
// two rungs is the cost of the layer between them.

// span is one timed call into a layer.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int   // index of the enclosing span, -1 for a root
	job        int   // job index, -1 when the call covers no single job
	tid        int   // Chrome trace lane
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so one rung body serves the traced and the untraced
// run.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent, job, tid int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), end: -1, parent: parent, job: job, tid: tid})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].end = t.now()
	}
}

// rung measures fn, which feeds n jobs to one layer, and records
// <layer>.jobs_per_s, .bytes_per_job and .allocs_per_job.
func rung(rep *report, layer string, n int, fn func() error) (time.Duration, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	err := fn()
	wall := time.Since(t)
	runtime.ReadMemStats(&after)
	if err != nil {
		return wall, fmt.Errorf("%s rung: %w", layer, err)
	}
	rep.add(layer+".jobs_per_s", "1/s", float64(n)/wall.Seconds())
	rep.add(layer+".bytes_per_job", "B", float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	rep.add(layer+".allocs_per_job", "count", float64(after.Mallocs-before.Mallocs)/float64(n))
	return wall, nil
}

// Chrome trace lanes.
const (
	tidMain = 1
	tidSub  = 10 // + submitter index
)

// ladder runs the traced ladder, then one untraced round of every
// workload for the layer counters only they exercise, and writes the
// spans to traceOut (when set) as Chrome trace JSON.
func (l *ledger) ladder(traceOut string) *report {
	rep := &report{rounds: 1}
	n := l.sz.ladderJobs
	stream := func(k int) []micstream.ClusterJob { return ingestJobs(l.rng(0), k) }
	tr := &tracer{epoch: time.Now(), spans: make([]span, 0, 6*n)}
	rep.attempted += 6*n + l.sz.ladderObserve // every rung, and the untraced session

	rep.check(l.serveRung(rep, tr, stream(n)))
	// The same session rung with no spans recorded: the base of
	// bench.trace_overhead. Its rung metrics are not reported.
	untraced, err := sessionRung(&report{}, nil, stream(n), false, "session")
	rep.check(err)
	traced, err := sessionRung(rep, tr, stream(n), false, "session")
	rep.check(err)
	if untraced > 0 && traced > 0 {
		rep.add("bench.trace_overhead", "ratio", 1-untraced.Seconds()/traced.Seconds())
	}
	obs, err := serveJobs(l.rng(0), l.sz.ladderObserve, true)
	rep.check(err)
	observed, err := sessionRung(rep, tr, obs, true, "observers")
	rep.check(err)
	if traced > 0 && observed > 0 {
		// 1 − observers/session jobs/s, on the base of session jobs/s.
		sessionRate := float64(n) / traced.Seconds()
		obsRate := float64(len(obs)) / observed.Seconds()
		rep.add("observers.share", "ratio", 1-obsRate/sessionRate)
	}
	rep.check(clusterRung(rep, tr, stream(n)))
	rep.check(schedRung(rep, tr, stream(n)))
	rep.check(hstreamsRung(rep, tr, stream(n)))
	l.probes(rep)

	rep.notes = selfTimes(tr.spans)
	if traceOut != "" {
		rep.check(writeTraceFile(traceOut, tr.spans))
	}
	return rep
}

// serveRung is the top of the ladder: Server.Submit from two
// submitters, Subscribe for the outcomes.
func (l *ledger) serveRung(rep *report, tr *tracer, jobs []micstream.ClusterJob) error {
	srv, err := newServer(false, l.seed)
	if err != nil {
		return err
	}
	sr := &serveRound{}
	var live liveStream
	root := tr.begin("ladder.serve", -1, -1, tidMain)
	_, err = rung(rep, "serve", len(jobs), func() error {
		var err error
		live, err = drive(srv, jobs, sr, false, false)
		return err
	})
	tr.end(root)
	if err != nil {
		return err
	}
	if err := checkOutcomes(live.seen, live.failed); err != nil {
		return fmt.Errorf("serve rung: %w", err)
	}
	// Per job, the wait from Submit to its outcome, with the Submit call
	// (the frontier hand-off up to admission) as its child: the job
	// span's self time is the outcome lag.
	base := int64(sr.start.Sub(tr.epoch))
	for id := range jobs {
		j := len(tr.spans)
		tr.spans = append(tr.spans,
			span{name: "serve.job", start: base + sr.sub0[id], end: base + sr.recv[id], parent: root, job: id, tid: tidSub + id%submitters},
			span{name: "serve.Submit", start: base + sr.sub0[id], end: base + sr.sub1[id], parent: j, job: id, tid: tidSub + id%submitters})
	}
	_, submit, lag := sr.latencies()
	rep.addAt("serve.submit_p99_us", "us", submit, 0.99)
	rep.addAt("serve.outcome_lag_p99_us", "us", lag, 0.99)
	rep.add("serve.jobs_per_epoch", "count", float64(len(jobs))/float64(sr.epochs))
	return nil
}

// sessionRung feeds the jobs one per epoch through Session.Submit and
// RunEpoch and returns the loop's wall time. With observe it wires the
// observers a served cluster runs — telemetry, the OpenMetrics
// exporter, a flight recorder and the SLO evaluator — as the
// recorder's hooks, and records telemetry.events_per_job.
func sessionRung(rep *report, tr *tracer, jobs []micstream.ClusterJob, observe bool, layer string) (time.Duration, error) {
	var tel *micstream.Telemetry
	if observe {
		spec, err := micstream.ParseSLOSpec(sloSpecJSON)
		if err != nil {
			return 0, err
		}
		ev, err := micstream.NewSLOEvaluator(spec)
		if err != nil {
			return 0, err
		}
		x := micstream.NewOpenMetricsExporter()
		f := micstream.NewFlightRecorder(256)
		tel = micstream.NewTelemetry()
		tel.SetOnEvent(func(e micstream.TelemetryEvent) {
			ev.OnEvent(e)
			f.OnEvent(e)
		})
		tel.SetOnMetrics(func(m micstream.MetricsSnapshot) {
			x.Observe(m)
			ev.OnMetrics(m)
			f.OnMetrics(m)
		})
	}
	c, err := newIngestCluster(tel)
	if err != nil {
		return 0, err
	}
	got, failed := 0, 0
	sess, err := micstream.NewClusterSession(c, func(o micstream.ClusterOutcome) {
		got++
		if o.Failed {
			failed++
		}
	})
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	batch := make([]micstream.ClusterJob, 1)
	wall, err := rung(rep, layer, len(jobs), func() error {
		root := tr.begin("ladder."+layer, -1, -1, tidMain)
		defer tr.end(root)
		for i := range jobs {
			batch[0] = jobs[i]
			s := tr.begin(layer+".Submit", root, i, tidMain)
			if _, err := sess.Submit(batch); err != nil {
				return err
			}
			tr.end(s)
			s = tr.begin(layer+".RunEpoch", root, i, tidMain)
			if _, err := sess.RunEpoch(); err != nil {
				return err
			}
			tr.end(s)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if got != len(jobs) || failed > 0 {
		return 0, fmt.Errorf("%s rung: %d outcomes (%d failed) for %d jobs", layer, got, failed, len(jobs))
	}
	if observe {
		rep.add("telemetry.events_per_job", "count", float64(tel.Len())/float64(len(jobs)))
	}
	return wall, nil
}

// batchGap spaces the batch rungs' arrivals in virtual time. The
// ingest platform finishes about five of these jobs per millisecond per
// device, so queues stay as short as on the serve path, where every
// job arrives at an idle epoch boundary.
const batchGap = micstream.Time(time.Millisecond)

// clusterRung runs the jobs as one batch Cluster.Run and reports the
// engine's events per job and host ns per event around it.
func clusterRung(rep *report, tr *tracer, jobs []micstream.ClusterJob) error {
	c, err := newIngestCluster(nil)
	if err != nil {
		return err
	}
	for i := range jobs {
		jobs[i].Arrival = micstream.Time(i) * batchGap
	}
	eng := micstream.ClusterPlatform(c).Context().Engine()
	steps := eng.Steps()
	var res *micstream.ClusterResult
	wall, err := rung(rep, "cluster", len(jobs), func() error {
		s := tr.begin("cluster.Run", -1, -1, tidMain)
		defer tr.end(s)
		var err error
		res, err = c.Run(jobs)
		return err
	})
	if err != nil {
		return err
	}
	if len(res.Jobs) != len(jobs) || res.Failed > 0 {
		return fmt.Errorf("cluster rung: %d outcomes (%d failed) for %d jobs", len(res.Jobs), res.Failed, len(jobs))
	}
	events := float64(eng.Steps() - steps)
	rep.add("sim.events_per_job", "count", events/float64(len(jobs)))
	rep.add("sim.ns_per_event", "ns", float64(wall.Nanoseconds())/events)
	return nil
}

// schedRung runs the jobs through one device's Scheduler.Run.
func schedRung(rep *report, tr *tracer, jobs []micstream.ClusterJob) error {
	p, err := micstream.NewPlatform(micstream.WithPartitions(4), micstream.WithStreamsPerPartition(2))
	if err != nil {
		return err
	}
	s, err := micstream.NewScheduler(p)
	if err != nil {
		return err
	}
	sj := make([]micstream.Job, len(jobs))
	for i, j := range jobs {
		sj[i] = micstream.Job{ID: j.ID, Tenant: j.Tenant, Arrival: micstream.Time(i) * batchGap, Tasks: j.Tasks}
	}
	var res *micstream.SchedResult
	_, err = rung(rep, "sched", len(jobs), func() error {
		sp := tr.begin("sched.Run", -1, -1, tidMain)
		defer tr.end(sp)
		var err error
		res, err = s.Run(sj)
		return err
	})
	if err != nil {
		return err
	}
	if len(res.Jobs) != len(jobs) {
		return fmt.Errorf("sched rung: %d outcomes for %d jobs", len(res.Jobs), len(jobs))
	}
	return nil
}

// hstreamsRung enqueues each job's kernel round-robin over the streams
// of the ingest platform, with a Barrier every 1024 enqueues.
func hstreamsRung(rep *report, tr *tracer, jobs []micstream.ClusterJob) error {
	p, err := micstream.NewPlatform(micstream.WithDevices(ingestDevices), micstream.WithPartitions(4), micstream.WithStreamsPerPartition(2))
	if err != nil {
		return err
	}
	streams := p.NumStreams()
	var done micstream.Time
	_, err = rung(rep, "hstreams", len(jobs), func() error {
		root := tr.begin("ladder.hstreams", -1, -1, tidMain)
		defer tr.end(root)
		for i, j := range jobs {
			s := tr.begin("hstreams.EnqueueKernel", root, i, tidMain)
			p.Stream(i%streams).EnqueueKernel(j.Tasks[0].Cost, i, nil)
			tr.end(s)
			if i%1024 == 1023 || i == len(jobs)-1 {
				s = tr.begin("hstreams.Barrier", root, -1, tidMain)
				done = p.Barrier()
				tr.end(s)
			}
		}
		return nil
	})
	if err == nil && done <= 0 {
		err = fmt.Errorf("hstreams rung: barrier at virtual time %v", done)
	}
	return err
}

// probes runs one untraced round of every workload for the layer
// counters the ladder's job stream does not exercise: table group
// times, GC and p99 latency on both serve workloads, residency and
// stealing, and the deterministic virtual times of the contended mix.
func (l *ledger) probes(rep *report) {
	order, err := paperOrder(l.rng(0), l.sz.tables)
	rep.check(err)
	if err == nil {
		pr, err := l.regenerate(order)
		rep.attempted++
		rep.check(err)
		if err == nil {
			if l.sz.digest != "" {
				rep.check(checkDigest(tablesDigest(l.sz.tables, pr.rendered), l.sz.digest))
			}
			sums := pr.groupSeconds()
			for _, g := range tableGroups {
				rep.add("experiments."+g+"_s", "s", sums[g])
			}
			rep.add("paper_tables_s", "s", pr.wall.Seconds())
		}
	}

	sr, err := l.serveRound(l.sz.serveJobs, 0, false, false)
	rep.check(err)
	attempted, failed := l.sz.serveJobs, 0
	if sr != nil {
		failed += sr.failed
		rep.add("gc.cycles", "count", sr.stats.gcCycles)
		rep.add("gc.pause_ms", "ms", float64(sr.stats.gcPause.Microseconds())/1e3)
		lat, _, _ := sr.latencies()
		rep.addAt("serve-ingest.latency_p99_us", "us", lat, 0.99)
	}
	so, err := l.serveRound(l.sz.observedJobs, 0, true, false)
	rep.check(err)
	attempted += l.sz.observedJobs
	if so != nil {
		failed += so.failed
		lat, _, _ := so.latencies()
		rep.addAt("serve-observed.latency_p99_us", "us", lat, 0.99)
	}
	cr, err := l.clusterRound(l.sz.clusterJobs, 0, true)
	rep.check(err)
	attempted += l.sz.clusterJobs
	if cr != nil && cr.res != nil {
		r := cr.res
		failed += r.Failed
		rep.add("residency.hit_ratio", "ratio", float64(r.HitBytes)/float64(r.HitBytes+r.MissBytes))
		rep.add("residency.evicted_mib", "MiB", float64(r.EvictedBytes)/(1<<20))
		rep.add("residency.invalidated_mib", "MiB", float64(cr.invalidated)/(1<<20))
		rep.add("cluster.steals", "count", float64(r.Steals))
		rep.add("cluster.staged_jobs", "count", float64(r.StagedJobs))
		rep.add("virtual_makespan_ms", "ms", float64(r.Makespan)/1e6)
		lat := make([]float64, 0, len(r.Jobs))
		for _, o := range r.Jobs {
			lat = append(lat, float64(o.Latency())/1e6)
		}
		rep.addAt("virtual_p99_ms", "ms", lat, 0.99)
	}
	rep.attempted += attempted
	rep.failed += failed
	rep.add("failed_frac", "ratio", float64(failed)/float64(attempted))
}

// selfTimes totals, per span name, the calls, the wall time and the
// self time — each span's duration minus the part of it its children
// cover — as printable lines.
func selfTimes(spans []span) []string {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	type agg struct {
		calls       int
		total, self int64
	}
	byName := map[string]*agg{}
	var names []string
	for i, s := range spans {
		a := byName[s.name]
		if a == nil {
			a = &agg{}
			byName[s.name] = a
			names = append(names, s.name)
		}
		a.calls++
		a.total += s.end - s.start
		a.self += s.end - s.start - covered(s, spans, children[i])
	}
	lines := []string{fmt.Sprintf("%-28s %9s %14s %14s", "span", "calls", "total_ms", "self_ms")}
	for _, name := range names {
		a := byName[name]
		lines = append(lines, fmt.Sprintf("%-28s %9d %14.3f %14.3f", name, a.calls, float64(a.total)/1e6, float64(a.self)/1e6))
	}
	return lines
}

// covered is how much of parent's interval the union of its children
// covers.
func covered(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	curA, curB = -1, -1
	for _, v := range iv {
		if v[0] > curB {
			sum += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return sum + curB - curA
}

// writeChromeTrace renders spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), loadable in
// chrome://tracing and Perfetto.
func writeChromeTrace(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"job":%d,"parent":%d}}`,
			s.name, s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.job, s.parent)
		bw.WriteByte('\n')
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

func writeTraceFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
