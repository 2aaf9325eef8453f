package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"micstream/internal/cluster"
	"micstream/internal/hstreams"
	"micstream/internal/obs"
	"micstream/internal/sched"
	"micstream/internal/schedtest"
	"micstream/internal/sim"
	"micstream/internal/slo"
	"micstream/internal/telemetry"
)

// scenario is one cluster configuration and the ways of feeding it: the
// platform and cluster options, the workload, how a session cuts it
// into epochs of stacked batches, and how a live server ingests it.
type scenario struct {
	name                         string
	devices, partitions, streams int
	place, devPolicy             string       // devPolicy "" is FIFO
	steal                        sim.Duration // negative: no stealing
	slice, depth                 int
	cache                        int64   // negative: no residency cache; 0: unbounded
	staging                      float64 // 0: the default factor
	cfg                          cluster.ScenarioConfig
	atBoundary                   bool   // every job arrives at virtual time 0
	cuts                         []byte // epoch cuts, in 256ths of the job list
	part                         int    // > 0: epochs are submitted in stacked batches of part jobs
	submitters, batchCap         int    // the live server's ingest goroutines and epoch cap
	armP95                       bool   // the server's flight p95 trigger sees every snapshot
}

// fixedMixes are the mixes the pairwise determinism tests ran: plain
// predicted placement, the stranded stealing mix, the residency mixes
// with writes and a tight cache, slicing with stealing, a one-task
// session workload, and the imbalanced grid under every placement
// policy. An input whose first byte has its high bit set picks one.
var fixedMixes = func() []scenario {
	stranded := cluster.ScenarioConfig{Seed: 7, Arrival: "bursty", SizeSpread: 4, AffinityFraction: 1,
		Origins: []int{0}, XferBytes: 8 << 20, WindowNs: 10_000_000}
	written := stranded
	written.Seed, written.Datasets, written.WriteFraction = 5, 4, 0.25
	datasets := stranded
	datasets.Seed, datasets.Datasets, datasets.WriteFraction = 99, 4, 0.3
	mixes := []scenario{
		{name: "placement", place: "predicted", steal: -1, cache: -1,
			cfg: cluster.ScenarioConfig{Seed: 7, SizeSpread: 4, AffinityFraction: 0.5, Origins: []int{0, 1}}},
		{name: "stealing", place: "predicted", steal: 0, cache: -1, depth: 16, cfg: stranded},
		{name: "residency", place: "affinity", steal: -1, cache: 12 << 20, cfg: written},
		{name: "residency-stealing", place: "affinity", steal: 0, cache: 16 << 20, depth: 8, cfg: datasets},
		{name: "sliced-stealing", place: "predicted", steal: 1, slice: 1, cache: -1, depth: 16,
			cfg: cluster.ScenarioConfig{Jobs: 24, Seed: 11, SizeSpread: 6, TilesPerJob: 4, AffinityFraction: 0.5}},
		{name: "session", place: "predicted", steal: 0, cache: -1,
			cfg: cluster.ScenarioConfig{Jobs: 24, Seed: 3, TilesPerJob: 1, AffinityFraction: 0.25, Origins: []int{0, 1}}},
	}
	for _, place := range cluster.Policies() {
		mixes = append(mixes, scenario{name: "imbalanced/" + place, place: place, steal: -1, cache: -1,
			cfg: cluster.ScenarioConfig{Seed: 99, Arrival: "bursty", SizeSpread: 4, AffinityFraction: 0.33, Origins: []int{0, 1}}})
	}
	for i := range mixes {
		mixes[i].devices, mixes[i].partitions, mixes[i].streams = 2, 2, 2
	}
	return mixes
}()

// decodeScenario turns fuzz bytes into a scenario. Missing bytes read as
// zero, so every input decodes.
func decodeScenario(data []byte) scenario {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var s scenario
	if sel := next(); sel >= 0x80 {
		s = fixedMixes[(sel-0x80)%len(fixedMixes)]
	} else {
		shape := next()
		s = scenario{
			devices: 1 + sel%4, partitions: 1 + shape%2, streams: 1 + shape/2%2,
			place:     cluster.Policies()[next()%len(cluster.Policies())],
			devPolicy: sched.Policies()[next()%len(sched.Policies())],
			steal:     [...]sim.Duration{-1, 0, 2 * sim.Millisecond}[next()%3],
			slice:     next() % 3,
			cache:     [...]int64{-1, 0, 8 << 20}[next()%3],
			staging:   [...]float64{0, 0.5, 1, 2}[next()%4],
			depth:     [...]int{0, 1, 4, 16}[next()%4],
		}
		origins := []int{0}
		if next()%2 == 1 && s.devices > 1 {
			origins = append(origins, s.devices-1)
		}
		s.cfg = cluster.ScenarioConfig{
			Jobs:             1 + next()%24,
			Seed:             uint64(next()) + 1,
			Arrival:          [...]string{"poisson", "bursty", "heavytail", "diurnal", "correlated"}[next()%5],
			WindowNs:         [...]int64{10_000_000, 40_000_000}[next()%2],
			TilesPerJob:      1 + next()%4,
			XferBytes:        [...]int64{1 << 20, 2 << 20, 8 << 20}[next()%3],
			SizeSpread:       float64(1 + next()%16),
			AffinityFraction: float64(next()%5) / 4,
			Origins:          origins,
			Datasets:         next() % 5,
			WriteFraction:    float64(next()%4) / 4,
		}
		s.name = fmt.Sprintf("%dx%dx%d %s/%s steal=%v slice=%d cache=%d staging=%g depth=%d %+v",
			s.devices, s.partitions, s.streams, s.place, s.devPolicy, s.steal, s.slice, s.cache, s.staging, s.depth, s.cfg)
	}
	s.atBoundary = next()%2 == 1
	for n := next() % 4; n > 0; n-- {
		s.cuts = append(s.cuts, byte(next()))
	}
	s.part, s.submitters, s.batchCap, s.armP95 = next()%4, 1+next()%4, next()%4, next()%2 == 1
	return s
}

// build makes a fresh platform, the scenario's jobs on it and a cluster
// over it, telemetered by rec unless rec is nil. The platform records
// resource spans only with telemetry, as the facade's clusters do.
func (s *scenario) build(t *testing.T, rec *telemetry.Recorder) (*cluster.Cluster, []cluster.Job) {
	t.Helper()
	ctx, err := hstreams.Init(hstreams.Config{
		Devices: s.devices, Partitions: s.partitions, StreamsPerPartition: s.streams, Trace: rec != nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := cluster.BuildScenario(ctx, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.atBoundary {
		for i := range jobs {
			jobs[i].Arrival = 0
		}
	}
	place, err := cluster.ByName(s.place)
	if err != nil {
		t.Fatal(err)
	}
	opts := []cluster.Option{cluster.WithPlacement(place), cluster.WithSlicing(s.slice),
		cluster.WithQueueDepth(s.depth), cluster.WithTelemetry(rec)}
	if s.devPolicy != "" {
		opts = append(opts, cluster.WithDevicePolicy(func() sched.Policy {
			p, _ := sched.ByName(s.devPolicy)
			return p
		}))
	}
	if s.steal >= 0 {
		opts = append(opts, cluster.WithStealing(s.steal))
	}
	if s.cache >= 0 {
		opts = append(opts, cluster.WithResidency(s.cache))
	}
	if s.staging > 0 {
		opts = append(opts, cluster.WithStagingFactor(s.staging))
	}
	c, err := cluster.New(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, jobs
}

// epochs cuts jobs at the scenario's cuts.
func (s *scenario) epochs(jobs []cluster.Job) [][]cluster.Job {
	var out [][]cluster.Job
	from := 0
	for _, cut := range s.cuts {
		if to := len(jobs) * int(cut) / 256; to > from {
			out, from = append(out, jobs[from:to]), to
		}
	}
	return append(out, jobs[from:])
}

// path is one way of running a scenario.
type path int

const (
	batchRun path = iota // Cluster.Run
	oneEpoch             // one Session epoch, submitted as stacked batches
	splitRun             // a Session epoch per cut, each submitted as stacked batches
	replayed             // Replay of the cut epochs, one batch each
)

// played is what one path produced: its Result, a session's outcome
// stream, a telemetered run's event log and metrics snapshots, and the
// cluster, for its Chrome export.
type played struct {
	res     *cluster.Result
	stream  []cluster.Outcome
	events  []telemetry.Event
	metrics []telemetry.MetricsSnapshot
	c       *cluster.Cluster
}

// play runs the scenario along p on a fresh cluster, telemetered by rec
// unless it is nil and with stack attached unless it is nil.
func (s *scenario) play(t *testing.T, p path, rec *telemetry.Recorder, stack *slo.Observers) played {
	t.Helper()
	c, jobs := s.build(t, rec)
	if stack != nil {
		stack.Attach(rec)
	}
	out := played{c: c}
	sink := func(o cluster.Outcome) { out.stream = append(out.stream, o) }
	epochs := [][]cluster.Job{jobs}
	if p >= splitRun {
		epochs = s.epochs(jobs)
	}
	var err error
	switch p {
	case batchRun:
		out.res, err = c.Run(jobs)
	case replayed:
		batches := make([]Batch, len(epochs))
		for i, e := range epochs {
			batches[i] = Batch{Jobs: e}
		}
		out.res, err = Replay(c, batches, sink)
	default:
		var sess *cluster.Session
		if sess, err = c.NewSession(sink); err != nil {
			t.Fatal(err)
		}
		for _, e := range epochs {
			for len(e) > 0 && err == nil {
				n := len(e)
				if s.part > 0 && s.part < n {
					n = s.part
				}
				_, err = sess.Submit(e[:n])
				e = e[n:]
			}
			if err == nil {
				_, err = sess.RunEpoch()
			}
		}
		out.res = sess.Result()
	}
	if err != nil {
		t.Fatalf("%s: path %d: %v", s.name, p, err)
	}
	out.events, out.metrics = rec.Events(), rec.Metrics()
	return out
}

// chrome is the cluster's Chrome trace export.
func chrome(t *testing.T, c *cluster.Cluster) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Trace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stackFor is a full observer stack: exporter, flight recorder and SLO
// evaluator, with the flight p95 trigger armed on every snapshot when
// armed is set.
func stackFor(t *testing.T, armed bool) *slo.Observers {
	t.Helper()
	ev, err := slo.New(testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	fl := obs.NewFlightRecorder(64)
	if armed {
		fl.SetP95Threshold(1)
	}
	return &slo.Observers{Exporter: obs.NewExporter(), Flight: fl, SLO: ev}
}

// serve ingests the scenario's jobs into a live server with a full
// observer stack from s.submitters goroutines, and returns what it
// streamed and the batches it recorded.
func (s *scenario) serve(t *testing.T) (played, []Batch) {
	t.Helper()
	c, jobs := s.build(t, telemetry.NewRecorder())
	stack := stackFor(t, s.armP95)
	srv, err := New(c, WithExporter(stack.Exporter), WithFlight(stack.Flight), WithSLO(stack.SLO),
		WithBatchCap(s.batchCap))
	if err != nil {
		t.Fatal(err)
	}
	sub := srv.Subscribe()
	var wg sync.WaitGroup
	for g := 0; g < s.submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(jobs); i += s.submitters {
				if _, err := srv.Submit(jobs[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := srv.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	out := played{stream: drainAll(sub)}
	if out.res, err = srv.Result(); err != nil {
		t.Fatal(err)
	}
	return out, srv.Batches()
}

// completes asserts that outs holds each of n jobs exactly once, with
// its lifecycle marks in order.
func completes(t *testing.T, label string, outs []cluster.Outcome, n int) []schedtest.Span {
	t.Helper()
	spans := make([]schedtest.Span, len(outs))
	for i, o := range outs {
		spans[i] = schedtest.Span{
			ID: o.ID, Index: o.Index, Stream: o.Stream,
			Wait: [2]sim.Time{o.Arrival, o.Placed}, Busy: [2]sim.Time{o.Start, o.Done},
			Marks: []sim.Time{o.Arrival, o.Placed, o.Start, o.Done},
		}
	}
	schedtest.UniqueCompletion(t, label, spans, n, []string{"arrival", "placed", "start", "done"})
	return spans
}

// FuzzDeterminism is the determinism contract (DESIGN.md §6, §15) as
// one differential oracle. Each input decodes to a cluster scenario,
// decoded or one of the fixed mixes, and every path that must agree on
// it runs on a fresh platform:
//
//   - Cluster.Run bare, telemetered, repeated and with the observer
//     stack attached: one Result, across the telemetered runs one event
//     log and snapshot series, and across the repeats one Chrome export;
//   - one Session epoch of stacked batches: Run's aggregates and log,
//     and each of Run's outcomes streamed once, in completion order;
//   - a Session cut into epochs of stacked batches, and Replay of the
//     same epochs as one batch each: one Result, stream and log;
//   - a live server with the observer stack, fed from several
//     goroutines, and Replay of its Batches on a bare cluster: one
//     Result and stream;
//
// plus the schedtest invariants. The seed corpus (testdata/fuzz)
// holds every fixed mix and decoded scenarios that reach each option.
func FuzzDeterminism(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeScenario(data)
		bare := s.play(t, batchRun, nil, nil)
		n := len(bare.res.Jobs)
		spans := completes(t, s.name, bare.res.Jobs, n)
		if s.place != "affinity" && (s.devPolicy == "" || s.devPolicy == "fifo") && s.slice == 0 && s.cache < 0 && s.depth == 0 {
			streams := make([]int, s.devices*s.partitions*s.streams)
			for i := range streams {
				streams[i] = i
			}
			schedtest.WorkConserving(t, s.name, spans, streams)
		}

		traced := s.play(t, batchRun, telemetry.NewRecorder(), nil)
		repeat := s.play(t, batchRun, telemetry.NewRecorder(), nil)
		if !bytes.Equal(chrome(t, traced.c), chrome(t, repeat.c)) {
			t.Fatalf("%s: a fresh repeat's Chrome export differs", s.name)
		}
		sameLog := func(what string, want, got played) {
			t.Helper()
			if !reflect.DeepEqual(want.events, got.events) || !reflect.DeepEqual(want.metrics, got.metrics) {
				t.Fatalf("%s: %s: event logs or snapshots differ", s.name, what)
			}
		}
		for _, p := range []struct {
			what string
			got  played
		}{
			{"telemetry", traced},
			{"a fresh repeat", repeat},
			{"the attached stack", s.play(t, batchRun, telemetry.NewRecorder(), stackFor(t, s.armP95))},
		} {
			if !reflect.DeepEqual(bare.res, p.got.res) {
				t.Fatalf("%s: %s changed the Result", s.name, p.what)
			}
			sameLog(p.what, traced, p.got)
		}

		one := s.play(t, oneEpoch, telemetry.NewRecorder(), nil)
		agg := *bare.res
		agg.Jobs = nil
		if !reflect.DeepEqual(&agg, one.res) {
			t.Fatalf("%s: one-epoch session Result differs from Run:\nrun:     %+v\nsession: %+v", s.name, &agg, one.res)
		}
		sameLog("one-epoch session", traced, one)
		completes(t, s.name+": session stream", one.stream, n)
		for i, o := range one.stream {
			if !reflect.DeepEqual(o, bare.res.Jobs[o.Index]) || i > 0 && o.Done < one.stream[i-1].Done {
				t.Fatalf("%s: streamed outcome %d differs from Run's or is out of completion order", s.name, o.Index)
			}
		}

		split := s.play(t, splitRun, telemetry.NewRecorder(), nil)
		again := s.play(t, replayed, telemetry.NewRecorder(), nil)
		if !reflect.DeepEqual(split.res, again.res) || !reflect.DeepEqual(split.stream, again.stream) {
			t.Fatalf("%s: split session and Replay of its epochs differ", s.name)
		}
		sameLog("split session and Replay", split, again)

		live, batches := s.serve(t)
		completes(t, s.name+": live stream", live.stream, n)
		c, _ := s.build(t, nil)
		var stream []cluster.Outcome
		res, err := Replay(c, batches, func(o cluster.Outcome) { stream = append(stream, o) })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live.stream, stream) || !reflect.DeepEqual(live.res, res) {
			t.Fatalf("%s: live observed server and bare Replay of its %d batches differ", s.name, len(batches))
		}
	})
}

// The seed corpus reaches what the oracle compares: steals, mid-job
// migrations, slices, staging, residency hits and epochs of stacked
// batches. Without this a decoder change could leave FuzzDeterminism
// passing on scenarios that exercise none of them.
func TestDeterminismCorpusReachesEveryOption(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzDeterminism/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus (%v)", err)
	}
	var steals, preempts, slices, staged, stacked int
	var hits int64
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		s := decodeScenario([]byte(data))
		r := s.play(t, batchRun, nil, nil).res
		steals, preempts, staged, hits = steals+r.Steals, preempts+r.Preempts, staged+r.StagedJobs, hits+r.HitBytes
		for _, o := range r.Jobs {
			slices += o.Slices - 1
		}
		if s.part > 0 && len(s.epochs(make([]cluster.Job, len(r.Jobs)))) > 1 {
			stacked++
		}
	}
	if steals == 0 || preempts == 0 || slices == 0 || staged == 0 || hits == 0 || stacked == 0 {
		t.Fatalf("corpus reaches %d steals, %d migrations, %d follow-up slices, %d staged jobs, %d hit bytes, %d cut and stacked scenarios; want each > 0",
			steals, preempts, slices, staged, hits, stacked)
	}
}
