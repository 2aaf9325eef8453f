package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"micstream"
)

// tinySizes keeps every workload to a fraction of a second. The paper
// subset is the cheapest tables; only the full set has a recorded
// digest, so the subset skips that check.
var tinySizes = sizes{
	serveJobs:     400,
	observedJobs:  200,
	clusterJobs:   2000,
	ladderJobs:    400,
	ladderObserve: 200,
	tables:        []string{"fig5", "fig6", "fig7", "fig8a", "fig8e", "fig11"},
}

func TestPercentile(t *testing.T) {
	four := []float64{1, 2, 3, 4}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{[]float64{5}, 0.99, 5},
		{four, 0, 1},
		{four, 0.25, 1.75},
		{four, 0.5, 2.5},
		{four, 0.75, 3.25},
		{four, 1, 4},
		{hundred, 0.5, 50.5},
		{hundred, 0.9, 90.1},
		{hundred, 0.99, 99.01},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.sorted, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %g, want NaN", got)
	}
}

func TestSummarizeTail(t *testing.T) {
	for _, c := range []struct {
		n     int
		tailP float64
	}{{99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {100000, 0.9999}} {
		samples := make([]float64, c.n)
		for i := range samples {
			samples[i] = float64(c.n - i) // reversed: summarize must sort
		}
		s := summarize(samples)
		if s.tailP != c.tailP {
			t.Errorf("n=%d: tail level %g, want %g", c.n, s.tailP, c.tailP)
		}
		if s.median != float64(c.n+1)/2 {
			t.Errorf("n=%d: median %g, want %g", c.n, s.median, float64(c.n+1)/2)
		}
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// resultLine prints rep and decodes its last line.
func resultLine(t *testing.T, rep *report, want []string) (res result, out string) {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.print(&buf, "provenance test", want); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, buf.String())
	}
	return res, buf.String()
}

// sameMetrics requires the result to carry exactly the declared
// metrics, each with its declared unit and a well-formed name.
func sameMetrics(t *testing.T, what string, res result, declared map[string]string) {
	t.Helper()
	for name, unit := range declared {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", what, name)
		}
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q", what, name)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	e2e, layer := benchmarkMetrics(t)
	for _, name := range workloadNames {
		l := newLedger(tinySizes, 1, 0)
		rep := l.workload(name, 1)
		l.heap.close()
		res, out := resultLine(t, rep, endToEnd)
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", name, res.Correct, res.Attempted, res.Failed, out)
		}
		sameMetrics(t, name, res, e2e)
	}

	l := newLedger(tinySizes, 1, 0)
	rep := l.ladder("")
	l.heap.close()
	res, out := resultLine(t, rep, nil)
	if !res.Correct {
		t.Errorf("ladder failed its checks\n%s", out)
	}
	sameMetrics(t, "ladder", res, layer)
}

func TestDigestCheckCatchesAFlippedByte(t *testing.T) {
	ids := []string{"fig5", "fig6"}
	rendered := map[string][]byte{}
	for _, id := range ids {
		var buf bytes.Buffer
		if err := micstream.RunExperiment(id, &buf); err != nil {
			t.Fatal(err)
		}
		rendered[id] = buf.Bytes()
	}
	want := tablesDigest(ids, rendered)
	if err := checkDigest(tablesDigest(ids, rendered), want); err != nil {
		t.Fatalf("unchanged tables: %v", err)
	}
	flipped := []byte(want)
	flipped[7] ^= 1
	if checkDigest(tablesDigest(ids, rendered), string(flipped)) == nil {
		t.Error("a flipped digest byte passed")
	}
	rendered["fig6"][3] ^= 1
	if checkDigest(tablesDigest(ids, rendered), want) == nil {
		t.Error("a flipped table byte passed")
	}
}

func TestOutcomeCheckCatchesDropsAndFailures(t *testing.T) {
	if err := checkOutcomes([]int{1, 1, 1}, 0); err != nil {
		t.Fatalf("complete stream: %v", err)
	}
	for _, c := range []struct {
		seen   []int
		failed int
		what   string
	}{
		{[]int{1, 0, 1}, 0, "a dropped outcome"},
		{[]int{1, 2, 1}, 0, "a duplicated outcome"},
		{[]int{1, 1, 1}, 1, "a failed job"},
	} {
		if checkOutcomes(c.seen, c.failed) == nil {
			t.Errorf("%s passed", c.what)
		}
	}
}

func TestStagingCheckCatchesLostBytes(t *testing.T) {
	jobs := []micstream.ClusterJob{{Origin: 0, StagingBytes: 100}, {Origin: -1}}
	res := &micstream.ClusterResult{
		Jobs: []micstream.ClusterOutcome{
			{Index: 0, Origin: 0, Device: 1, HitBytes: 60, MissBytes: 40},
			{Index: 1, Origin: -1, Device: 0},
		},
		HitBytes: 60, MissBytes: 40,
	}
	if err := checkStaging(jobs, res); err != nil {
		t.Fatalf("balanced staging: %v", err)
	}
	res.MissBytes = 30
	if checkStaging(jobs, res) == nil {
		t.Error("a total short of the staging demand passed")
	}
	res.MissBytes = 40
	res.Jobs[0].MissBytes = 30
	if checkStaging(jobs, res) == nil {
		t.Error("a job short of its staging demand passed")
	}
}

func TestSelfTimeAndChromeTrace(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 10, parent: -1, job: -1, tid: 1},
		{name: "child", start: 1, end: 3, parent: 0, job: 0, tid: 1},
		{name: "child", start: 2, end: 5, parent: 0, job: 1, tid: 1},
		{name: "child", start: 8, end: 12, parent: 0, job: 2, tid: 1},
	}
	if got := covered(spans[0], spans, []int{1, 2, 3}); got != 6 {
		t.Errorf("children cover %d ns of the root, want 6 ([1,5) and [8,10))", got)
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Args struct {
				Job, Parent int
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(trace.TraceEvents) != len(spans) || trace.TraceEvents[3].Args.Job != 2 || trace.TraceEvents[3].Args.Parent != 0 {
		t.Errorf("trace events %+v", trace.TraceEvents)
	}
}
