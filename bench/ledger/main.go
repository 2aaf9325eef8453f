// Command ledger is the repository's benchmark: it drives the stack
// through its public entry points on four seeded workloads and prints
// every metric with its unit, median, quartiles and sample count, a
// provenance line, and a one-line JSON result.
//
// Usage (from the repository root):
//
//	bash bench/ledger/run.sh --workload serve-ingest --seed 1 --seconds 25 --trace 0
//	go run -C bench/ledger . -workload cluster-contended -seed 2
//	go run -C bench/ledger . -workload serve-ingest -trace 1 -trace-out ledger-trace.json
//
// An untraced run (-trace 0) measures the workload for -seconds and
// reports the end-to-end metrics. It runs in child processes (see
// childProcs), one after another, each measuring its share of the time,
// and reports each metric's median across them: one process's memory
// layout moves throughput by up to ±10% on small shared hosts, so no
// single process is a steady sample. A traced run (-trace 1) instead
// runs, in process, the layer ladder — one job stream fed to each
// layer's entry point in turn, one span per call — plus one untraced
// round of every workload for the layer counters, and reports the
// per-layer metrics. The exit status is non-zero when any correctness
// check fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	entered := time.Now()
	os.Exit(run(os.Args[1:], entered, os.Stdout, os.Stderr))
}

// endToEnd names the metrics an untraced run puts in its result line.
// latency_p99_us is printed in the table but left out: on a 2-core
// shared host its spread across runs of the same code reached 0.6 of
// its median on serve-observed and 0.26 on cluster-contended, so the
// traced run reports the serve workloads' p99 as a per-layer metric.
var endToEnd = []string{"setup_s", "jobs_per_s", "latency_p50_us", "peak_heap_mib"}

var workloadNames = []string{"paper-figures", "serve-ingest", "serve-observed", "cluster-contended"}

// childProcs is how many child processes an untraced run of workload
// measures in. Eight fresh processes of one binary read 34k–44k jobs/s
// on cluster-contended, each steady within ±3%, so five processes it
// is. One paper-figures pass over the 23 tables takes 4.5–6.5 s, so
// four processes of one pass each fill a 25-second run.
func childProcs(workload string) int {
	if workload == "paper-figures" {
		return 4
	}
	return 5
}

// run is the command with its arguments; entered is when main began,
// which ends a child process's start-up.
func run(args []string, entered time.Time, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 25, "how long an untraced run measures, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced layer ladder instead of the workload")
	traceOut := fs.String("trace-out", "", "write the ladder's spans to this file as Chrome trace JSON (with -trace 1)")
	commit := fs.String("commit", "unknown", "commit the binary was built from, for the provenance line")
	child := fs.Int("child", -1, "internal: run as child process k of an untraced run")
	started := fs.Int64("started", 0, "internal: Unix ns at which the parent started this child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case !slices.Contains(workloadNames, *workload):
		fmt.Fprintf(stderr, "ledger: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "ledger: -seconds must be positive, got %d\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "ledger: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}

	steal0, total0 := cpuTicks()
	budget := time.Duration(*seconds) * time.Second
	procs := childProcs(*workload)
	var rep *report
	want := endToEnd
	switch {
	case *trace == 1:
		l := newLedger(fullSizes, *seed, 0)
		rep = l.ladder(*traceOut)
		l.heap.close()
		want = nil // every ladder metric is a per-layer metric
	case *child >= 0:
		// Child k draws its own rounds' inputs and hands every metric,
		// not only the end-to-end ones, to the parent.
		l := newLedger(fullSizes, *seed, 1000**child)
		if *started > 0 {
			l.startup = entered.Sub(time.Unix(0, *started))
		}
		rep = l.workload(*workload, budget/time.Duration(procs))
		rep.child = true
		l.heap.close()
		want = nil
	default:
		rep = acrossProcs(args, procs, budget, stdout, stderr)
	}
	// The share of the host's CPU time the hypervisor gave to other
	// guests while this run measured: on a shared host it has reached
	// 40%, which slows every time metric far past its bound.
	var stealPct float64
	if steal1, total1 := cpuTicks(); total1 > total0 {
		stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	prov := fmt.Sprintf("provenance commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q steal=%.1f%% workload=%s seed=%d rounds=%d procs=%d seconds=%d trace=%d",
		*commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), stealPct,
		*workload, *seed, rep.rounds, procs, *seconds, *trace)
	if err := rep.print(stdout, prov, want); err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 1
	}
	if len(rep.errs) > 0 {
		return 1
	}
	return 0
}

// metric is one reported number: a value, and the spread of the
// samples it summarizes when it comes from more than one.
type metric struct {
	name, unit string
	value      float64
	spread     *summary
}

// report collects one run's metrics, job counts and failed checks.
type report struct {
	metrics           []metric
	attempted, failed int
	rounds            int
	errs              []error
	notes             []string // extra human-readable lines (self times)
	// child marks a child process's report, whose result line also
	// carries the round count for the parent.
	child bool
}

// add records a metric measured once.
func (r *report) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
}

// addMedian records the median of samples, with their spread.
func (r *report) addMedian(name, unit string, samples []float64) {
	r.addAt(name, unit, samples, 0.5)
}

// addAt records the p-quantile of samples, with their spread.
func (r *report) addAt(name, unit string, samples []float64, p float64) {
	s := summarize(samples)
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: percentile(samples, p), spread: &s})
}

// check records a failed correctness check; nil passes.
func (r *report) check(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

// print writes the metric table, the provenance line, the check
// verdicts and, last, the JSON result line holding the metrics named in
// want (every metric when want is nil).
func (r *report) print(w io.Writer, provenance string, want []string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-30s %-6s %14s %14s %14s %14s %9s  %s\n", "metric", "unit", "value", "median", "q1", "q3", "n", "tail")
	for _, m := range r.metrics {
		if m.spread == nil {
			fmt.Fprintf(bw, "%-30s %-6s %14.6g %14s %14s %14s %9d  -\n", m.name, m.unit, m.value, "-", "-", "-", 1)
			continue
		}
		s := m.spread
		tail := "-"
		if s.tailP > 0 {
			tail = fmt.Sprintf("p%.6g=%.6g", s.tailP*100, s.tailV)
		}
		fmt.Fprintf(bw, "%-30s %-6s %14.6g %14.6g %14.6g %14.6g %9d  %s\n", m.name, m.unit, m.value, s.median, s.q1, s.q3, s.n, tail)
	}
	for _, n := range r.notes {
		fmt.Fprintln(bw, n)
	}
	fmt.Fprintln(bw, provenance)
	for _, err := range r.errs {
		fmt.Fprintln(bw, "check FAILED:", err)
	}
	if len(r.errs) == 0 {
		fmt.Fprintln(bw, "checks passed")
	}

	out := result{
		Correct:   len(r.errs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]resultValue{},
	}
	if r.child {
		out.Rounds = r.rounds
	}
	for _, m := range r.metrics {
		if (want == nil || slices.Contains(want, m.name)) && !math.IsNaN(m.value) && !math.IsInf(m.value, 0) {
			out.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// result is the JSON line that ends every run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Rounds    int                    `json:"rounds,omitempty"` // child processes only
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cpuTicks reads the CPU time counters of /proc/stat: the ticks the
// hypervisor stole for other guests, and all ticks. Both are 0 where
// the file is missing.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user and nice.
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel names the host processor for the provenance line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
