package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"micstream/internal/sim"
	"micstream/internal/trace"
)

// WriteChromeTrace renders a run as Chrome trace-event JSON — the
// format chrome://tracing and Perfetto load — unifying the two
// recorders the platform keeps: the hstreams span recorder (per-
// resource H2D/EXE/D2H occupancy, the paper's Fig. 1 material) and the
// telemetry event log (scheduling decisions). Each device becomes one
// process ("mic0", "mic1", …) whose threads are its trace resources
// (PCIe link, partitions) plus one synthetic "jobs/stream<N>" track per
// stream carrying job-level slices from Dispatch→Complete; scheduling
// decisions render as instant events (admit/place/fail on the
// "cluster" process, steal on the thief, stage/hit/evict/invalidate/
// drain on their device) and drain-instant metrics as counter series.
// Either input may be nil/empty. Output is deterministic: tracks are
// numbered by sorted name, events keep emission order, timestamps are
// exact (virtual nanoseconds rendered as fixed-point microseconds).
func WriteChromeTrace(w io.Writer, spans []trace.Span, r *Recorder) error {
	cw := &chromeWriter{w: w}
	cw.begin()

	// Assign (pid, tid) tracks. Span resources name themselves; job
	// slices from Complete events get a per-stream track on their
	// device's process.
	tracks := map[string]int{} // "pid/name" → tid
	var names []string
	addTrack := func(pid int, name string) {
		key := fmt.Sprintf("%d/%s", pid, name)
		if _, ok := tracks[key]; !ok {
			tracks[key] = 0
			names = append(names, key)
		}
	}
	for _, s := range spans {
		addTrack(pidOf(s.Resource), s.Resource)
	}
	for _, e := range r.Events() {
		if e.Kind == Complete && e.Device >= 0 && e.Stream >= 0 {
			addTrack(e.Device+1, fmt.Sprintf("jobs/stream%d", e.Stream))
		}
	}
	sort.Strings(names)
	pids := map[int]bool{0: true}
	for tid, key := range names {
		tracks[key] = tid + 1 // tid 0 is the counter track
		slash := strings.IndexByte(key, '/')
		pid, _ := strconv.Atoi(key[:slash])
		pids[pid] = true
	}

	// Metadata: process and thread names, sorted for stable output.
	pidList := make([]int, 0, len(pids))
	for pid := range pids {
		pidList = append(pidList, pid)
	}
	sort.Ints(pidList)
	for _, pid := range pidList {
		name := "cluster"
		if pid > 0 {
			name = fmt.Sprintf("mic%d", pid-1)
		}
		cw.event(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`, pid, quote(name))
	}
	for _, key := range names {
		slash := strings.IndexByte(key, '/')
		pid, _ := strconv.Atoi(key[:slash])
		cw.event(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`, pid, tracks[key], quote(key[slash+1:]))
	}

	// Resource occupancy spans, one "X" slice each.
	for _, s := range spans {
		pid := pidOf(s.Resource)
		label := s.Kind.String()
		if s.Label != "" {
			label = s.Label
		}
		cw.event(`{"name":%s,"cat":"span","ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{"kind":%s,"stream":%d,"task":%d}}`,
			quote(label), usOf(int64(s.Start)), usOf(int64(s.Duration())), pid, tracks[fmt.Sprintf("%d/%s", pid, s.Resource)],
			quote(s.Kind.String()), s.Stream, s.Task)
	}

	// Scheduling decisions: job slices and instant events.
	for _, e := range r.Events() {
		cw.decision(e, tracks)
	}

	// Drain-instant metrics as counter series (tid 0 of each process).
	for _, m := range r.Metrics() {
		cw.event(`{"name":"cluster","cat":"metrics","ph":"C","ts":%s,"pid":0,"tid":0,"args":{"queued":%d,"done":%d,"steals":%d}}`,
			usOf(int64(m.At)), m.ClusterQueue, m.Done, m.Steals)
		for _, d := range m.Devices {
			cw.event(`{"name":"device","cat":"metrics","ph":"C","ts":%s,"pid":%d,"tid":0,"args":{"queued":%d,"inflight":%d,"resident":%d}}`,
				usOf(int64(m.At)), d.Device+1, d.Queued, d.InFlight, d.ResidentBytes)
		}
	}

	return cw.end()
}

// decision renders one telemetry event. Complete events become job
// slices (their Dur is the realized service, so the slice spans
// dispatch→completion); everything else becomes an instant.
func (cw *chromeWriter) decision(e Event, tracks map[string]int) {
	job := quote(fmt.Sprintf("job %d (%s)", e.ID, e.Tenant))
	switch e.Kind {
	case Complete:
		if e.Device >= 0 && e.Stream >= 0 {
			tid := tracks[fmt.Sprintf("%d/jobs/stream%d", e.Device+1, e.Stream)]
			cw.event(`{"name":%s,"cat":"job","ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{"job":%d,"tenant":%s}}`,
				job, usOf(int64(e.At)-int64(e.Dur)), usOf(int64(e.Dur)), e.Device+1, tid, e.Job, quote(e.Tenant))
		}
	case Admit:
		cw.instant("admit", "g", 0, fmt.Sprintf(`"job":%d,"tenant":%s,"est_us":%s`, e.Job, quote(e.Tenant), usOf(int64(e.Dur))), e)
	case Place:
		args := fmt.Sprintf(`"job":%d,"device":%d`, e.Job, e.Device)
		if len(e.Scores) > 0 {
			var sb strings.Builder
			for i, s := range e.Scores {
				if i > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, `{"dev":%d,"predicted_us":%s}`, s.Device, usOf(int64(s.Predicted)))
			}
			args += `,"scores":[` + sb.String() + `]`
		}
		cw.instant("place", "g", 0, args, e)
	case Dispatch:
		cw.instant("dispatch", "p", e.Device+1, fmt.Sprintf(`"job":%d,"stream":%d,"est_us":%s`, e.Job, e.Stream, usOf(int64(e.Dur))), e)
	case Fail:
		cw.instant("fail", "g", 0, fmt.Sprintf(`"job":%d,"tenant":%s`, e.Job, quote(e.Tenant)), e)
	case Steal:
		cw.instant("steal", "g", max(e.Device+1, 0),
			fmt.Sprintf(`"job":%d,"thief":%d,"victim":%d,"gain_us":%s`, e.Job, e.Device, e.From, usOf(int64(e.Dur))), e)
	case Hit:
		cw.instant("residency-hit", "p", e.Device+1, fmt.Sprintf(`"job":%d,"bytes":%d`, e.Job, e.Bytes), e)
	case Stage:
		cw.instant("stage", "p", e.Device+1, fmt.Sprintf(`"job":%d,"bytes":%d,"link_us":%s`, e.Job, e.Bytes, usOf(int64(e.Dur))), e)
	case Evict:
		cw.instant("evict", "p", e.Device+1, fmt.Sprintf(`"bytes":%d`, e.Bytes), e)
	case Invalidate:
		cw.instant("invalidate", "p", e.Device+1, fmt.Sprintf(`"writer":%d,"bytes":%d`, e.From, e.Bytes), e)
	case Drain:
		cw.instant("drain", "p", e.Device+1, fmt.Sprintf(`"job":%d`, e.Job), e)
	case Slice:
		cw.instant("slice", "p", e.Device+1, fmt.Sprintf(`"job":%d,"stream":%d,"est_us":%s`, e.Job, e.Stream, usOf(int64(e.Dur))), e)
	case Preempt:
		cw.instant("preempt", "g", max(e.Device+1, 0),
			fmt.Sprintf(`"job":%d,"thief":%d,"victim":%d,"gain_us":%s`, e.Job, e.Device, e.From, usOf(int64(e.Dur))), e)
	case Requeue:
		cw.instant("requeue", "p", e.Device+1,
			fmt.Sprintf(`"job":%d,"stream":%d,"ran_us":%s`, e.Job, e.Stream, usOf(int64(e.Dur))), e)
	}
}

// instant emits one instant ("i") event with the given scope and args.
func (cw *chromeWriter) instant(name, scope string, pid int, args string, e Event) {
	cw.event(`{"name":%s,"cat":"decision","ph":"i","s":%s,"ts":%s,"pid":%d,"tid":0,"args":{%s}}`,
		quote(name), quote(scope), usOf(int64(e.At)), pid, args)
}

// chromeWriter accumulates trace events with comma discipline and a
// sticky error, so the export reads as one pass.
type chromeWriter struct {
	w   io.Writer
	n   int
	err error
}

func (cw *chromeWriter) begin() {
	_, cw.err = io.WriteString(cw.w, "{\"traceEvents\":[\n")
}

func (cw *chromeWriter) event(format string, args ...any) {
	if cw.err != nil {
		return
	}
	sep := ",\n"
	if cw.n == 0 {
		sep = ""
	}
	cw.n++
	_, cw.err = fmt.Fprintf(cw.w, sep+format, args...)
}

func (cw *chromeWriter) end() error {
	if cw.err != nil {
		return cw.err
	}
	_, cw.err = io.WriteString(cw.w, "\n]}\n")
	return cw.err
}

// usOf renders virtual nanoseconds as the trace format's microsecond
// timestamps, exactly: fixed-point with three decimals, so no float
// rounding can perturb byte-identical exports.
func usOf(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// pidOf maps a span resource to its process: "mic<d>/…" resources
// belong to device d's process (pid d+1), everything else (host work)
// to the cluster process (pid 0).
func pidOf(resource string) int {
	if !strings.HasPrefix(resource, "mic") {
		return 0
	}
	rest := resource[3:]
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		slash = len(rest)
	}
	d, err := strconv.Atoi(rest[:slash])
	if err != nil || d < 0 {
		return 0
	}
	return d + 1
}

// quote JSON-escapes a string, covering the control, quote and
// backslash cases our labels can contain.
func quote(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for _, r := range s {
		switch {
		case r == '"':
			sb.WriteString(`\"`)
		case r == '\\':
			sb.WriteString(`\\`)
		case r < 0x20:
			fmt.Fprintf(&sb, `\u%04x`, r)
		default:
			sb.WriteRune(r)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

// Makespan reports the end of the latest recorded event — a
// convenience mirror of trace.Recorder.Makespan for logs without
// spans.
func (r *Recorder) Makespan() sim.Time {
	var m sim.Time
	for _, e := range r.Events() {
		if e.At > m {
			m = e.At
		}
	}
	return m
}
