package main

// Table-driven validation of the flag matrix: every contradictory or
// malformed combination must be refused up front with a usage error
// (exit 2) naming the offending flag, and the legal spellings of the
// same features must still run. The test re-executes its own binary
// with RUN_MICCLUSTER_MAIN=1 so main() runs exactly as installed,
// os.Exit and all. The default run, the four-device scaling study and
// the explanation runs (drift audit, job timeline, SLO report) match
// their golden outputs byte for byte; -update rewrites them.

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden outputs")

func TestMain(m *testing.M) {
	if os.Getenv("RUN_MICCLUSTER_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI re-invokes the test binary as the command under test and
// returns its combined output and exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RUN_MICCLUSTER_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("exec: %v", err)
		}
		return string(out), ee.ExitCode()
	}
	return string(out), 0
}

func TestCLIFlagMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary per case")
	}
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of the combined output
	}{
		// Range violations.
		{"devices zero", []string{"-devices=0"}, 2, "-devices must be positive"},
		{"depth zero", []string{"-depth=0"}, 2, "-depth must be positive"},
		{"negative steal", []string{"-steal=-1ms"}, 2, "-steal must be non-negative"},
		{"writefrac over one", []string{"-writefrac=1.5"}, 2, "-writefrac must be in [0,1]"},
		{"spread under one", []string{"-spread=0.5"}, 2, "-spread must be at least 1"},
		// Unknown names.
		{"bad place", []string{"-place=bogus"}, 2, "-place:"},
		{"bad policy", []string{"-policy=bogus"}, 2, "-policy:"},
		{"bad arrival", []string{"-arrival=bogus"}, 2, "-arrival:"},
		{"bad cache", []string{"-cache=bogus"}, 2, "-cache: unknown cache mode"},
		{"origin out of range", []string{"-devices=2", "-origins=5"}, 2, "-origins:"},
		// Contradictory combos, previously accepted and silently
		// ignored.
		{"cachecap without lru", []string{"-cachecap=1048576"}, 2, "-cachecap needs -cache=lru"},
		{"writefrac without datasets", []string{"-writefrac=0.5"}, 2, "-writefrac needs -datasets"},
		{"flight-cap without flight", []string{"-flight-cap=16"}, 2, "-flight-cap"},
		{"jobs with compare", []string{"-jobs", "-compare"}, 2, "-jobs prints one run's lifecycles"},
		{"jobs with scaling", []string{"-jobs", "-scaling"}, 2, "-jobs prints one run's lifecycles"},
		{"metrics with scaling", []string{"-metrics", "-scaling"}, 2, "-metrics snapshots one scheduler run"},
		{"trace with compare", []string{"-trace=x.json", "-compare"}, 2, "-trace records one run"},
		{"explain with compare", []string{"-explain=0", "-compare"}, 2, "describe one run"},
		{"explain out of range", []string{"-explain=99", "-njobs=4"}, 2, "-explain: job index 99 out of range"},
		{"flight-p95 without flight", []string{"-flight-p95=5ms"}, 2, "-flight-p95 needs -flight"},
		// SLO flag hygiene: the report needs a spec, the spec judges
		// one run, and a malformed spec is a usage error, not a crash.
		{"slo-json without slo", []string{"-slo-json=x.json"}, 2, "-slo-json needs -slo"},
		{"slo with compare", []string{"-slo=spec.json", "-compare"}, 2, "-slo judges one run's objectives"},
		{"slo with scaling", []string{"-slo=spec.json", "-scaling"}, 2, "-slo judges one run's objectives"},
		{"slo missing file", []string{"-slo=/nonexistent/spec.json"}, 2, "-slo:"},
		// The legal spellings still run.
		{"bare run", []string{"-njobs=4"}, 0, "placement=predicted"},
		{"lru with cap", []string{"-njobs=4", "-cache=lru", "-cachecap=1048576"}, 0, "residency:"},
		{"writefrac with datasets", []string{"-njobs=4", "-cache=lru", "-datasets=2", "-writefrac=0.5"}, 0, "residency:"},
		{"jobs alone", []string{"-njobs=4", "-jobs"}, 0, "latency"},
		{"metrics with compare", []string{"-njobs=4", "-metrics", "-compare"}, 0, "snapshots"},
		{"scaling", []string{"-njobs=4", "-scaling"}, 0, "multi-MIC scaling"},
		{"list", []string{"-list"}, 0, "placements:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, code := runCLI(t, tc.args...)
			if code != tc.code {
				t.Fatalf("miccluster %v: exit %d, want %d\n%s", tc.args, code, tc.code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("miccluster %v: output missing %q\n%s", tc.args, tc.want, out)
			}
		})
	}
}

// A malformed objective spec is refused up front with exit 2 naming
// the problem; a legal spec runs, prints the verdict table, and writes
// a byte-deterministic report.
func TestCLISLOSpecValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary per case")
	}
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	malformed := []struct {
		name, body, want string
	}{
		{"unknown field", `{"objectives": [{"bogus": 1}]}`, "unknown field"},
		{"bad duration", `{"objectives": [{"tenant": "A", "name": "x", "kind": "latency", "target": 0.9, "threshold": "fast"}]}`, "-slo:"},
		{"target out of range", `{"objectives": [{"tenant": "A", "name": "x", "kind": "latency", "target": 1.5, "threshold": "2ms"}]}`, "target"},
		{"not json", `objectives:`, "-slo:"},
	}
	for _, tc := range malformed {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runCLI(t, "-slo="+write("bad.json", tc.body))
			if code != 2 {
				t.Fatalf("exit %d, want 2\n%s", code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output missing %q:\n%s", tc.want, out)
			}
		})
	}

	good := write("good.json", `{"objectives": [
		{"tenant": "A", "name": "a-lat", "kind": "latency", "target": 0.9, "threshold": "1500us"},
		{"tenant": "B", "name": "b-deadline", "kind": "deadline", "target": 0.8, "threshold": "2ms"}
	]}`)
	outA := filepath.Join(dir, "SLO_a.json")
	outB := filepath.Join(dir, "SLO_b.json")
	for _, p := range []string{outA, outB} {
		out, code := runCLI(t, "-njobs=8", "-seed=3", "-slo="+good, "-slo-json="+p)
		if code != 0 {
			t.Fatalf("exit %d\n%s", code, out)
		}
		if !strings.Contains(out, "slo verdicts") || !strings.Contains(out, "a-lat") {
			t.Fatalf("missing verdict table:\n%s", out)
		}
	}
	a, err := os.ReadFile(outA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(outB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("SLO reports differ across identical runs:\n%s\n---\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"schema": "micstream-slo-v1"`)) {
		t.Fatalf("report missing schema header:\n%s", a)
	}
}

// A served run writes its profiles before it starts serving: by the
// time the serving line is out, the heap profile is on disk, though
// the server blocks until killed.
func TestCLIServeWritesProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-njobs=4", "-serve=127.0.0.1:0", "-memprofile=mem.pprof")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "RUN_MICCLUSTER_MAIN=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	sc := bufio.NewScanner(stdout)
	for !strings.Contains(sc.Text(), "serving OpenMetrics") {
		if !sc.Scan() {
			t.Fatalf("miccluster exited without serving: %v", sc.Err())
		}
	}
	fi, err := os.Stat(filepath.Join(dir, "mem.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("heap profile is empty while the run serves")
	}
	// The line names the bound address, so the exporter answers there.
	var url string
	for _, f := range strings.Fields(sc.Text()) {
		if strings.HasPrefix(f, "http://") {
			url = f
		}
	}
	if url == "" || strings.Contains(url, ":0/") {
		t.Fatalf("serving line %q names no bound address", sc.Text())
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.HasSuffix(body, []byte("# EOF\n")) {
		t.Fatalf("GET %s: %s, body %q", url, resp.Status, body)
	}
}

// sloSpec is CI's reference objective spec (the "slo report" step).
const sloSpec = `{"objectives": [
  {"tenant": "A", "name": "a-lat", "kind": "latency", "target": 0.9, "threshold": "1500us", "fast_burn": 8, "slow_burn": 4},
  {"tenant": "B", "name": "b-deadline", "kind": "deadline", "target": 0.8, "threshold": "2ms"}
]}
`

// Each case runs in a fresh directory holding its inputs. Its stdout
// must match testdata/<name>.golden, and every file it writes, named
// relative to that directory, testdata/<name>.<file>. A subtest is
// named after its stdout golden.
func TestCLIGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		inputs map[string]string // files written before the run
		files  []string          // files the run writes
	}{
		{name: "default"},
		{name: "scaling4", args: []string{"-scaling", "-devices", "4"}},
		// CI's drift audit plus one job's timeline and both
		// where-time-goes tables.
		{name: "drift", args: []string{"-slice=1", "-steal=1ns", "-policy=sjf", "-njobs=96", "-spread=16", "-depth=4",
			"-drift=DRIFT.json", "-explain", "7"}, files: []string{"DRIFT.json"}},
		// README's stealing run, audited: the stolen and staged regimes.
		{name: "steal-drift", args: []string{"-steal=1ns", "-arrival=bursty", "-affinity=1", "-origins=0",
			"-xfer=8388608", "-depth=16", "-drift=DRIFT.json"}, files: []string{"DRIFT.json"}},
		// A sliced, stealing run with one mid-job migration: the
		// migrated, plain and staged regimes.
		{name: "migrate-drift", args: []string{"-slice=1", "-steal=1ns", "-policy=sjf", "-spread=16", "-arrival=bursty",
			"-affinity=1", "-origins=0", "-drift=DRIFT.json"}, files: []string{"DRIFT.json"}},
		// CI's SLO report, violations with their attributed phases.
		{name: "slo", args: []string{"-njobs=48", "-seed=3", "-slo=spec.json", "-slo-json=SLO.json"},
			inputs: map[string]string{"spec.json": sloSpec}, files: []string{"SLO.json"}},
	} {
		t.Run(tc.name+".golden", func(t *testing.T) {
			dir := t.TempDir()
			for name, body := range tc.inputs {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "RUN_MICCLUSTER_MAIN=1")
			var out, errOut bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &errOut
			if err := cmd.Run(); err != nil {
				t.Fatalf("miccluster %v: %v\n%s", tc.args, err, errOut.String())
			}
			compareGolden(t, tc.name+".golden", out.Bytes())
			for _, f := range tc.files {
				got, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				compareGolden(t, tc.name+"."+f, got)
			}
		})
	}
}

// compareGolden matches got against testdata/<golden>, rewriting it
// first under -update.
func compareGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
