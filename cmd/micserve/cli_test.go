package main

// Table-driven validation of the flag matrix (see the miccluster
// counterpart): malformed flags and contradictory combos exit 2 with
// a usage error naming the flag, legal ingest runs succeed — including
// the -verify replay check. Re-executes the test binary with
// RUN_MICSERVE_MAIN=1 so main() runs as installed.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("RUN_MICSERVE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RUN_MICSERVE_MAIN=1")
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
		want string
	}{
		{"jobs zero", []string{"-jobs=0"}, 2, "-jobs must be positive"},
		{"submitters zero", []string{"-submitters=0"}, 2, "-submitters must be positive"},
		{"negative rate", []string{"-rate=-1"}, 2, "-rate must be non-negative"},
		{"queuecap zero", []string{"-queuecap=0"}, 2, "-queuecap must be positive"},
		{"negative batchcap", []string{"-batchcap=-1"}, 2, "-batchcap must be non-negative"},
		{"drain zero", []string{"-drain=0"}, 2, "-drain must be positive"},
		{"bad place", []string{"-place=bogus"}, 2, "-place:"},
		{"bad cache", []string{"-cache=bogus"}, 2, "-cache: unknown cache mode"},
		{"cachecap without lru", []string{"-cachecap=1048576"}, 2, "-cachecap needs -cache=lru"},
		{"slo-json without slo", []string{"-slo-json=x.json"}, 2, "-slo-json needs -slo"},
		{"slo missing file", []string{"-slo=/nonexistent/spec.json"}, 2, "-slo:"},
		{"ingest run", []string{"-jobs=64", "-submitters=4"}, 0, "jobs/sec sustained"},
		{"verify replay", []string{"-jobs=64", "-submitters=4", "-verify"}, 0, "replay     bit-identical"},
		{"lru with cap", []string{"-jobs=64", "-cache=lru", "-cachecap=1048576"}, 0, "jobs/sec sustained"},
		{"throttled", []string{"-jobs=32", "-submitters=4", "-rate=100000"}, 0, "jobs/sec sustained"},
		{"list", []string{"-list"}, 0, "placements:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, code := runCLI(t, tc.args...)
			if code != tc.code {
				t.Fatalf("micserve %v: exit %d, want %d\n%s", tc.args, code, tc.code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("micserve %v: output missing %q\n%s", tc.args, tc.want, out)
			}
		})
	}
}

// TestSLOIngest pins the -slo ingest path: a malformed spec exits 2
// before any ingest, a legal one prints per-objective verdicts and
// writes the report.
func TestSLOIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"objectives": [{"bogus": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCLI(t, "-slo="+bad)
	if code != 2 || !strings.Contains(out, "unknown field") {
		t.Fatalf("malformed spec: exit %d\n%s", code, out)
	}

	good := filepath.Join(dir, "good.json")
	spec := `{"objectives": [{"tenant": "t0", "name": "t0-lat", "kind": "latency", "target": 0.9, "threshold": "1s"}]}`
	if err := os.WriteFile(good, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(dir, "SLO_serve.json")
	out, code = runCLI(t, "-jobs=64", "-submitters=4", "-slo="+good, "-slo-json="+report)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "slo        t0-lat (tenant t0)") {
		t.Fatalf("missing verdict line:\n%s", out)
	}
	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"schema": "micstream-slo-v1"`) {
		t.Fatalf("report missing schema header:\n%s", b)
	}
}
