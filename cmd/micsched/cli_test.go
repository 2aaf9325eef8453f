package main

// Table-driven validation of the flag matrix (see the miccluster
// counterpart): malformed flags exit 2 with a usage error naming the
// flag, legal runs succeed, and the default run matches its golden
// output byte for byte. Re-executes the test binary with
// RUN_MICSCHED_MAIN=1 so main() runs as installed; -update rewrites
// the golden.

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden output")

func TestMain(m *testing.M) {
	if os.Getenv("RUN_MICSCHED_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RUN_MICSCHED_MAIN=1")
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
		{"scale zero", []string{"-scale=0"}, 2, "-scale must be positive"},
		{"partitions zero", []string{"-partitions=0"}, 2, "-partitions must be positive"},
		{"window zero", []string{"-window=0"}, 2, "-window must be positive"},
		{"bad policy", []string{"-policy=bogus"}, 2, "-policy:"},
		{"bad pattern", []string{"-pattern=bogus"}, 2, "-pattern: unknown load pattern"},
		{"bad arrival", []string{"-arrival=bogus"}, 2, "-arrival: unknown arrival process"},
		// -explain=-5 used to silently mean "disabled"; only -1 is the
		// documented off switch.
		{"explain below -1", []string{"-explain=-5"}, 2, "-explain: job index must be -1"},
		{"bare run", []string{"-pattern=balanced"}, 0, "Jain index"},
		{"explain", []string{"-pattern=balanced", "-explain=0"}, 0, "where time goes"},
		{"list", []string{"-list"}, 0, "policies:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, code := runCLI(t, tc.args...)
			if code != tc.code {
				t.Fatalf("micsched %v: exit %d, want %d\n%s", tc.args, code, tc.code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("micsched %v: output missing %q\n%s", tc.args, tc.want, out)
			}
		})
	}
}

func TestCLIGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RUN_MICSCHED_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("micsched: %v\n%s", err, errOut.String())
	}
	path := filepath.Join("testdata", "default.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output differs from %s:\n got:\n%s\nwant:\n%s", path, out.String(), want)
	}
}
