package main

// End-to-end checks of the installed command: a small search matches
// its golden output byte for byte, and non-positive flags exit 2 with
// the usage message. Re-executes the test binary with
// RUN_MICTUNE_MAIN=1 so main() runs as installed (see the micsched
// counterpart).

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
	if os.Getenv("RUN_MICTUNE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RUN_MICTUNE_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("exec: %v", err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errOut.String(), code
}

func TestCLIGolden(t *testing.T) {
	out, errOut, code := runCLI(t, "-maxp", "8", "-maxt", "16", "-topk", "4")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut)
	}
	path := filepath.Join("testdata", "small.golden")
	if *update {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if out != string(want) {
		t.Fatalf("output differs from %s:\n got:\n%s\nwant:\n%s", path, out, want)
	}
}

func TestCLIRejectsNonPositiveFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-topk", "0"}, "-topk must be at least 1"},
		{[]string{"-maxp", "0"}, "-maxp must be at least 1"},
		{[]string{"-flops", "-1"}, "-flops must be positive"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			t.Parallel()
			out, errOut, code := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("mictune %v: exit %d, want 2\n%s", tc.args, code, errOut)
			}
			if out != "" {
				t.Errorf("mictune %v: unexpected stdout %q", tc.args, out)
			}
			for _, want := range []string{tc.want, "Usage of", "-topk int"} {
				if !strings.Contains(errOut, want) {
					t.Errorf("mictune %v: stderr missing %q\n%s", tc.args, want, errOut)
				}
			}
		})
	}
}
