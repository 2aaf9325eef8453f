package main

// End-to-end check of the installed command: the experiment list and
// one figure table match their golden outputs byte for byte.
// Re-executes the test binary with RUN_MICBENCH_MAIN=1 so main() runs
// as installed (see the micgantt counterpart); -update rewrites the
// goldens.

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden outputs")

func TestMain(m *testing.M) {
	if os.Getenv("RUN_MICBENCH_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestCLIGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"list.golden", []string{"-list"}},
		{"fig5.golden", []string{"-fig", "5"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "RUN_MICBENCH_MAIN=1")
			var out, errOut bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &errOut
			if err := cmd.Run(); err != nil {
				t.Fatalf("micbench %v: %v\n%s", tc.args, err, errOut.String())
			}
			path := filepath.Join("testdata", tc.golden)
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
		})
	}
}
