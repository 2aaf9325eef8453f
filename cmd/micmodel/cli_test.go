package main

// End-to-end check of the installed command: the predicted-vs-simulated
// curve for MM matches its golden output byte for byte. Re-executes the
// test binary with RUN_MICMODEL_MAIN=1 so main() runs as installed (see
// the micgantt counterpart); -update rewrites the golden.

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden output")

func TestMain(m *testing.M) {
	if os.Getenv("RUN_MICMODEL_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestCLIGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-app", "mm")
	cmd.Env = append(os.Environ(), "RUN_MICMODEL_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("micmodel: %v\n%s", err, errOut.String())
	}
	path := filepath.Join("testdata", "mm.golden")
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
