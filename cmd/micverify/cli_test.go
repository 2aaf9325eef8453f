package main

// End-to-end check of the installed command: every functional check
// passes against its host reference and the run exits 0. Re-executes
// the test binary with RUN_MICVERIFY_MAIN=1 so main() runs as
// installed (see the micsched counterpart).

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("RUN_MICVERIFY_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestCLIVerifiesAllApps(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RUN_MICVERIFY_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("micverify: %v\n%s%s", err, out.String(), errOut.String())
	}
	ok := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "ok ") {
			ok++
		}
	}
	if ok != 9 {
		t.Errorf("%d ok lines, want 9:\n%s", ok, out.String())
	}
	if !strings.Contains(out.String(), "all 9 functional checks verified") {
		t.Errorf("summary line missing:\n%s", out.String())
	}
}
