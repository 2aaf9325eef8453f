package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// acrossProcs runs an untraced workload in procs child processes of
// this binary, one after another, each measuring budget/procs, and
// reports every metric's median across them. The children's own
// reports are copied to stdout, each line prefixed with its process
// number; their diagnostics go to stderr.
func acrossProcs(args []string, procs int, budget time.Duration, stdout, stderr io.Writer) *report {
	rep := &report{}
	exe, err := os.Executable()
	if err != nil {
		rep.check(err)
		return rep
	}
	// Set-up, checks and process start come on top of each child's
	// share; the deadline only catches a hung child.
	ctx, cancel := context.WithTimeout(context.Background(), budget+150*time.Second)
	defer cancel()
	var order []string
	values := map[string][]float64{}
	units := map[string]string{}
	for k := 0; k < procs; k++ {
		var out bytes.Buffer
		childArgs := append(slices.Clip(args), "-child", strconv.Itoa(k), "-started", strconv.FormatInt(time.Now().UnixNano(), 10))
		cmd := exec.CommandContext(ctx, exe, childArgs...)
		cmd.Stdout = &out
		cmd.Stderr = stderr
		dieWithParent(cmd)
		runErr := cmd.Run()
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		for _, line := range lines[:len(lines)-1] {
			fmt.Fprintf(stdout, "[proc %d] %s\n", k, line)
		}
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			rep.check(fmt.Errorf("process %d: no result line (%v): %v", k, runErr, err))
			return rep
		}
		rep.attempted += res.Attempted
		rep.failed += res.Failed
		if runErr != nil || !res.Correct {
			rep.check(fmt.Errorf("process %d failed its checks (%v)", k, runErr))
		}
		for name, m := range res.Metrics {
			if _, seen := units[name]; !seen {
				order = append(order, name)
				units[name] = m.Unit
			}
			values[name] = append(values[name], m.Value)
		}
		rep.rounds += res.Rounds
	}
	// End-to-end metrics first, in their declared order, then the rest
	// by name.
	rank := func(name string) int {
		if i := slices.Index(endToEnd, name); i >= 0 {
			return i
		}
		return len(endToEnd)
	}
	slices.SortFunc(order, func(a, b string) int {
		return cmp.Or(rank(a)-rank(b), strings.Compare(a, b))
	})
	for _, name := range order {
		rep.addMedian(name, units[name], values[name])
	}
	return rep
}
