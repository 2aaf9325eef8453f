package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"micstream/internal/slo"
)

// findState pulls one objective's final state out of a cell.
func findState(t *testing.T, cell *sloCell, name string) slo.ObjectiveState {
	t.Helper()
	for _, st := range cell.eval.States() {
		if st.Objective.Name == name {
			return st
		}
	}
	t.Fatalf("objective %q missing from evaluator states", name)
	return slo.ObjectiveState{}
}

// The alert-ordering contract: on the convoy mix the tight-objective
// tenant (interactive, 2ms) alerts strictly before the loose-objective
// tenant (batch, 40ms); on the imbalance mix the tight objective of
// one tenant alerts strictly before its loose sibling.
func TestSLOTightAlertsBeforeLoose(t *testing.T) {
	convoy, err := sloMixes[0].observe(clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	tight := findState(t, convoy, "int-tight")
	loose := findState(t, convoy, "batch-loose")
	if tight.FirstAlertAt == 0 || loose.FirstAlertAt == 0 {
		t.Fatalf("convoy alerts missing: tight %v, loose %v", tight.FirstAlertAt, loose.FirstAlertAt)
	}
	if tight.FirstAlertAt >= loose.FirstAlertAt {
		t.Fatalf("tight tenant alerted at %v, not before loose tenant at %v", tight.FirstAlertAt, loose.FirstAlertAt)
	}

	imb, err := sloMixes[1].observe(clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	aTight := findState(t, imb, "a-tight")
	aLoose := findState(t, imb, "a-loose")
	if aTight.FirstAlertAt == 0 || aLoose.FirstAlertAt == 0 {
		t.Fatalf("imbalance alerts missing: tight %v, loose %v", aTight.FirstAlertAt, aLoose.FirstAlertAt)
	}
	if aTight.FirstAlertAt >= aLoose.FirstAlertAt {
		t.Fatalf("imbalance tight alerted at %v, not before loose at %v", aTight.FirstAlertAt, aLoose.FirstAlertAt)
	}
}

// Budget exhaustion triggers the flight recorder: the convoy run's
// dump list carries an exhaustion-labeled capture whose instant
// matches the evaluator's own exhaustion instant.
func TestSLOExhaustionFiresFlightRecorder(t *testing.T) {
	cell, err := sloMixes[0].observe(clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	tight := findState(t, cell, "int-tight")
	if !tight.Exhausted {
		t.Fatal("convoy tight objective never exhausted its budget")
	}
	found := false
	for _, d := range cell.flight.Dumps() {
		if strings.Contains(d.Reason, `slo "int-tight"`) && strings.Contains(d.Reason, "error budget exhausted") {
			found = true
			if d.At != tight.ExhaustedAt {
				t.Fatalf("dump at %v, evaluator exhausted at %v", d.At, tight.ExhaustedAt)
			}
			if len(d.Events) == 0 {
				t.Fatal("exhaustion dump captured no events")
			}
		}
	}
	if !found {
		t.Fatalf("no exhaustion dump for int-tight among %d dumps", len(cell.flight.Dumps()))
	}
}

// Violations are attributed through the causal timeline: the convoy's
// interactive breaches are wait-dominated (the tenant is trapped
// behind the batch convoy, not slow to execute).
func TestSLOViolationsAttributeToWait(t *testing.T) {
	cell, err := sloMixes[0].observe(clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	waits := 0
	var total int
	for _, v := range cell.eval.Violations() {
		if v.Objective != "int-tight" {
			continue
		}
		total++
		if v.Phase == "place-wait" || v.Phase == "commit-wait" {
			waits++
		}
	}
	if total == 0 {
		t.Fatal("no int-tight violations recorded")
	}
	if waits*2 < total {
		t.Fatalf("only %d/%d interactive breaches attributed to wait phases", waits, total)
	}
}

// Same seed, same spec: the SLO_<run>.json artifact is byte-identical
// across repeated runs.
func TestSLOReportByteIdentical(t *testing.T) {
	for _, mix := range sloMixes {
		a, err := mix.observe(clusterSeed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mix.observe(clusterSeed)
		if err != nil {
			t.Fatal(err)
		}
		ja, err := sloReportBytes(a, clusterSeed)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := sloReportBytes(b, clusterSeed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%s SLO report differs across identical runs:\n%s\n---\n%s", mix.name, ja, jb)
		}
	}
}

// The whole SLO stack is an observer: the instrumented convoy run's
// Result is deep-equal to a bare run of the same stamped job list.
func TestSLOInstrumentationNeverPerturbs(t *testing.T) {
	instrumented, err := sloMixes[0].observe(clusterSeed)
	if err != nil {
		t.Fatal(err)
	}

	bare, err := sloMixes[0].stamped().run(clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(instrumented.result, bare) {
		t.Fatal("SLO instrumentation perturbed the run's Result")
	}
}

// The registered table carries one row per objective per mix, with the
// verdict columns populated.
func TestSLOTableShape(t *testing.T) {
	tbl, err := SLO()
	if err != nil {
		t.Fatal(err)
	}
	want := len(sloStudySpec.Objectives) + len(sloImbalanceSpec.Objectives)
	if len(tbl.Rows) != want {
		t.Fatalf("table has %d rows, want %d", len(tbl.Rows), want)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(tbl.Columns))
		}
	}
	// Deadline stamping reaches the batch Result accounting too.
	cell, err := sloMixes[0].observe(clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	if cell.result.DeadlineMisses == 0 {
		t.Fatal("convoy run recorded no deadline misses despite stamped 45ms deadlines")
	}
	dl := findState(t, cell, "batch-deadline")
	if dl.Bad != cell.result.DeadlineMisses {
		t.Fatalf("evaluator saw %d deadline breaches, Result counted %d", dl.Bad, cell.result.DeadlineMisses)
	}
}
