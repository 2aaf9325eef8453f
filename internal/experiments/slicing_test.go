package experiments

import (
	"reflect"
	"testing"

	"micstream/internal/cluster"
)

// TestSlicingConvoyRelief asserts the headline of the slicing study —
// the ISSUE's acceptance contract: on the convoy mix, slicing with
// task-granularity stealing improves the interactive tenant's p95
// response time by ≥ 20% over whole-job stealing, and the relief is
// bought with mid-job migrations actually firing on at least one seed.
func TestSlicingConvoyRelief(t *testing.T) {
	rows, err := runSlicingStudy()
	if err != nil {
		t.Fatal(err)
	}
	p95 := rows[0]
	if p95.scenario != "convoy" || p95.metric != "interactive p95" {
		t.Fatalf("row 0 is %s/%s, want the convoy p95 row", p95.scenario, p95.metric)
	}
	if p95.delta > -0.20 {
		t.Errorf("convoy interactive p95 delta %+.1f%%, want ≤ −20%% (%.3f → %.3f ms)",
			p95.delta*100, p95.base, p95.sliced)
	}
	if p95.preempts <= 0 {
		t.Error("no convoy seed recorded a mid-job migration")
	}
}

// TestSlicingNeverLoses asserts the no-regression half of the
// contract: with slicing toggled on, none of the earlier studies'
// mixes loses more than 1% of mean makespan — including the convoy
// mix's own makespan, which buys its p95 relief without trading away
// throughput.
func TestSlicingNeverLoses(t *testing.T) {
	rows, err := runSlicingStudy()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + len(slicingGuards); len(rows) != want {
		t.Fatalf("slicing study has %d rows, want %d", len(rows), want)
	}
	for _, r := range rows[1:] {
		if r.metric != "makespan" {
			t.Fatalf("%s: unexpected metric %q past row 0", r.scenario, r.metric)
		}
		if r.delta > 0.01 {
			t.Errorf("%s: slicing regresses mean makespan %+.2f%% (%.3f → %.3f ms), want ≤ +1%%",
				r.scenario, r.delta*100, r.base, r.sliced)
		}
	}
}

// TestSlicingBitIdenticalRepeats asserts the determinism contract on
// the sliced convoy cell: the full Result — slice counts, migration
// history, telemetry-visible decisions included — is byte-for-byte
// identical across repeats of one seed, and seeds do differ.
func TestSlicingBitIdenticalRepeats(t *testing.T) {
	run := func(seed uint64) any {
		r, err := convoy.run(seed, cluster.WithSlicing(convoySliceCap))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if !reflect.DeepEqual(run(clusterSeed), run(clusterSeed)) {
		t.Error("sliced convoy repeats diverge for one seed")
	}
	if reflect.DeepEqual(run(clusterSeed), run(clusterSeed+1)) {
		t.Error("different seeds produce identical sliced convoy results")
	}
}

// TestSlicingRegistered asserts the registry wiring and table shape.
func TestSlicingRegistered(t *testing.T) {
	if _, ok := Lookup("slicing"); !ok {
		t.Fatal("experiment \"slicing\" not registered")
	}
	tab, err := Slicing()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 6 || len(tab.Rows) != 2+len(slicingGuards) {
		t.Fatalf("slicing table is %d×%d, want %d×6", len(tab.Rows), len(tab.Columns), 2+len(slicingGuards))
	}
}
