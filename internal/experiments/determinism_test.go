package experiments

import (
	"reflect"
	"testing"

	"micstream/internal/cluster"
	"micstream/internal/telemetry"
)

// TestExperimentsDeterministicAcrossRepeats is the determinism
// regression suite: every registered experiment runs twice and the
// full tables must be byte-for-byte identical — any hidden map
// iteration, wall-clock read or shared-state leak in a generator
// shows up here (and, under CI's -race run, as a race). Table-level
// equality alone can mask compensating divergence inside a run, so
// TestStudyCellResultsDeterministic additionally diffs complete
// Result structs for one cell of each study.
func TestExperimentsDeterministicAcrossRepeats(t *testing.T) {
	for _, id := range IDs() {
		id := id
		g, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q vanished from the registry", id)
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			first, err := g()
			if err != nil {
				t.Fatal(err)
			}
			second, err := g()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("experiment %q diverges across repeats", id)
			}
		})
	}
}

// TestStudyCellResultsDeterministic repeats one representative cell of
// each named study and diffs the complete Result struct — per-job
// outcomes, migration histories, device aggregates, tenant stats —
// not the formatted summary rows. The drift row adds the event log,
// the slo row the evaluator's verdicts and the flight dumps.
func TestStudyCellResultsDeterministic(t *testing.T) {
	cells := []struct {
		name string
		run  func(seed uint64) (any, error)
	}{
		{"fairness", func(seed uint64) (any, error) {
			return runSchedScenario("adaptive", "severe", seed)
		}},
		{"placement", func(seed uint64) (any, error) {
			return placementScenarios[2].cell(cluster.Predicted).run(seed)
		}},
		{"stealing", func(seed uint64) (any, error) {
			return stealingScenarios[2].cell(cluster.Predicted).run(seed, cluster.WithStealing(0))
		}},
		{"residency", func(seed uint64) (any, error) {
			return residencyCell(cluster.Affinity, cluster.WithResidency(0)).run(seed)
		}},
		{"slicing", func(seed uint64) (any, error) {
			return convoy.run(seed, cluster.WithSlicing(convoySliceCap))
		}},
		{"slicing-guard", func(seed uint64) (any, error) {
			return slicingGuards[2].cell.run(seed, cluster.WithSlicing(2))
		}},
		{"drift", func(seed uint64) (any, error) {
			rec := telemetry.NewRecorder()
			r, err := driftMixes[1].cell.run(seed, cluster.WithTelemetry(rec))
			return []any{r, rec.Events()}, err
		}},
		{"slo", func(seed uint64) (any, error) {
			c, err := sloMixes[0].observe(seed)
			if err != nil {
				return nil, err
			}
			return []any{c.result, c.eval.States(), c.eval.Violations(), c.flight.Dumps()}, nil
		}},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			first, err := c.run(clusterSeed)
			if err != nil {
				t.Fatal(err)
			}
			second, err := c.run(clusterSeed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("%s cell diverges across repeats of seed %d", c.name, clusterSeed)
			}
			other, err := c.run(clusterSeed + 1)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(first, other) {
				t.Errorf("%s cell is seed-blind: seeds %d and %d coincide", c.name, clusterSeed, clusterSeed+1)
			}
		})
	}
}
