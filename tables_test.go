package micstream

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// paperTableIDs are the paper's 23 evaluation tables in figure order,
// the order in which bench/ledger digests them.
var paperTableIDs = []string{
	"fig5", "fig6", "fig7",
	"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f",
	"fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f",
	"fig10a", "fig10b", "fig10c", "fig10d", "fig10e", "fig10f",
	"fig11", "heuristics",
}

// clusterTableIDs are the multi-MIC cluster studies that extend the
// paper's §VI result, in registry order.
var clusterTableIDs = []string{
	"placement", "cluster-scaling", "stealing", "residency", "slicing", "drift", "slo",
}

// TestTablesMatchDigests pins the rendered bytes of the paper's tables
// to the perf ledger's digest, read from the ledger's own testdata, and
// of the two tables that print the transfer–compute overlap fraction,
// the cluster studies and the multi-tenant scheduler studies to digests
// of their own. A change to the simulated schedule or to
// the stage analysis shows here, not only in the ledger.
func TestTablesMatchDigests(t *testing.T) {
	for _, c := range []struct {
		file string
		ids  []string
	}{
		{"bench/ledger/testdata/paper_tables.sha256", paperTableIDs},
		{"internal/experiments/testdata/overlap_tables.sha256", []string{"ext-taxonomy", "ext-hotspot-pipe"}},
		{"internal/experiments/testdata/cluster_tables.sha256", clusterTableIDs},
		{"internal/experiments/testdata/sched_tables.sha256", []string{"fairness", "imbalance"}},
	} {
		want, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, id := range c.ids {
			if err := RunExperiment(id, h); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != strings.TrimSpace(string(want)) {
			t.Errorf("tables %v render to digest %s, want %s (%s)", c.ids, got, strings.TrimSpace(string(want)), c.file)
		}
	}
}
