package experiments

import (
	"fmt"

	"micstream/internal/apps/cf"
	"micstream/internal/apps/hotspot"
	"micstream/internal/apps/kmeans"
	"micstream/internal/apps/mm"
	"micstream/internal/apps/nn"
	"micstream/internal/apps/srad"
	"micstream/internal/core"
)

func init() {
	register("ext-taxonomy", ExtTaxonomy)
}

// ExtTaxonomy measures the paper's Fig. 4 classification instead of
// asserting it: for every application's streamed run, the fraction of
// transfer time hidden behind kernel execution, taken from the trace.
// Overlappable applications (MM, CF, NN) show substantial overlap;
// non-overlappable ones (Kmeans, Hotspot, SRAD) show little — their
// iteration barriers leave transfers exposed regardless of streams.
func ExtTaxonomy() (*Table, error) {
	t := &Table{
		ID:      "ext-taxonomy",
		Title:   "measured transfer/compute overlap per application (streamed runs)",
		Columns: []string{"application", "class (paper Fig. 4)", "overlap"},
	}
	add := func(name, class string, res core.Result, err error) error {
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{name, class, fmt.Sprintf("%.0f%%", res.OverlapFraction*100)})
		return nil
	}

	rig := new(core.Rig)
	mmApp, err := mm.New(mm.Params{N: 4000})
	if err != nil {
		return nil, err
	}
	res, err := mmApp.Run(rig, 4, 8)
	if err := add("mm", "overlappable", res, err); err != nil {
		return nil, err
	}

	cfApp, err := cf.New(cf.Params{N: 4800})
	if err != nil {
		return nil, err
	}
	res, err = cfApp.Run(rig, 1, 4, 8)
	if err := add("cf", "overlappable", res, err); err != nil {
		return nil, err
	}

	nnApp, err := nn.New(nn.Params{N: 1 << 20, K: 10, TargetLat: 40, TargetLon: 120})
	if err != nil {
		return nil, err
	}
	res, err = nnApp.Run(rig, 4, 16)
	if err := add("nn", "overlappable", res, err); err != nil {
		return nil, err
	}

	kmApp, err := kmeans.New(kmeans.Params{N: 200_000, Features: 34, K: 8, Iterations: 10})
	if err != nil {
		return nil, err
	}
	res, err = kmApp.Run(rig, 4, 4)
	if err := add("kmeans", "non-overlappable", res, err); err != nil {
		return nil, err
	}

	hsApp, err := hotspot.New(hotspot.Params{Dim: 4096, Iterations: 5})
	if err != nil {
		return nil, err
	}
	res, err = hsApp.Run(rig, 4, 16)
	if err := add("hotspot", "non-overlappable", res, err); err != nil {
		return nil, err
	}

	srApp, err := srad.New(srad.Params{Dim: 2000, Iterations: 5, Lambda: 0.5})
	if err != nil {
		return nil, err
	}
	res, err = srApp.Run(rig, 4, 16)
	if err := add("srad", "non-overlappable", res, err); err != nil {
		return nil, err
	}

	// The transformation of ext-hotspot-pipe, for contrast.
	res, err = hsApp.RunPipelined(rig, 4, 16)
	if err := add("hotspot-pipelined", "transformed (§VII)", res, err); err != nil {
		return nil, err
	}

	t.Notes = append(t.Notes,
		"overlap = fraction of link busy time concurrent with kernel execution; the paper's taxonomy (being overlappable is a must for stream benefits) is measurable in the traces")
	return t, nil
}
