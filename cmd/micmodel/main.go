// Command micmodel validates the analytic performance model against
// the discrete-event simulation: for each application of the suite it
// prints the predicted and simulated wall times across the (P, T)
// validation plane, the relative error of every point, and the model's
// own best-configuration pick — the predict-instead-of-measure layer
// of DESIGN.md §8, inspected point by point.
//
// Usage:
//
//	micmodel -list                 # show the modeled applications
//	micmodel -app mm               # predicted-vs-simulated curve for one app
//	micmodel -app all              # every app, with per-app error summaries
//	micmodel -app nn -fit          # calibrate against 5 probe runs first
//
// The per-app error summary and the search-cost study are tables of
// their own: micbench -fig modelval and micbench -fig guided.
//
// The T column carries each application's own tile meaning: task count
// for the stripe/chunk apps, tile-grid edge for MM and CF.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"micstream"
	"micstream/internal/experiments"
)

func main() {
	var (
		app    = flag.String("app", "all", "application to sweep (or \"all\")")
		list   = flag.Bool("list", false, "list modeled applications")
		fit    = flag.Bool("fit", false, "calibrate the model with probe runs before predicting")
		probes = flag.Int("probes", 5, "probe simulations used by -fit")
		csv    = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()

	apps, err := experiments.ModelApps()
	if err != nil {
		fatal(err)
	}
	if *list {
		for _, a := range apps {
			fmt.Println(a.Name)
		}
		return
	}

	ran := false
	for _, a := range apps {
		if *app != "all" && a.Name != *app {
			continue
		}
		ran = true
		if err := sweep(a, *fit, *probes, *csv); err != nil {
			fatal(err)
		}
	}
	if !ran {
		names := make([]string, len(apps))
		for i, a := range apps {
			names[i] = a.Name
		}
		fatal(fmt.Errorf("unknown app %q (have %s)", *app, strings.Join(names, ", ")))
	}
}

// sweep prints one application's predicted-vs-simulated plane.
func sweep(app experiments.ModelApp, fit bool, probes int, csv bool) error {
	m := micstream.NewModel(micstream.Xeon31SP(), micstream.DefaultLink())
	title := "predicted vs simulated wall time"
	if fit {
		space := micstream.SearchSpace{
			Partitions: app.Partitions,
			TilesFor:   app.TilesFor,
		}
		if _, err := m.Fit(app.Workload, space, app.Eval, probes); err != nil {
			return err
		}
		ts, cs := m.TransferScale, m.ComputeScale
		title = fmt.Sprintf("calibrated (TransferScale=%.2f ComputeScale=%.2f), %d probes", ts, cs, probes)
	}

	t := &experiments.Table{
		ID:      "micmodel/" + app.Name,
		Title:   title,
		Columns: []string{"P", "T", "predicted[ms]", "simulated[ms]", "err[%]", "overlap[%]"},
	}
	var sum, worst float64
	points := 0
	for _, p := range app.Partitions {
		for _, tiles := range app.TilesFor(p) {
			pred, err := m.Predict(app.Workload, p, tiles)
			if err != nil {
				return err
			}
			meas, err := app.Eval(p, tiles)
			if err != nil {
				return err
			}
			e := math.Abs(pred.Seconds()-meas) / meas
			sum += e
			if e > worst {
				worst = e
			}
			points++
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", p),
				fmt.Sprintf("%d", tiles),
				fmt.Sprintf("%.3f", pred.Seconds()*1e3),
				fmt.Sprintf("%.3f", meas*1e3),
				fmt.Sprintf("%.1f", e*100),
				fmt.Sprintf("%.0f", pred.Overlap*100),
			})
		}
	}
	space := micstream.SearchSpace{Partitions: app.Partitions, TilesFor: app.TilesFor}
	best, err := m.BestConfig(app.Workload, space)
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean err %.1f%%, max err %.1f%% over %d points", sum/float64(points)*100, worst*100, points),
		fmt.Sprintf("model's pick: P=%d T=%d (predicted %.3fms)", best.Partitions, best.Tiles, best.Pred.Seconds()*1e3))
	if csv {
		return t.FprintCSV(os.Stdout)
	}
	return t.Fprint(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "micmodel:", err)
	os.Exit(1)
}
