// Package experiments regenerates every figure of the paper's
// evaluation (Figs. 5-11) plus the §V-C search-space study, printing
// the same rows/series the paper plots. Each generator returns a Table
// whose columns mirror the figure's axes; cmd/micbench renders them and
// bench_test.go wraps each one in a testing.B benchmark.
//
// Absolute numbers come from the calibrated platform model and are not
// expected to equal the paper's testbed measurements; the shapes —
// who wins, where crossovers and optima fall — are asserted by this
// package's tests, and each table's notes set them against the paper
// (README.md, "Command-line tools", shows how to print them).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is one regenerated figure.
type Table struct {
	// ID is the experiment key, e.g. "fig9a".
	ID string
	// Title describes the experiment, quoting the paper's caption.
	Title string
	// Columns are the header labels; column 0 is the x axis.
	Columns []string
	// Rows are the formatted data points.
	Rows [][]string
	// Notes documents protocol deviations (e.g. reduced iteration
	// counts for sweep experiments, with the scaling applied).
	Notes []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// FprintCSV renders the table as RFC-4180-style CSV (header row first,
// notes as trailing comment lines) for plotting tools.
func (t *Table) FprintCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Column returns the numeric values of column i (parsed from the
// formatted cells); non-numeric cells are skipped.
func (t *Table) Column(i int) []float64 {
	var out []float64
	for _, row := range t.Rows {
		if i >= len(row) {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(row[i], "%g", &v); err == nil {
			out = append(out, v)
		}
	}
	return out
}

// Generator produces one figure.
type Generator func() (*Table, error)

// registry maps experiment IDs to generators, populated by init
// functions in the per-figure files.
var registry = map[string]Generator{}

func register(id string, g Generator) { registry[id] = g }

// IDs lists every registered experiment in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the generator for an experiment ID.
func Lookup(id string) (Generator, bool) {
	g, ok := registry[id]
	return g, ok
}

// fmtMS formats a millisecond value.
func fmtMS(ms float64) string { return fmt.Sprintf("%.3f", ms) }

// fmtS formats a second value.
func fmtS(s float64) string { return fmt.Sprintf("%.3f", s) }

// fmtGF formats a GFLOPS value.
func fmtGF(gf float64) string { return fmt.Sprintf("%.1f", gf) }
