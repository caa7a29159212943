// Package experiments regenerates every table and figure of the
// paper's evaluation (Sec. 6 and the appendices). Each experiment
// returns structured rows plus a formatted table, so the same code
// backs the `arachnet-experiments` CLI, the root bench harness
// (bench_test.go) and the regression tests that pin the reproduction
// to the paper's shapes.
//
// Catalog is the single list of experiments, with their names, order
// and sample sizes: the CLI prints it and BenchmarkExperiment times
// it, one sub-benchmark per name.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Table 1  - vanilla slot allocation example
//	Table 2  - tag power by mode (RX/TX/IDLE)
//	Table 3  - evaluation workloads c1..c9
//	Fig. 11  - amplified voltage and charging time
//	Fig. 12  - uplink SNR and packet loss vs bit rate
//	Fig. 13  - downlink loss vs bit rate; beacon sync offsets
//	Fig. 14  - ping-pong latency distribution
//	Fig. 15  - first convergence time (fixed tags / fixed utilization)
//	Fig. 16  - long-running non-empty and collision ratios
//	Fig. 17  - strain case study
//	Fig. 19  - ALOHA baseline
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a generic result grid with fixed-width rendering.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// WriteCSV emits the table as CSV (header row first, notes as trailing
// comment-style rows with a leading "#" cell).
func (t Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if err := cw.Write([]string{"#", n}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// f1, f2, f3 format floats at fixed precision.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
