// Package bench implements the paper's evaluation workloads: the
// MPBench-style ping-pong test (Figure 8, Table 1), the Bulk Processor
// Farm manager/worker program (Figures 10-12), and table formatting for
// regenerating the paper's artifacts.
package bench

import (
	"fmt"
	"strings"
)

// Row is one line of an experiment table.
type Row struct {
	Label  string
	Values []float64
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
	// Exact prints every value in full. The virtual-time tables hold
	// integer nanoseconds and counters, and every digit reproduces.
	Exact bool
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	width := 24
	fmt.Fprintf(&b, "%-*s", width, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%16s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", width, r.Label)
		for _, v := range r.Values {
			if t.Exact {
				fmt.Fprintf(&b, "%16.0f", v)
			} else {
				fmt.Fprintf(&b, "%16s", formatValue(v))
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
