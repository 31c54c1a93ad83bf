package harness

import (
	"fmt"
	"strings"
)

// Series is one plotted line/bar group of a figure.
type Series struct {
	Label  string
	Names  []string // x-axis labels (workloads, hit rates, ...)
	Values []float64
	// Summary is the paper's aggregate for the series (GMEAN or MEAN).
	Summary float64
	// SummaryKind names the aggregate ("GMEAN", "MEAN", "").
	SummaryKind string
}

// Figure is the reproduction of one table or figure.
type Figure struct {
	ID     string // "Fig. 6", "Table I", ...
	Title  string
	Series []Series
	// PaperSummary records the headline number the paper reports for this
	// experiment, for EXPERIMENTS.md (0 when not applicable).
	PaperSummary float64
	// Notes carries caveats (scaling, substitutions).
	Notes string
}

// String renders the figure as an aligned text table: one row per x-axis
// name, one column per series.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Series) == 0 {
		return b.String()
	}
	nameW := 4
	names := f.Series[0].Names
	for _, s := range f.Series {
		if len(s.Names) > len(names) {
			names = s.Names
		}
	}
	for _, n := range names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	colW := 10
	fmt.Fprintf(&b, "%-*s", nameW+2, "")
	for _, s := range f.Series {
		l := s.Label
		if len(l) > colW {
			l = l[:colW]
		}
		fmt.Fprintf(&b, " %*s", colW, l)
	}
	b.WriteByte('\n')
	for i, n := range names {
		fmt.Fprintf(&b, "%-*s", nameW+2, n)
		for _, s := range f.Series {
			if i < len(s.Values) {
				fmt.Fprintf(&b, " %*.3f", colW, s.Values[i])
			} else {
				fmt.Fprintf(&b, " %*s", colW, "-")
			}
		}
		b.WriteByte('\n')
	}
	hasSummary := false
	for _, s := range f.Series {
		if s.SummaryKind != "" {
			hasSummary = true
		}
	}
	if hasSummary {
		fmt.Fprintf(&b, "%-*s", nameW+2, f.Series[0].SummaryKind)
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %*.3f", colW, s.Summary)
		}
		b.WriteByte('\n')
	}
	if f.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", f.Notes)
	}
	return b.String()
}
