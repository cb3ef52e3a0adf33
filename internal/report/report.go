// Package report renders the evaluation artifacts — tables and figure data
// series — as aligned text and CSV, for the benchmark harness and the
// command-line tools.
package report

import (
	"fmt"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is figure data: one x column and one or more named y columns —
// the text form of the paper's line charts.
type Series struct {
	Title  string
	XLabel string
	Names  []string
	X      []float64
	Y      [][]float64 // Y[i] is the i-th named column, len == len(X)
}

// NewSeries allocates a series with the given y-column names.
func NewSeries(title, xlabel string, names ...string) *Series {
	return &Series{Title: title, XLabel: xlabel, Names: names, Y: make([][]float64, len(names))}
}

// Add appends one x point with its y values (one per named column).
func (s *Series) Add(x float64, ys ...float64) {
	s.X = append(s.X, x)
	for i := range s.Names {
		v := 0.0
		if i < len(ys) {
			v = ys[i]
		}
		s.Y[i] = append(s.Y[i], v)
	}
}

// String renders the series as an aligned column listing.
func (s *Series) String() string {
	t := &Table{Title: s.Title, Header: append([]string{s.XLabel}, s.Names...)}
	for i, x := range s.X {
		cells := make([]any, 0, 1+len(s.Names))
		cells = append(cells, fmt.Sprintf("%g", x))
		for j := range s.Names {
			cells = append(cells, fmt.Sprintf("%.4f", s.Y[j][i]))
		}
		t.AddRow(cells...)
	}
	return t.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
