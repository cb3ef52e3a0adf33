package report

import (
	"fmt"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := &Table{Title: "demo", Header: []string{"name", "value", "note"}}
	t.AddRow("alpha", 1.5, "plain")
	t.AddRow("beta", 42, "with, comma")
	t.AddRow("gamma", "x", `quote " inside`)
	return t
}

func TestTableString(t *testing.T) {
	s := sampleTable().String()
	for _, want := range []string{"== demo ==", "name", "alpha", "1.5", "42", "-----"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	// Columns align: every data line at least as wide as the header line's
	// first column.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, 3 rows -> 6? title+header+sep+3 = 6
		// title + header + separator + 3 rows
		if len(lines) != 6 {
			t.Errorf("unexpected line count %d:\n%s", len(lines), s)
		}
	}
}

func TestTableCSVEscaping(t *testing.T) {
	csv := sampleTable().CSV()
	if !strings.Contains(csv, `"with, comma"`) {
		t.Errorf("comma cell not quoted:\n%s", csv)
	}
	if !strings.Contains(csv, `"quote "" inside"`) {
		t.Errorf("quote cell not escaped:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "name,value,note\n") {
		t.Errorf("csv header wrong:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != 4 {
		t.Errorf("csv line count = %d", got)
	}
}

func TestAddRowFormats(t *testing.T) {
	tab := &Table{Header: []string{"a"}}
	tab.AddRow(3.14159)
	tab.AddRow(7)
	tab.AddRow("s")
	tab.AddRow(true)
	if tab.Rows[0][0] != "3.142" {
		t.Errorf("float cell = %q", tab.Rows[0][0])
	}
	if tab.Rows[1][0] != "7" || tab.Rows[2][0] != "s" || tab.Rows[3][0] != "true" {
		t.Errorf("rows = %v", tab.Rows)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("curve", "x", "a", "b")
	s.Add(1, 0.5, 0.25)
	s.Add(2, 1.0) // missing b defaults to 0
	out := s.String()
	for _, want := range []string{"curve", "x", "a", "b", "0.5000", "0.2500", "1.0000"} {
		if !strings.Contains(out, want) {
			t.Errorf("series missing %q:\n%s", want, out)
		}
	}
	if len(s.Y[1]) != 2 || s.Y[1][1] != 0 {
		t.Errorf("missing y not defaulted: %v", s.Y)
	}
}

func TestSeriesBars(t *testing.T) {
	s := NewSeries("bars", "k", "v")
	s.Add(1, 2)
	s.Add(2, 4)
	out := s.Bars(0)
	if !strings.Contains(out, "####") {
		t.Errorf("bars missing marks:\n%s", out)
	}
	if s.Bars(5) != "" || s.Bars(-1) != "" {
		t.Error("out-of-range column should render empty")
	}
	// All-zero column renders without panic.
	z := NewSeries("z", "k", "v")
	z.Add(1, 0)
	if !strings.Contains(z.Bars(0), "0.0000") {
		t.Error("zero bars broken")
	}
}

func TestEmptyTable(t *testing.T) {
	tab := &Table{Header: []string{"only"}}
	if !strings.Contains(tab.String(), "only") {
		t.Error("empty table should render header")
	}
	if !strings.HasPrefix(tab.CSV(), "only\n") {
		t.Error("empty table CSV broken")
	}
}

// CSV renders the table as comma-separated values (cells containing commas
// or quotes are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Bars renders a simple horizontal bar view of one y column (scaled to
// width 40), useful for quick visual inspection in terminals.
func (s *Series) Bars(col int) string {
	if col < 0 || col >= len(s.Names) {
		return ""
	}
	maxV := 0.0
	for _, v := range s.Y[col] {
		if v > maxV {
			maxV = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s (%s) --\n", s.Title, s.Names[col])
	for i, x := range s.X {
		n := 0
		if maxV > 0 {
			n = int(s.Y[col][i] / maxV * 40)
		}
		fmt.Fprintf(&b, "%6g |%s %.4f\n", x, strings.Repeat("#", n), s.Y[col][i])
	}
	return b.String()
}
