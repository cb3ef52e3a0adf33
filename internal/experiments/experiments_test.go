package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"skope/internal/report"
	"skope/internal/workloads"
)

// sharedCtx caches runs/evals across the experiment tests.
var sharedCtx = NewContext(workloads.ScaleTest)

func TestFig2(t *testing.T) {
	out, err := Fig2(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 2(a)", "Figure 2(b)", "Figure 2(c)", "def main", "size ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2 missing %q", want)
		}
	}
}

func TestFig3(t *testing.T) {
	out, err := Fig3(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "->") || !strings.Contains(out, "HOT SPOT") {
		t.Errorf("Fig3 output incomplete:\n%s", out)
	}
}

func TestTable1(t *testing.T) {
	tab, err := Table1(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5*5 {
		t.Errorf("Table1 has only %d rows", len(tab.Rows))
	}
	s := tab.String()
	for _, name := range workloads.Names() {
		if !strings.Contains(s, name) {
			t.Errorf("Table1 missing %s", name)
		}
	}
	// Matches must exist (the model gets most ranks right).
	if !strings.Contains(s, "*") {
		t.Error("Table1 has no rank matches at all")
	}
}

func TestTable1Portability(t *testing.T) {
	tab, err := Table1Portability(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Errorf("portability rows = %d", len(tab.Rows))
	}
}

func TestTable2(t *testing.T) {
	tab, err := Table2(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 || !strings.Contains(tab.String(), "cfd") && !strings.Contains(tab.String(), "compute") {
		t.Errorf("Table2 suspicious:\n%s", tab)
	}
}

func TestFig4QualityOrdering(t *testing.T) {
	tab, err := Fig4(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("Fig4 rows = %d", len(tab.Rows))
	}
	// Row 0 is Prof.Q on itself: quality exactly 1.
	if tab.Rows[0][2] != "1.000" {
		t.Errorf("Prof.Q self-quality = %s", tab.Rows[0][2])
	}
}

func TestCoverageCurveFigures(t *testing.T) {
	figs := map[string]func(*Context) (*report.Series, error){
		"fig5":  Fig5,
		"fig10": Fig10,
		"fig11": Fig11,
		"fig12": Fig12,
		"fig13": Fig13,
	}
	for name, f := range figs {
		s, err := f(sharedCtx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.X) == 0 {
			t.Fatalf("%s: empty series", name)
		}
		// Curves must be monotone nondecreasing and within [0, 1.01].
		for col := 0; col < 3; col++ {
			prev := 0.0
			for i, v := range s.Y[col] {
				if v < prev-1e-9 || v > 1.01 {
					t.Errorf("%s col %d not a valid coverage curve at %d: %g", name, col, i, v)
				}
				prev = v
			}
		}
	}
}

func TestFig6And7MemoryShareGrowsOnXeon(t *testing.T) {
	f6, err := Fig6(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	f7, err := Fig7(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) == 0 || len(f7.Rows) == 0 {
		t.Fatal("empty breakdowns")
	}
	memShare := func(rows [][]string) float64 {
		// Column 4 is mem-only%; average over spots.
		sum := 0.0
		for _, r := range rows {
			var v float64
			_, _ = sscanf(r[4], &v)
			sum += v
		}
		return sum / float64(len(rows))
	}
	q, x := memShare(f6.Rows), memShare(f7.Rows)
	if x <= q {
		t.Errorf("Xeon mem-only share (%.1f%%) not > BG/Q (%.1f%%), contra Fig.7", x, q)
	}
}

func TestFig8(t *testing.T) {
	tab, err := Fig8(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty Fig8")
	}
}

func TestFig9(t *testing.T) {
	out, err := Fig9(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "HOT SPOT") || !strings.Contains(out, "main") {
		t.Errorf("Fig9 incomplete:\n%s", out)
	}
}

// TestBETSizes pins each benchmark's BET node count, source statement
// count and size ratio exactly (paper: average ratio 0.88, never above 2).
func TestBETSizes(t *testing.T) {
	want := map[string][2]int{ // nodes, statements
		"sord":     {109, 120},
		"chargei":  {51, 55},
		"srad":     {41, 45},
		"cfd":      {48, 56},
		"stassuij": {41, 45},
	}
	if names := workloads.Names(); len(names) != len(want) {
		t.Fatalf("benchmarks %v, want the five of the paper", names)
	}
	for _, name := range workloads.Names() {
		run, err := sharedCtx.Run(name)
		if err != nil {
			t.Fatal(err)
		}
		nodes, stmts := run.BET.NumNodes(), run.BET.Tree.Prog.StaticStatements()
		w, ok := want[name]
		if !ok || nodes != w[0] || stmts != w[1] || run.BET.SizeRatio() != float64(w[0])/float64(w[1]) {
			t.Errorf("%s: BET %d nodes over %d statements (ratio %v), want %d over %d (paper: average ratio 0.88)",
				name, nodes, stmts, run.BET.SizeRatio(), w[0], w[1])
		}
	}
}

// TestQualitySummaryMeetsPaperClaims pins the top-10 selection quality
// over the 10 benchmark x machine cases at full precision: the average and
// minimum the benchmark ledger reports as quality_avg and quality_min.
func TestQualitySummaryMeetsPaperClaims(t *testing.T) {
	const wantAvg, wantMin = 0.9845385249851603, 0.9305480679487831
	sum, min, n := 0.0, math.Inf(1), 0
	for _, name := range workloads.Names() {
		for _, mach := range []string{"bgq", "xeon"} {
			ev, err := sharedCtx.Eval(name, mach)
			if err != nil {
				t.Fatal(err)
			}
			sum += ev.Quality
			min = math.Min(min, ev.Quality)
			n++
		}
	}
	if n != 10 {
		t.Fatalf("%d cases, want 10", n)
	}
	if avg := sum / float64(n); avg != wantAvg {
		t.Errorf("average top-10 selection quality %v, want %v (paper: 0.958)", avg, wantAvg)
	}
	if min != wantMin {
		t.Errorf("minimum top-10 selection quality %v, want %v (paper: never below 0.80)", min, wantMin)
	}
}

func TestAblationsShrinkErrors(t *testing.T) {
	tab, err := Ablations(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("ablation rows = %d:\n%s", len(tab.Rows), tab)
	}
	for _, row := range tab.Rows {
		var base, aware, meas float64
		mustScan(t, row[2], &base)
		mustScan(t, row[3], &aware)
		mustScan(t, row[4], &meas)
		errBase := abs(base - meas)
		errAware := abs(aware - meas)
		if errAware >= errBase {
			t.Errorf("%s: aware model error (%.2f) not < base error (%.2f)", row[0], errAware, errBase)
		}
	}
}

// ---- small test helpers ----

func sscanf(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}

func mustScan(t *testing.T, s string, v *float64) {
	t.Helper()
	if _, err := sscanf(s, v); err != nil {
		t.Fatalf("bad cell %q: %v", s, err)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestHitRateSensitivity(t *testing.T) {
	s, err := HitRateSensitivity(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.X) != 5 {
		t.Fatalf("sweep points = %d", len(s.X))
	}
	for i, q := range s.Y[0] {
		if q < 0.5 || q > 1.0001 {
			t.Errorf("quality at hit=%.2f out of range: %g", s.X[i], q)
		}
	}
	// The paper's untuned 0.85 must already be near the sweep's best.
	best := 0.0
	var at085 float64
	for i, q := range s.Y[0] {
		if q > best {
			best = q
		}
		if s.X[i] == 0.85 {
			at085 = q
		}
	}
	if best-at085 > 0.10 {
		t.Errorf("0.85 setting (%.3f) is far from the sweep best (%.3f)", at085, best)
	}
}

func TestFutureProjection(t *testing.T) {
	tab, err := FutureProjection(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		var s float64
		if _, err := fmt.Sscanf(row[5], "%fx", &s); err != nil {
			t.Fatalf("bad speedup cell %q", row[5])
		}
		if s <= 1 {
			t.Errorf("%s: conceptual machine not faster (%gx)", row[0], s)
		}
	}
}
