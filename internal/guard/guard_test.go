package guard

import (
	"errors"
	"strings"
	"testing"
)

func TestLimitError(t *testing.T) {
	err := Exceeded("expression depth", 300, 200)
	if !errors.Is(err, ErrLimit) {
		t.Errorf("Exceeded not Is(ErrLimit): %v", err)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.Value != 300 || le.Max != 200 {
		t.Errorf("LimitError fields wrong: %+v", le)
	}
	if !strings.Contains(err.Error(), "expression depth") {
		t.Errorf("message does not name the limit: %v", err)
	}
}

func TestNilLimitsActAsDefault(t *testing.T) {
	var l *Limits
	def := Default()
	if l.Or().MaxExprDepth != def.MaxExprDepth {
		t.Error("nil limits do not default")
	}
	if err := l.CheckSource(def.MaxSourceBytes); err != nil {
		t.Errorf("at-limit source rejected: %v", err)
	}
	if err := l.CheckSource(def.MaxSourceBytes + 1); !errors.Is(err, ErrLimit) {
		t.Errorf("over-limit source accepted: %v", err)
	}
	if err := l.CheckExprDepth(def.MaxExprDepth + 1); !errors.Is(err, ErrLimit) {
		t.Errorf("over-limit depth accepted: %v", err)
	}
	if err := l.CheckNestDepth(def.MaxNestDepth + 1); !errors.Is(err, ErrLimit) {
		t.Errorf("over-limit nesting accepted: %v", err)
	}
	if err := l.CheckTokens(def.MaxTokens + 1); !errors.Is(err, ErrLimit) {
		t.Errorf("over-limit tokens accepted: %v", err)
	}
}

func TestParseLimits(t *testing.T) {
	l, err := ParseLimits("expr-depth=64, bet-nodes=1000")
	if err != nil {
		t.Fatal(err)
	}
	if l.MaxExprDepth != 64 || l.MaxBETNodes != 1000 {
		t.Errorf("overrides not applied: %+v", l)
	}
	if l.MaxTokens != Default().MaxTokens {
		t.Error("unspecified key lost its default")
	}
	if got, err := ParseLimits(""); err != nil || got.MaxExprDepth != Default().MaxExprDepth {
		t.Errorf("empty spec = %+v, %v", got, err)
	}
	for _, bad := range []string{"expr-depth", "expr-depth=0", "expr-depth=-1", "expr-depth=x", "nope=3"} {
		if _, err := ParseLimits(bad); err == nil {
			t.Errorf("ParseLimits(%q) accepted", bad)
		}
	}
	// Round trip through String.
	if _, err := ParseLimits(l.String()); err != nil {
		t.Errorf("String() not re-parseable: %v", err)
	}
}

func TestRecover(t *testing.T) {
	fn := func() (err error) {
		defer Recover(&err, "stage %s", "x")
		panic("boom")
	}
	err := fn()
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("recovered error not Is(ErrPanic): %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" {
		t.Errorf("PanicError fields wrong: %+v", pe)
	}
	if !strings.Contains(err.Error(), "stage x") {
		t.Errorf("prefix lost: %v", err)
	}
	// No panic: err untouched.
	ok := func() (err error) {
		defer Recover(&err, "stage")
		return nil
	}
	if err := ok(); err != nil {
		t.Errorf("Recover fabricated error: %v", err)
	}
}

func TestFaultPoints(t *testing.T) {
	var got []string
	disarm := Arm("test.point", func(detail string) { got = append(got, detail) })
	Hit("test.point", "a")
	Hit("other.point", "ignored")
	Hit("test.point", "b")
	disarm()
	disarm() // idempotent
	Hit("test.point", "after-disarm")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("fault point fired %v, want [a b]", got)
	}
	if faultArmed.Load() != 0 {
		t.Errorf("armed count leaked: %d", faultArmed.Load())
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Stage: "roofline", Code: "non-finite-time", BlockID: "main/L3", Message: "T is NaN"}
	if s := d.String(); !strings.Contains(s, "roofline/non-finite-time") || !strings.Contains(s, "main/L3") {
		t.Errorf("String() = %q", s)
	}
	ds := []Diagnostic{{Stage: "b"}, {Stage: "a", Code: "z"}, {Stage: "a", Code: "y"}}
	SortDiagnostics(ds)
	if ds[0].Code != "y" || ds[1].Code != "z" || ds[2].Stage != "b" {
		t.Errorf("sort order wrong: %v", ds)
	}
}

// TestSortDiagnosticsNoAllocs: sorting allocates nothing, whether there is
// nothing to sort or the diagnostics are already in order.
func TestSortDiagnosticsNoAllocs(t *testing.T) {
	sorted := []Diagnostic{{Stage: "a", Code: "y"}, {Stage: "a", Code: "z"}, {Stage: "b"}}
	for name, ds := range map[string][]Diagnostic{"empty": nil, "sorted": sorted} {
		if n := testing.AllocsPerRun(100, func() { SortDiagnostics(ds) }); n != 0 {
			t.Errorf("SortDiagnostics on %s diagnostics: %v allocations, want 0", name, n)
		}
	}
}
