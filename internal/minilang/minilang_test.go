package minilang

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"skope/internal/guard"
)

const sample = `
// sample program
global n: int = 64;
global tol: float = 0.001;
global a: [n][n]float;
global b: [n * n]float;

func main() {
  init();
  var iter: int = 0;
  var err: float = 1.0;
  while (err > tol) {
    err = sweep();
    iter = iter + 1;
    if (iter > 100) {
      break;
    }
  }
}

func init() {
  for i = 0 .. n {
    for j = 0 .. n @vec {
      a[i][j] = rand();
    }
  }
}

func sweep(): float {
  var acc: float = 0.0;
  for i = 1 .. n - 1 {
    for j = 1 .. n - 1 {
      var v: float = (a[i-1][j] + a[i+1][j] + a[i][j-1] + a[i][j+1]) / 4.0;
      acc = acc + abs(v - a[i][j]);
      b[i * n + j] = v;
    }
  }
  return acc / (n * n);
}
`

func parseSample(t *testing.T) *Program {
	t.Helper()
	p, err := Parse("sample", sample)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := Check(p); err != nil {
		t.Fatalf("check: %v", err)
	}
	return p
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("t", "for i = 0 .. n { a[i] = 3.5e2; } // c\n/* block */ x != y")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tk := range toks {
		if tk.Kind == TokEOF {
			break
		}
		kinds = append(kinds, tk.Text)
	}
	want := []string{"for", "i", "=", "0", "..", "n", "{", "a", "[", "i", "]", "=", "3.5e2", ";", "}", "x", "!=", "y"}
	if strings.Join(kinds, " ") != strings.Join(want, " ") {
		t.Errorf("tokens = %v", kinds)
	}
}

func TestLexNumberKinds(t *testing.T) {
	toks, _ := Lex("t", "42 4.5 1e3 2..5")
	if toks[0].Kind != TokInt {
		t.Error("42 not int")
	}
	if toks[1].Kind != TokFloat {
		t.Error("4.5 not float")
	}
	if toks[2].Kind != TokFloat {
		t.Error("1e3 not float")
	}
	// "2..5" must lex as 2, .., 5 (not 2. then .5).
	if toks[3].Kind != TokInt || toks[4].Text != ".." || toks[5].Kind != TokInt {
		t.Errorf("range lexing broken: %v %v %v", toks[3], toks[4], toks[5])
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"\"unterminated", "/* unterminated", "$"} {
		if _, err := Lex("t", src); err == nil {
			t.Errorf("Lex(%q) succeeded", src)
		}
	}
}

func TestParseSampleStructure(t *testing.T) {
	p := parseSample(t)
	if len(p.Globals) != 4 || len(p.Funcs) != 3 {
		t.Fatalf("globals=%d funcs=%d", len(p.Globals), len(p.Funcs))
	}
	a := p.GlobalByName["a"]
	if !a.Type.IsArray() || len(a.Type.Extents) != 2 || a.Type.Base != TypeFloat {
		t.Errorf("a type = %s", a.Type)
	}
	sweep := p.FuncByName["sweep"]
	if sweep.Ret != TypeFloat {
		t.Errorf("sweep ret = %s", sweep.Ret)
	}
	// init's inner loop carries @vec.
	initFn := p.FuncByName["init"]
	outer := initFn.Body.Stmts[0].(*For)
	inner := outer.Body.Stmts[0].(*For)
	if outer.Vec || !inner.Vec {
		t.Errorf("vec flags: outer=%v inner=%v", outer.Vec, inner.Vec)
	}
}

func TestSemaTypes(t *testing.T) {
	p := parseSample(t)
	sweep := p.FuncByName["sweep"]
	ret := sweep.Body.Stmts[2].(*Return)
	if ret.X.ResultType() != TypeFloat {
		t.Errorf("return type = %s", ret.X.ResultType())
	}
	// n*n is int.
	div := ret.X.(*Binary)
	if div.R.ResultType() != TypeInt {
		t.Errorf("n*n type = %s", div.R.ResultType())
	}
}

// failure is one diagnostic reduced to what the failure table pins.
type failure struct {
	sev       guard.Severity
	code, msg string
}

// TestParseErrors pins, for each input, the strict parser's error text,
// whether it wraps guard.ErrLimit, and every diagnostic ParseLenient
// reports. limits is a guard.ParseLimits spec ("" for the defaults).
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, limits, err string
		limit                  bool
		diags                  []failure
	}{
		{"no funcs", "global n: int = 1;", "", "no funcs: no functions", false, []failure{{guard.SevError, "no-functions", "no funcs: no functions"}}},
		{"local array", "func main() { var a: [3]float; }", "", "local array:1:15: arrays must be declared global (local \"a\")", false, []failure{{guard.SevError, "syntax", "local array:1:15: arrays must be declared global (local \"a\")"}}},
		{"bad top", "int x;", "", "bad top:1:1: expected global or func at top level, found \"int\"", false, []failure{{guard.SevError, "syntax", "bad top:1:1: expected global or func at top level, found \"int\""}, {guard.SevError, "no-functions", "bad top: no functions"}}},
		{"unclosed block", "func main() {", "", "unclosed block:1:13: unterminated block", false, []failure{{guard.SevWarn, "unclosed-block", "unclosed block:1:13: unterminated block (implicitly closed)"}}},
		{"bad for", "func main() { for { } }", "", "bad for:1:19: expected identifier, found \"{\"", false, []failure{{guard.SevError, "syntax", "bad for:1:19: expected identifier, found \"{\""}}},
		{"missing semi", "func main() { var x: int = 1 }", "", "missing semi:1:30: expected \";\", found \"}\"", false, []failure{{guard.SevError, "syntax", "missing semi:1:30: expected \";\", found \"}\""}}},
		{"bad assign", "func main() { 3 = x; }", "", "bad assign:1:15: left side of assignment is not assignable", false, []failure{{guard.SevError, "syntax", "bad assign:1:15: left side of assignment is not assignable"}}},
		{"array init", "global a: [4]float = 3; func main() {}", "", "array init:1:8: array global \"a\" cannot have an initializer", false, []failure{{guard.SevError, "syntax", "array init:1:8: array global \"a\" cannot have an initializer"}}},
		{"dup func", "func f() {} func f() {} func main() {}", "", "dup func:1:25: duplicate function \"f\"", false, []failure{{guard.SevError, "duplicate", "dup func:1:25: duplicate function \"f\""}}},
		{"dup global", "global n: int; global n: int; func main() {}", "", "dup global:1:31: duplicate global \"n\"", false, []failure{{guard.SevError, "duplicate", "dup global:1:31: duplicate global \"n\""}}},
		{"bad annotation", "func main() { for i = 0 .. 3 @simd { } }", "", "bad annotation:1:31: unknown loop annotation @simd (only @vec)", false, []failure{{guard.SevError, "syntax", "bad annotation:1:31: unknown loop annotation @simd (only @vec)"}}},
		{"else dangling", "func main() { else {} }", "", "else dangling:1:15: unexpected token \"else\" in expression", false, []failure{{guard.SevError, "syntax", "else dangling:1:15: unexpected token \"else\" in expression"}}},
		{"lex error", "func main() { $ }", "", "lex error:1:15: unexpected character \"$\"", false, []failure{{guard.SevError, "lex", "lex error:1:15: unexpected character \"$\""}}},
		{"source limit", "func main() {}", "source-bytes=8", "source limit: guard: source bytes 14 exceeds limit 8", true, []failure{{guard.SevError, "limit", "source limit: guard: source bytes 14 exceeds limit 8"}}},
		{"token limit", "func main() {}", "tokens=4", "token limit: guard: lexical tokens 7 exceeds limit 4", true, []failure{{guard.SevError, "limit", "token limit: guard: lexical tokens 7 exceeds limit 4"}}},
		{"nest limit", "func main() { for i = 0 .. 2 { } }", "nest-depth=1", "nest limit:1:30: guard: nesting depth 2 exceeds limit 1", true, []failure{{guard.SevError, "syntax", "nest limit:1:30: guard: nesting depth 2 exceeds limit 1"}}},
		{"expr limit", "func main() { var x: int = ((1)); }", "expr-depth=2", "expr limit:1:30: guard: expression depth 3 exceeds limit 2", true, []failure{{guard.SevError, "syntax", "expr limit:1:30: guard: expression depth 3 exceeds limit 2"}}},
	}
	for _, tc := range cases {
		lim, err := guard.ParseLimits(tc.limits)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ParseWithLimits(tc.name, tc.src, lim)
		if err == nil || err.Error() != tc.err {
			t.Errorf("%s: strict error %v, want %q", tc.name, err, tc.err)
		}
		if errors.Is(err, guard.ErrLimit) != tc.limit {
			t.Errorf("%s: errors.Is(%v, guard.ErrLimit) = %v, want %v", tc.name, err, !tc.limit, tc.limit)
		}
		prog, diags := ParseLenient(tc.name, tc.src, lim)
		if prog == nil {
			t.Errorf("%s: ParseLenient returned a nil program", tc.name)
		}
		var got []failure
		for _, d := range diags {
			got = append(got, failure{d.Severity, d.Code, d.Message})
		}
		if !reflect.DeepEqual(got, tc.diags) {
			t.Errorf("%s: lenient diagnostics\n got %+v\nwant %+v", tc.name, got, tc.diags)
		}
	}
}

func TestSemaErrors(t *testing.T) {
	cases := map[string]string{
		"no main":          "func f() {}",
		"main params":      "func main(x: int) {}",
		"main ret":         "func main(): int { return 1; }",
		"undefined var":    "func main() { var x: int = y; }",
		"undefined func":   "func main() { f(); }",
		"undefined array":  "func main() { a[0] = 1; }",
		"wrong dims":       "global a: [4][4]float; func main() { a[0] = 1.0; }",
		"scalar indexed":   "global n: int = 3; func main() { n[0] = 1; }",
		"array as scalar":  "global a: [4]float; func main() { var x: float = a; }",
		"whole array":      "global a: [4]float; func main() { a = 1; }",
		"break outside":    "func main() { break; }",
		"continue outside": "func main() { continue; }",
		"recursion":        "func main() { f(); } func f() { f(); }",
		"mutual recursion": "func main() { f(); } func f() { g(); } func g() { f(); }",
		"void as value":    "func main() { var x: float = 0; x = f(); } func f() {}",
		"nested user call": "func main() { var x: float = f() + 1; } func f(): float { return 1.0; }",
		"builtin arity":    "func main() { var x: float = exp(1, 2); }",
		"user arity":       "func main() { f(1); } func f() {}",
		"ret missing":      "func f(): float { return; } func main() {}",
		"ret extra":        "func f() { return 1; } func main() {}",
		"dup param":        "func f(x: int, x: int) {} func main() {}",
		"dup local":        "func main() { var x: int; var x: int; }",
		"extent unknown":   "global a: [m]float; func main() {}",
		"extent self":      "global m: int = m; func main() {}",
		"extent forward":   "global a: [m]float; global m: int = 4; func main() {}",
		"extent array ref": "global a: [4]float; global b: [a]float; func main() {}",
	}
	for name, src := range cases {
		p, err := Parse(name, src)
		if err != nil {
			t.Fatalf("%s: parse failed: %v", name, err)
		}
		if err := Check(p); err == nil {
			t.Errorf("%s: Check succeeded, want error", name)
		}
	}
}

func TestAssignWithUserCallRHSAllowed(t *testing.T) {
	src := "func main() { var x: float = 0; x = f(); } func f(): float { return 2.0; }"
	p, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(p); err != nil {
		t.Fatalf("whole-RHS user call should be allowed: %v", err)
	}
}

func TestElseIfChain(t *testing.T) {
	src := `
func main() {
  var x: int = 1;
  if (x > 2) { x = 0; }
  else if (x > 1) { x = 1; }
  else { x = 2; }
}
`
	p, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
	ifs := p.Funcs[0].Body.Stmts[1].(*If)
	if ifs.Else == nil {
		t.Fatal("no else")
	}
	nested, ok := ifs.Else.Stmts[0].(*If)
	if !ok {
		t.Fatal("else-if not normalized to nested If")
	}
	if nested.Else == nil {
		t.Error("final else missing")
	}
}

func TestSegments(t *testing.T) {
	src := `
func main() {
  var x: float = 1.0;
  x = x * 2.0;
  for i = 0 .. 4 {
    x = x + 1.0;
  }
  x = x - 1.0;
  f();
  x = x / 2.0;
}

func f() {}
`
	p, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
	main := p.FuncByName["main"]
	segs := SegmentsOf("main", main.Body)
	// Segment 1: var + assign; segment 2: after loop; segment 3: after call.
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3", len(segs))
	}
	if len(segs[0].Stmts) != 2 || len(segs[1].Stmts) != 1 || len(segs[2].Stmts) != 1 {
		t.Errorf("segment sizes: %d %d %d", len(segs[0].Stmts), len(segs[1].Stmts), len(segs[2].Stmts))
	}
	if segs[0].BlockID() != "main/L3" {
		t.Errorf("segment 1 id = %s", segs[0].BlockID())
	}
}

func TestCountExpr(t *testing.T) {
	p := parseSample(t)
	sweep := p.FuncByName["sweep"]
	inner := sweep.Body.Stmts[1].(*For).Body.Stmts[0].(*For)
	// var v = (a[i-1][j] + a[i+1][j] + a[i][j-1] + a[i][j+1]) / 4.0;
	decl := inner.Body.Stmts[0].(*VarDecl)
	c := CountStmt(decl)
	if c.Loads != 4 {
		t.Errorf("loads = %d, want 4", c.Loads)
	}
	if c.FLOPs != 4 { // 3 adds + 1 div
		t.Errorf("flops = %d, want 4", c.FLOPs)
	}
	if c.Divs != 1 {
		t.Errorf("divs = %d, want 1", c.Divs)
	}
	// Index arithmetic: i-1, i+1, j-1, j+1 are IOPs plus addressing IOPs.
	if c.IOPs < 8 {
		t.Errorf("iops = %d, want >= 8", c.IOPs)
	}
	// acc = acc + abs(v - a[i][j]);
	asn := inner.Body.Stmts[1].(*Assign)
	c2 := CountStmt(asn)
	if c2.Lib["abs"] != 1 {
		t.Errorf("lib abs = %d", c2.Lib["abs"])
	}
	if c2.Loads != 1 || c2.Stores != 0 {
		t.Errorf("acc stmt loads/stores = %d/%d", c2.Loads, c2.Stores)
	}
	// b[i*n+j] = v;
	st := inner.Body.Stmts[2].(*Assign)
	c3 := CountStmt(st)
	if c3.Stores != 1 {
		t.Errorf("store count = %d", c3.Stores)
	}
}

func TestOpCountsAddAndInsts(t *testing.T) {
	a := OpCounts{FLOPs: 2, IOPs: 3, Loads: 1, Lib: map[string]int{"exp": 1}}
	b := OpCounts{FLOPs: 1, Divs: 1, Stores: 2, Lib: map[string]int{"exp": 2, "rand": 1}}
	a.Add(b)
	if a.FLOPs != 3 || a.Divs != 1 || a.Stores != 2 || a.Lib["exp"] != 3 || a.Lib["rand"] != 1 {
		t.Errorf("Add result = %+v", a)
	}
	if a.Insts() != 3+3+1+2+3+1 {
		t.Errorf("Insts = %d", a.Insts())
	}
}

func TestPosReporting(t *testing.T) {
	_, err := Parse("t", "func main() {\n  var x: int = ;\n}")
	if err == nil || !strings.Contains(err.Error(), "t:2:") {
		t.Errorf("error lacks position: %v", err)
	}
}
