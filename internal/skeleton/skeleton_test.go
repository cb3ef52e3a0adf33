package skeleton

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"skope/internal/expr"
	"skope/internal/guard"
)

// pedagogical is a small skeleton exercising every statement kind; it mirrors
// the shape of the paper's Figure 2(a) example.
const pedagogical = `
# pedagogical example
def main(n, m)
  var A[n][m]
  var B[n*m] dsize=4
  set knob = 0
  for i = 0 : n label="outer"
    comp flops=4 loads=2 stores=1 dsize=8 name="init"
    if prob=0.3
      set knob = 1
    else
      set knob = 0
    end
    call foo(i, knob)
  end
  while iters=m/2 label="conv"
    comp flops=8*m loads=3*m name="solve"
    break prob=0.01
  end
  lib exp count=n name="expcall"
end

def foo(x, k)
  if cond = k == 1
    comp flops=100*x loads=2*x name="heavy"
  elif prob=0.5
    for j = 0 : x
      comp flops=10 loads=1 name="light"
      continue prob=0.2
    end
  end
  return prob=0.1
  comp flops=1 name="tail"
end
`

func parsePedagogical(t *testing.T) *Program {
	t.Helper()
	p, err := Parse("pedagogical", pedagogical)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func TestParsePedagogicalStructure(t *testing.T) {
	p := parsePedagogical(t)
	if len(p.Funcs) != 2 {
		t.Fatalf("got %d funcs, want 2", len(p.Funcs))
	}
	main, err := p.Func("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(main.Params) != 2 || main.Params[0] != "n" || main.Params[1] != "m" {
		t.Errorf("main params = %v", main.Params)
	}
	// main body: var, var, set, for, while, lib
	if len(main.Body) != 6 {
		t.Fatalf("main body has %d stmts, want 6", len(main.Body))
	}
	loop, ok := main.Body[3].(*Loop)
	if !ok {
		t.Fatalf("main.Body[3] is %T, want *Loop", main.Body[3])
	}
	if loop.Var != "i" || loop.Label != "outer" {
		t.Errorf("loop = %+v", loop)
	}
	if got := mustEval(loop.To, expr.Env{"n": 7}); got != 7 {
		t.Errorf("loop.To eval = %g", got)
	}
	// loop body: comp, if, call
	if len(loop.Body) != 3 {
		t.Fatalf("loop body has %d stmts, want 3", len(loop.Body))
	}
	comp := loop.Body[0].(*Comp)
	if comp.Name != "init" {
		t.Errorf("comp name = %q", comp.Name)
	}
	if v := mustEval(comp.M.FLOPs, nil); v != 4 {
		t.Errorf("comp flops = %g", v)
	}
	ifs := loop.Body[1].(*If)
	if len(ifs.Cases) != 1 || ifs.Cases[0].Cond.Kind != CondProb {
		t.Errorf("if cases = %+v", ifs.Cases)
	}
	if ifs.Else == nil {
		t.Error("if has no else")
	}
	call := loop.Body[2].(*Call)
	if call.Func != "foo" || len(call.Args) != 2 {
		t.Errorf("call = %+v", call)
	}
	w, ok := main.Body[4].(*While)
	if !ok || w.Label != "conv" {
		t.Fatalf("main.Body[4] = %#v", main.Body[4])
	}
	if _, ok := w.Body[1].(*Break); !ok {
		t.Errorf("while body[1] = %T, want *Break", w.Body[1])
	}
	lib, ok := main.Body[5].(*Lib)
	if !ok || lib.Func != "exp" || lib.Name != "expcall" {
		t.Fatalf("main.Body[5] = %#v", main.Body[5])
	}

	foo, _ := p.Func("foo")
	ifs2 := foo.Body[0].(*If)
	if len(ifs2.Cases) != 2 {
		t.Fatalf("foo if has %d cases, want 2", len(ifs2.Cases))
	}
	if ifs2.Cases[0].Cond.Kind != CondExpr {
		t.Error("foo if case 0 should be CondExpr")
	}
	if ifs2.Cases[1].Cond.Kind != CondProb {
		t.Error("foo if case 1 should be CondProb")
	}
	ret, ok := foo.Body[1].(*Return)
	if !ok || ret.Prob == nil {
		t.Fatalf("foo.Body[1] = %#v", foo.Body[1])
	}
}

func TestValidatePedagogical(t *testing.T) {
	if err := Validate(parsePedagogical(t)); err != nil {
		t.Fatal(err)
	}
}

func TestStaticStatements(t *testing.T) {
	p := parsePedagogical(t)
	// Count by hand: main def(1) + var,var,set,for,while,lib(6) +
	// for body comp,if,call(3) + if arms set,set(2) + while body comp,break(2)
	// + foo def(1) + if,return,comp(3) + arms comp,for(2) + for body
	// comp,continue(2) = 22
	if got := p.StaticStatements(); got != 22 {
		t.Errorf("StaticStatements = %d, want 22", got)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	p1 := parsePedagogical(t)
	text := Format(p1)
	p2, err := Parse("roundtrip", text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if Format(p2) != text {
		t.Errorf("Format not a fixed point:\n--- first\n%s\n--- second\n%s", text, Format(p2))
	}
	if p1.StaticStatements() != p2.StaticStatements() {
		t.Errorf("statement count changed across round trip: %d != %d",
			p1.StaticStatements(), p2.StaticStatements())
	}
}

// failure is one diagnostic reduced to what the failure table pins.
type failure struct {
	sev       guard.Severity
	code, msg string
}

// errText is err's text, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestParseErrors pins, for each input, the strict parser's error text,
// whether it wraps guard.ErrLimit, and every diagnostic ParseLenient
// reports. limits is a guard.ParseLimits spec ("" for the defaults); an
// empty err marks an input both modes accept.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, limits, err string
		limit                  bool
		diags                  []failure
	}{
		{"no funcs", "# empty\n", "", "no funcs: no function definitions", false, []failure{{guard.SevError, "no-functions", "no funcs: no function definitions"}}},
		{"stmt outside def", "comp flops=1\n", "", "stmt outside def:1: statement outside function definition", false, []failure{{guard.SevError, "outside-function", "stmt outside def:1: statement outside function definition"}, {guard.SevError, "no-functions", "stmt outside def: no function definitions"}}},
		{"unclosed def", "def main()\n", "", "unclosed def:1: unclosed def block", false, []failure{{guard.SevWarn, "unclosed-block", "unclosed def:1: unclosed def block (implicitly closed)"}}},
		{"end extra", "def main()\nend\nend\n", "", "end extra:3: end without open block", false, []failure{{guard.SevWarn, "orphan-end", "end extra:3: end without open block (ignored)"}}},
		{"bad for", "def main()\nfor foo\nend\nend\n", "", "bad for:2: malformed for; want: for i = from : to [: step]", false, []failure{{guard.SevError, "syntax", "bad for:2: malformed for; want: for i = from : to [: step]"}}},
		{"bad range", "def main()\nfor i = 1\nend\nend\n", "", "bad range:2: for range must be from:to or from:to:step", false, []failure{{guard.SevError, "syntax", "bad range:2: for range must be from:to or from:to:step"}}},
		{"elif outside", "def main()\nelif prob=0.5\nend\n", "", "elif outside:2: elif outside if", false, []failure{{guard.SevError, "orphan-elif", "elif outside:2: elif outside if"}}},
		{"else outside", "def main()\nelse\nend\n", "", "else outside:2: else outside if", false, []failure{{guard.SevError, "orphan-else", "else outside:2: else outside if"}}},
		{"dup else", "def main()\nif prob=0.5\nelse\nelse\nend\nend\n", "", "dup else:4: duplicate else", false, []failure{{guard.SevError, "orphan-else", "dup else:4: duplicate else"}}},
		{"elif after else", "def main()\nif prob=0.5\nelse\nelif prob=0.1\nend\nend\n", "", "elif after else:4: elif after else", false, []failure{{guard.SevError, "orphan-elif", "elif after else:4: elif after else"}}},
		{"unknown stmt", "def main()\nfrobnicate\nend\n", "", "unknown stmt:2: unknown statement \"frobnicate\"", false, []failure{{guard.SevError, "syntax", "unknown stmt:2: unknown statement \"frobnicate\""}}},
		{"unknown attr", "def main()\ncomp zops=3\nend\n", "", "unknown attr:2: unknown attribute \"zops\" (allowed: flops, iops, loads, stores, dsize, divs, insts, vec, name)", false, []failure{{guard.SevError, "syntax", "unknown attr:2: unknown attribute \"zops\" (allowed: flops, iops, loads, stores, dsize, divs, insts, vec, name)"}}},
		{"bad while", "def main()\nwhile\nend\nend\n", "", "bad while:2: while requires iters=<expected trip count>", false, []failure{{guard.SevError, "syntax", "bad while:2: while requires iters=<expected trip count>"}}},
		{"unterminated str", "def main()\ncomp name=\"x\nend\n", "", "unterminated str:2: unterminated string literal", false, []failure{{guard.SevError, "syntax", "unterminated str:2: unterminated string literal"}}},
		{"dup func", "def f()\nend\ndef f()\nend\n", "", "dup func:3: duplicate function \"f\"", false, []failure{{guard.SevError, "duplicate-function", "dup func:3: duplicate function \"f\""}}},
		{"nested def", "def f()\ndef g()\nend\nend\n", "", "nested def:2: nested function definitions are not allowed", false, []failure{{guard.SevError, "nested-def", "nested def:2: nested function definitions are not allowed"}}},
		// Nesting is checked before the header, in both modes.
		{"nested bad def", "def f()\ndef g(\nend\nend\n", "", "nested bad def:2: nested function definitions are not allowed", false, []failure{{guard.SevError, "nested-def", "nested bad def:2: nested function definitions are not allowed"}, {guard.SevError, "syntax", "nested bad def:2: malformed def; want: def name(p1, p2, ...)"}}},
		{"bad call", "def main()\ncall 3()\nend\n", "", "bad call:2: malformed call; want: call name(arg, ...)", false, []failure{{guard.SevError, "syntax", "bad call:2: malformed call; want: call name(arg, ...)"}}},
		{"empty call arg", "def main()\ncall f(,)\nend\n", "", "empty call arg:2: empty argument in call", false, []failure{{guard.SevError, "syntax", "empty call arg:2: empty argument in call"}}},
		{"bad set", "def main()\nset = 3\nend\n", "", "bad set:2: malformed set; want: set name = expr", false, []failure{{guard.SevError, "syntax", "bad set:2: malformed set; want: set name = expr"}}},
		{"if bare assign", "def main()\nif k\nend\nend\n# still ok", "", "", false, nil},
		{"else tokens", "def main()\nif prob=0.5\nelse x\nend\nend\n", "", "else tokens:3: unexpected tokens after else", false, []failure{{guard.SevWarn, "trailing-tokens", "else tokens:3: unexpected tokens after else (ignored)"}}},
		{"end tokens", "def main()\nend x\n", "", "end tokens:2: unexpected tokens after end", false, []failure{{guard.SevWarn, "trailing-tokens", "end tokens:2: unexpected tokens after end (ignored)"}}},
		{"source limit", "def main()\nend\n", "source-bytes=8", "source limit: guard: source bytes 15 exceeds limit 8", true, []failure{{guard.SevError, "limit", "source limit: guard: source bytes 15 exceeds limit 8"}}},
		{"nest limit", "def main()\nfor i = 0 : 2\nfor j = 0 : 2\nend\nend\nend\n", "nest-depth=2", "nest limit:3: guard: nesting depth 3 exceeds limit 2", true, []failure{{guard.SevError, "limit", "nest limit:3: guard: nesting depth 3 exceeds limit 2; block and its contents dropped"}}},
		{"depth attr", "def main()\ncomp flops=((1))\nend\n", "expr-depth=2", "depth attr:2: attribute \"flops\": expr: guard: expression depth 3 exceeds limit 2", true, []failure{{guard.SevError, "expr-hole", "depth attr:2: attribute \"flops\": expr: guard: expression depth 3 exceeds limit 2"}}},
		{"depth for", "def main(n)\nfor i = 0 : ((n))\nend\nend\n", "expr-depth=2", "depth for:2: for range: expr: guard: expression depth 3 exceeds limit 2", true, []failure{{guard.SevError, "syntax", "depth for:2: for range: expr: guard: expression depth 3 exceeds limit 2"}}},
		{"depth if", "def main(k)\nif ((k))\nend\nend\n", "expr-depth=2", "depth if:2: if condition: expr: guard: expression depth 3 exceeds limit 2", true, []failure{{guard.SevError, "syntax", "depth if:2: if condition: expr: guard: expression depth 3 exceeds limit 2"}}},
		{"depth call", "def main()\ncall f(((1)))\nend\ndef f(x)\nend\n", "expr-depth=2", "depth call:2: call argument: expr: guard: expression depth 3 exceeds limit 2", true, []failure{{guard.SevError, "syntax", "depth call:2: call argument: expr: guard: expression depth 3 exceeds limit 2"}}},
		{"depth set", "def main()\nset x = ((1))\nend\n", "expr-depth=2", "depth set:2: set value: expr: guard: expression depth 3 exceeds limit 2", true, []failure{{guard.SevError, "syntax", "depth set:2: set value: expr: guard: expression depth 3 exceeds limit 2"}}},
		{"depth var", "def main(n)\nvar A[((n))]\nend\n", "expr-depth=2", "depth var:2: var extent: expr: guard: expression depth 3 exceeds limit 2", true, []failure{{guard.SevError, "syntax", "depth var:2: var extent: expr: guard: expression depth 3 exceeds limit 2"}}},
	}
	for _, tc := range cases {
		lim, err := guard.ParseLimits(tc.limits)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ParseWithLimits(tc.name, tc.src, lim)
		if got := errText(err); got != tc.err {
			t.Errorf("%s: strict error %q, want %q", tc.name, got, tc.err)
		}
		if errors.Is(err, guard.ErrLimit) != tc.limit {
			t.Errorf("%s: errors.Is(%v, guard.ErrLimit) = %v, want %v", tc.name, err, !tc.limit, tc.limit)
		}
		prog, diags := ParseLenient(tc.name, tc.src, lim)
		if prog == nil {
			t.Errorf("%s: ParseLenient returned a nil program", tc.name)
		}
		var found []failure
		for _, d := range diags {
			found = append(found, failure{d.Severity, d.Code, d.Message})
		}
		if !reflect.DeepEqual(found, tc.diags) {
			t.Errorf("%s: lenient diagnostics\n got %+v\nwant %+v", tc.name, found, tc.diags)
		}
	}
}

func TestBareConditionExpr(t *testing.T) {
	p, err := Parse("t", "def main(k)\nif k > 3\ncomp flops=1\nend\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	ifs := p.Funcs[0].Body[0].(*If)
	if ifs.Cases[0].Cond.Kind != CondExpr {
		t.Error("bare comparison should be CondExpr")
	}
	v := mustEval(ifs.Cases[0].Cond.X, expr.Env{"k": 5})
	if v != 1 {
		t.Errorf("cond eval = %g", v)
	}
}

// TestValidateErrors pins, for each program, the error ValidateEntry
// returns, and the diagnostic messages and error ValidateLenient returns.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name, src, entry string
		err, lenientErr  string
		findings         []string
	}{
		{"undefined call", "def main()\ncall nosuch()\nend\n", "main", "undefined call:2: call to undefined function \"nosuch\"", "", []string{"undefined call:2: call to undefined function \"nosuch\""}},
		{"arity mismatch", "def main()\ncall f(1)\nend\ndef f(a, b)\nend\n", "main", "arity mismatch:2: call to \"f\" with 1 args, want 2", "", []string{"arity mismatch:2: call to \"f\" with 1 args, want 2"}},
		{"break outside", "def main()\nbreak\nend\n", "main", "break outside:2: break outside loop", "", []string{"break outside:2: break outside loop"}},
		{"cont outside", "def main()\ncontinue\nend\n", "main", "cont outside:2: continue outside loop", "", []string{"cont outside:2: continue outside loop"}},
		{"recursion", "def main()\ncall f()\nend\ndef f()\ncall main()\nend\n", "main", "recursion: recursive call cycle: [main f] -> main", "recursion: recursive call cycle: [main f] -> main", nil},
		{"self recursion", "def main()\ncall main()\nend\n", "main", "self recursion: recursive call cycle: [main] -> main", "self recursion: recursive call cycle: [main] -> main", nil},
		{"no main", "def f()\nend\n", "main", "skeleton: no function \"main\" in no main", "skeleton: no function \"main\" in no main", nil},
		{"entry f", "def f()\nend\n", "f", "", "", nil},
		{"findings before recursion", "def main()\ncall main()\nfor i = 0 : 2\nbreak\nend\ncontinue\nend\ndef g()\ncall h(1)\nend\n", "main", "findings before recursion:6: continue outside loop", "findings before recursion: recursive call cycle: [main] -> main", []string{"findings before recursion:6: continue outside loop", "findings before recursion:9: call to undefined function \"h\""}},
	}
	for _, tc := range cases {
		p, err := Parse(tc.name, tc.src)
		if err != nil {
			t.Fatalf("%s: parse failed: %v", tc.name, err)
		}
		if got := errText(ValidateEntry(p, tc.entry)); got != tc.err {
			t.Errorf("%s: ValidateEntry error %q, want %q", tc.name, got, tc.err)
		}
		diags, err := ValidateLenient(p, tc.entry)
		if got := errText(err); got != tc.lenientErr {
			t.Errorf("%s: ValidateLenient error %q, want %q", tc.name, got, tc.lenientErr)
		}
		var found []string
		for _, d := range diags {
			found = append(found, d.Message)
		}
		if !reflect.DeepEqual(found, tc.findings) {
			t.Errorf("%s: ValidateLenient findings\n got %q\nwant %q", tc.name, found, tc.findings)
		}
	}
}

func TestAttributesWithSpaces(t *testing.T) {
	src := "def main(n)\ncomp flops=4 * n + 1 loads=n * 2 name=\"spaced\"\nend\n"
	p, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Funcs[0].Body[0].(*Comp)
	if v := mustEval(c.M.FLOPs, expr.Env{"n": 10}); v != 41 {
		t.Errorf("flops eval = %g, want 41", v)
	}
	if v := mustEval(c.M.Loads, expr.Env{"n": 10}); v != 20 {
		t.Errorf("loads eval = %g, want 20", v)
	}
}

func TestExponentNumbers(t *testing.T) {
	p, err := Parse("t", "def main(n)\nif prob=2.5e-05\ncomp flops=1E+20 loads=n-1\nend\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	br := p.Funcs[0].Body[0].(*If)
	if v := mustEval(br.Cases[0].Cond.X, nil); v != 2.5e-05 {
		t.Errorf("prob = %g, want 2.5e-05", v)
	}
	c := br.Cases[0].Body[0].(*Comp)
	if v := mustEval(c.M.FLOPs, nil); v != 1e20 {
		t.Errorf("flops = %g, want 1e20", v)
	}
	if v := mustEval(c.M.Loads, expr.Env{"n": 10}); v != 9 {
		t.Errorf("loads = %g, want 9", v)
	}
}

func TestForWithStep(t *testing.T) {
	p, err := Parse("t", "def main(n)\nfor i = 0 : n : 2\ncomp flops=1\nend\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	loop := p.Funcs[0].Body[0].(*Loop)
	if loop.Step == nil {
		t.Fatal("step not parsed")
	}
	if v := mustEval(loop.Step, nil); v != 2 {
		t.Errorf("step = %g", v)
	}
}

func TestVarDeclExtents(t *testing.T) {
	p, err := Parse("t", "def main(n, m)\nvar A[n][m + 1] dsize=4\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	v := p.Funcs[0].Body[0].(*VarDecl)
	if len(v.Extents) != 2 {
		t.Fatalf("extents = %d, want 2", len(v.Extents))
	}
	if got := mustEval(v.Extents[1], expr.Env{"m": 4}); got != 5 {
		t.Errorf("extent[1] = %g", got)
	}
	if got := mustEval(v.DSize, nil); got != 4 {
		t.Errorf("dsize = %g", got)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := "\n# leading comment\n\ndef main()  # trailing comment\n  comp flops=1  # another\n\nend\n"
	p, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs[0].Body) != 1 {
		t.Errorf("body = %d stmts", len(p.Funcs[0].Body))
	}
}

func TestDefaultCompName(t *testing.T) {
	p, err := Parse("t", "def main()\ncomp flops=1\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	c := p.Funcs[0].Body[0].(*Comp)
	if !strings.HasPrefix(c.Name, "L") {
		t.Errorf("default comp name = %q", c.Name)
	}
}

func TestFuncMissingError(t *testing.T) {
	p := parsePedagogical(t)
	if _, err := p.Func("nosuch"); err == nil {
		t.Error("Func(nosuch) should fail")
	}
}

// mustEval evaluates e under env, panicking on error.
func mustEval(e expr.Expr, env expr.Env) float64 {
	v, err := e.Eval(env)
	if err != nil {
		panic(err)
	}
	return v
}
