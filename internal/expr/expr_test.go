package expr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstEval(t *testing.T) {
	v, err := Const(3.5).Eval(nil)
	if err != nil || v != 3.5 {
		t.Fatalf("Const eval = %v, %v", v, err)
	}
}

func TestVarEval(t *testing.T) {
	env := Env{"n": 42}
	v, err := Var("n").Eval(env)
	if err != nil || v != 42 {
		t.Fatalf("Var eval = %v, %v", v, err)
	}
	if _, err := Var("missing").Eval(env); err == nil {
		t.Fatal("expected unbound variable error")
	}
}

func TestParseArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		env  Env
		want float64
	}{
		{"1+2*3", nil, 7},
		{"(1+2)*3", nil, 9},
		{"10-4-3", nil, 3},
		{"2^10", nil, 1024},
		{"2^2^3", nil, 256}, // right associative
		{"7%3", nil, 1},
		{"n*m", Env{"n": 6, "m": 7}, 42},
		{"min(3, 5)", nil, 3},
		{"max(3, 5)", nil, 5},
		{"ceil(2.1)", nil, 3},
		{"floor(2.9)", nil, 2},
		{"abs(-4)", nil, 4},
		{"sqrt(16)", nil, 4},
		{"log2(8)", nil, 3},
		{"1 < 2", nil, 1},
		{"2 <= 1", nil, 0},
		{"3 == 3", nil, 1},
		{"3 != 3", nil, 0},
		{"1 && 0", nil, 0},
		{"1 || 0", nil, 1},
		{"n > 5 ? 10 : 20", Env{"n": 6}, 10},
		{"n > 5 ? 10 : 20", Env{"n": 5}, 20},
		{"-n", Env{"n": 3}, -3},
		{"!0", nil, 1},
		{"!7", nil, 0},
		{"1.5e2", nil, 150},
		{"n/4", Env{"n": 10}, 2.5},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		got, err := e.Eval(c.env)
		if err != nil {
			t.Errorf("Eval(%q): %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("Eval(%q) = %g, want %g", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "min(1)", "nosuchfn(1,2)", "1 2", "? 1 : 2", "a ? 1", "a ? 1 :",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	cases := []string{"1/0", "7%0", "sqrt(-1)", "log2(0)", "x+1"}
	for _, src := range cases {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := e.Eval(Env{}); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"1+2*3", "n*(m+1)", "min(n, 4)/2", "n > 5 ? 10 : 20",
		"-x + 3", "a && b || c", "2^n", "abs(x - y)",
	}
	env := Env{"n": 7, "m": 3, "x": 2, "y": 9, "a": 1, "b": 0, "c": 1}
	for _, src := range srcs {
		e1 := MustParse(src)
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("re-parse of %q -> %q failed: %v", src, e1.String(), err)
		}
		v1 := MustEval(e1, env)
		v2 := MustEval(e2, env)
		if v1 != v2 {
			t.Errorf("round trip %q: %g != %g", src, v1, v2)
		}
	}
}

func TestFreeVars(t *testing.T) {
	e := MustParse("n*m + min(n, k) - 3")
	got := FreeVars(e)
	want := []string{"k", "m", "n"}
	if len(got) != len(want) {
		t.Fatalf("FreeVars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FreeVars = %v, want %v", got, want)
		}
	}
}

func TestIsConst(t *testing.T) {
	if v, ok := IsConst(MustParse("2*3+4")); !ok || v != 10 {
		t.Errorf("IsConst(2*3+4) = %v, %v", v, ok)
	}
	if _, ok := IsConst(MustParse("n+1")); ok {
		t.Error("IsConst(n+1) should be false")
	}
}

func TestSimplifyFoldsConstants(t *testing.T) {
	cases := map[string]float64{
		"2*3+4":       10,
		"min(2, 7)":   2,
		"1 ? 5 : 9":   5,
		"0 ? 5 : 9":   9,
		"-(2+3)":      -5,
		"sqrt(4) + 2": 4,
	}
	for src, want := range cases {
		s := Simplify(MustParse(src))
		c, ok := s.(Const)
		if !ok {
			t.Errorf("Simplify(%q) = %s, not a constant", src, s)
			continue
		}
		if float64(c) != want {
			t.Errorf("Simplify(%q) = %g, want %g", src, float64(c), want)
		}
	}
}

func TestSimplifyIdentities(t *testing.T) {
	cases := map[string]string{
		"n + 0": "n",
		"0 + n": "n",
		"n - 0": "n",
		"n * 1": "n",
		"1 * n": "n",
		"n * 0": "0",
		"0 * n": "0",
		"n / 1": "n",
	}
	for src, want := range cases {
		s := Simplify(MustParse(src))
		if s.String() != want {
			t.Errorf("Simplify(%q) = %s, want %s", src, s, want)
		}
	}
}

func TestSimplifyPreservesValue(t *testing.T) {
	env := Env{"n": 13, "m": 5}
	srcs := []string{
		"n*m + 2*3", "min(n, m*2) + 0", "(n > m ? n : m) * 1", "n - 0 + (4-4)",
	}
	for _, src := range srcs {
		e := MustParse(src)
		s := Simplify(e)
		if MustEval(e, env) != MustEval(s, env) {
			t.Errorf("Simplify changed value of %q: %s", src, s)
		}
	}
}

func TestEnvCloneIndependent(t *testing.T) {
	a := Env{"x": 1}
	b := a.Clone()
	b["x"] = 2
	b["y"] = 3
	if a["x"] != 1 {
		t.Error("Clone is not independent")
	}
	if _, ok := a["y"]; ok {
		t.Error("Clone leaked new key into original")
	}
}

func TestFormatEnvSorted(t *testing.T) {
	s := FormatEnv(Env{"b": 2, "a": 1})
	if s != "{a=1, b=2}" {
		t.Errorf("FormatEnv = %q", s)
	}
}

// Property: Simplify never changes the value of an expression, for randomly
// generated expression trees.
func TestQuickSimplifyEquivalence(t *testing.T) {
	env := Env{"a": 3, "b": 7, "c": 11}
	f := func(seed int64) bool {
		e := randomExpr(newRand(seed), 0)
		v1, err1 := e.Eval(env)
		s := Simplify(e)
		v2, err2 := s.Eval(env)
		if err1 != nil {
			// Simplification may fold an erroring subtree away only if it
			// provably cannot be reached; otherwise both may error. Accept
			// any outcome when the original errors.
			return true
		}
		if err2 != nil {
			return false
		}
		if math.IsNaN(v1) && math.IsNaN(v2) {
			return true
		}
		return v1 == v2 || math.Abs(v1-v2) < 1e-9*math.Max(math.Abs(v1), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: String renders a parseable expression with the same value.
func TestQuickStringRoundTrip(t *testing.T) {
	env := Env{"a": 3, "b": 7, "c": 11}
	f := func(seed int64) bool {
		e := randomExpr(newRand(seed), 0)
		v1, err1 := e.Eval(env)
		e2, err := Parse(e.String())
		if err != nil {
			return false
		}
		v2, err2 := e2.Eval(env)
		if err1 != nil {
			return err2 != nil
		}
		if err2 != nil {
			return false
		}
		if math.IsNaN(v1) && math.IsNaN(v2) {
			return true
		}
		return v1 == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// newRand is a tiny deterministic PRNG (xorshift) so the property tests do
// not depend on math/rand seeding behaviour across Go versions.
type xorshift uint64

func newRand(seed int64) *xorshift {
	x := xorshift(seed)
	if x == 0 {
		x = 0x9E3779B97F4A7C15
	}
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

func randomExpr(r *xorshift, depth int) Expr {
	if depth > 4 || r.intn(4) == 0 {
		switch r.intn(3) {
		case 0:
			return Const(float64(r.intn(21) - 10))
		case 1:
			return Var([]string{"a", "b", "c"}[r.intn(3)])
		default:
			return Const(float64(r.intn(5)))
		}
	}
	switch r.intn(6) {
	case 0:
		return &Neg{X: randomExpr(r, depth+1)}
	case 1:
		return &Call{Name: "min", Args: []Expr{randomExpr(r, depth+1), randomExpr(r, depth+1)}}
	case 2:
		return &Call{Name: "abs", Args: []Expr{randomExpr(r, depth+1)}}
	case 3:
		return &Cond{If: randomExpr(r, depth+1), Then: randomExpr(r, depth+1), Else: randomExpr(r, depth+1)}
	default:
		ops := []Op{Add, Sub, Mul, Div, Mod, Lt, Le, Gt, Ge, Eq, Ne, And, Or}
		return &Binary{Op: ops[r.intn(len(ops))], L: randomExpr(r, depth+1), R: randomExpr(r, depth+1)}
	}
}

func TestParseIdentWithDots(t *testing.T) {
	// Hint files use dotted names like "grid.nx".
	e := MustParse("grid.nx * grid.ny")
	v := MustEval(e, Env{"grid.nx": 4, "grid.ny": 5})
	if v != 20 {
		t.Errorf("dotted ident eval = %g", v)
	}
}

func TestCallStringHasCommaSpace(t *testing.T) {
	s := (&Call{Name: "min", Args: []Expr{Var("a"), Const(2)}}).String()
	if !strings.Contains(s, "min(a, 2)") {
		t.Errorf("Call.String = %q", s)
	}
}

// MustParse parses src and panics on error; for statically-known expressions.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// MustEval evaluates e under env and panics on error. It is intended for
// expressions already validated by the caller (e.g. in tests and examples).
func MustEval(e Expr, env Env) float64 {
	v, err := e.Eval(env)
	if err != nil {
		panic(err)
	}
	return v
}

// Simplify performs constant folding on e, returning a (possibly) smaller
// equivalent expression. Variables and unevaluable subtrees are preserved.
func Simplify(e Expr) Expr {
	switch t := e.(type) {
	case Const, Var:
		return e
	case *Neg:
		x := Simplify(t.X)
		if c, ok := x.(Const); ok {
			return Const(-float64(c))
		}
		return &Neg{X: x}
	case *Binary:
		l, r := Simplify(t.L), Simplify(t.R)
		lc, lok := l.(Const)
		rc, rok := r.(Const)
		if lok && rok {
			if v, err := applyOp(t.Op, float64(lc), float64(rc)); err == nil {
				return Const(v)
			}
		}
		// Identity simplifications.
		switch t.Op {
		case Add:
			if lok && float64(lc) == 0 {
				return r
			}
			if rok && float64(rc) == 0 {
				return l
			}
		case Sub:
			if rok && float64(rc) == 0 {
				return l
			}
		case Mul:
			if lok && float64(lc) == 1 {
				return r
			}
			if rok && float64(rc) == 1 {
				return l
			}
			if lok && float64(lc) == 0 {
				return Const(0)
			}
			if rok && float64(rc) == 0 {
				return Const(0)
			}
		case Div:
			if rok && float64(rc) == 1 {
				return l
			}
		}
		return &Binary{Op: t.Op, L: l, R: r}
	case *Call:
		args := make([]Expr, len(t.Args))
		allConst := true
		for i, a := range t.Args {
			args[i] = Simplify(a)
			if _, ok := args[i].(Const); !ok {
				allConst = false
			}
		}
		out := &Call{Name: t.Name, Args: args}
		if allConst {
			if v, err := out.Eval(nil); err == nil {
				return Const(v)
			}
		}
		return out
	case *Cond:
		cond := Simplify(t.If)
		if c, ok := cond.(Const); ok {
			if float64(c) != 0 {
				return Simplify(t.Then)
			}
			return Simplify(t.Else)
		}
		return &Cond{If: cond, Then: Simplify(t.Then), Else: Simplify(t.Else)}
	}
	return e
}
