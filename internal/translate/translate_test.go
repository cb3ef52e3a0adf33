package translate

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"skope/internal/bst"
	"skope/internal/core"
	"skope/internal/expr"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/interp"
	"skope/internal/libmodel"
	"skope/internal/minilang"
	"skope/internal/sim"
	"skope/internal/skeleton"
	"skope/internal/workloads"
)

// prepProgram parses, checks and profiles a minilang program.
func prepProgram(t *testing.T, src string) (*minilang.Program, *interp.Profile) {
	t.Helper()
	prog, err := minilang.Parse("tp", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minilang.Check(prog); err != nil {
		t.Fatal(err)
	}
	pr := interp.NewProfiler()
	e, err := interp.New(prog, &interp.Options{Observer: pr})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return prog, pr.P
}

const pipelineSrc = `
global n: int = 256;
global a: [n][n]float;
global b: [n][n]float;
global total: float;

func main() {
  fill();
  smooth();
  reduce();
}

func fill() {
  for i = 0 .. n {
    for j = 0 .. n {
      a[i][j] = rand();
    }
  }
}

func smooth() {
  for i = 1 .. n - 1 {
    for j = 1 .. n - 1 {
      b[i][j] = (a[i-1][j] + a[i+1][j] + a[i][j-1] + a[i][j+1] + a[i][j]) * 0.2;
    }
  }
}

func reduce() {
  total = 0.0;
  for i = 0 .. n {
    for j = 0 .. n {
      if (b[i][j] > 0.5) {
        total = total + b[i][j];
      }
    }
  }
}
`

func TestInputEnv(t *testing.T) {
	prog, _ := prepProgram(t, pipelineSrc)
	env, err := InputEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	if env["n"] != 256 {
		t.Errorf("n = %g", env["n"])
	}
	if _, ok := env["a"]; ok {
		t.Error("array leaked into input env")
	}
}

func TestTranslatePipeline(t *testing.T) {
	prog, prof := prepProgram(t, pipelineSrc)
	res, err := Translate(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	// Structural expectations.
	for _, want := range []string{
		"def main(", "def fill(", "def smooth(", "def reduce(",
		"call fill()", "call smooth()", "call reduce()",
		"var a[n][n]", "for i = 0 : n", "comp", "lib rand",
		"if prob=",
	} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("skeleton missing %q:\n%s", want, res.Text)
		}
	}
	// The generated skeleton must parse (Translate validates) and build a
	// BET with no context blowup.
	tree := mustBST(res.Prog)
	bet, err := core.Build(context.Background(), tree, res.Input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := bet.SizeRatio(); r > 2 {
		t.Errorf("BET size ratio = %g, want <= 2", r)
	}
}

func TestTranslatedBranchProbability(t *testing.T) {
	src := `
global n: int = 1000;
global hits: int;
func main() {
  hits = 0;
  for i = 0 .. n {
    if (i % 10 == 0) {
      hits = hits + 1;
    }
  }
}
`
	prog, prof := prepProgram(t, src)
	res, err := Translate(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "if prob=0.1") {
		t.Errorf("profiled probability not folded in:\n%s", res.Text)
	}
}

func TestTranslatedWhileUsesProfiledTrips(t *testing.T) {
	src := `
global x: float;
func main() {
  x = 1000.0;
  while (x > 1.0) {
    x = x * 0.5;
  }
}
`
	prog, prof := prepProgram(t, src)
	res, err := Translate(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "while iters=10 label=\"while@L5\"") {
		t.Errorf("profiled while trips missing:\n%s", res.Text)
	}
}

func TestDataDependentForFallsBackToProfile(t *testing.T) {
	src := `
global a: [64]float;
global k: int;
func main() {
  a[0] = 40.0;
  k = a[0];
  for i = 0 .. k {
    a[1] = a[1] + 1.0;
  }
}
`
	prog, prof := prepProgram(t, src)
	res, err := Translate(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	// k is data-dependent (loaded from an array): the loop must become a
	// profiled while.
	if !strings.Contains(res.Text, "while iters=40") {
		t.Errorf("data-dependent for not profile-estimated:\n%s", res.Text)
	}
}

func TestStaticBoundsStaySymbolic(t *testing.T) {
	src := `
global n: int = 128;
global a: [n]float;
func main() {
  var half: int = n / 2;
  for i = 0 .. half {
    a[i] = 1.0;
  }
}
`
	prog, prof := prepProgram(t, src)
	res, err := Translate(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "set half = floor((n) / (2))") {
		t.Errorf("tracked scalar not set:\n%s", res.Text)
	}
	if !strings.Contains(res.Text, "for i = 0 : half") {
		t.Errorf("static bound not symbolic:\n%s", res.Text)
	}
	// And the BET must evaluate it to 64 iterations.
	tree := mustBST(res.Prog)
	bet, err := core.Build(context.Background(), tree, res.Input, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	core.Walk(bet.Root, func(nd *core.Node) bool {
		if nd.Kind() == bst.KindLoop && nd.Iters == 64 {
			found = true
		}
		return true
	})
	if !found {
		t.Errorf("loop iters != 64 in BET:\n%s", bet.Dump())
	}
}

func TestVecHintPropagates(t *testing.T) {
	src := `
global n: int = 64;
global a: [n]float;
func main() {
  for i = 0 .. n @vec {
    a[i] = a[i] * 2.0;
  }
}
`
	prog, prof := prepProgram(t, src)
	res, err := Translate(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "vec=8") {
		t.Errorf("vec hint missing:\n%s", res.Text)
	}
}

func TestCallArgsTranslated(t *testing.T) {
	src := `
global n: int = 32;
global a: [n]float;
func main() {
  work(n * 2);
}
func work(m: int) {
  for i = 0 .. m {
    a[0] = a[0] + 1.0;
  }
}
`
	prog, prof := prepProgram(t, src)
	res, err := Translate(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "call work((n * 2))") {
		t.Errorf("call args not symbolic:\n%s", res.Text)
	}
	tree := mustBST(res.Prog)
	bet, err := core.Build(context.Background(), tree, res.Input, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	core.Walk(bet.Root, func(nd *core.Node) bool {
		if nd.Kind() == bst.KindLoop {
			got = nd.Iters
		}
		return true
	})
	if got != 64 {
		t.Errorf("callee loop iters = %g, want 64", got)
	}
}

func TestSegmentBlockIDsMatchSimulator(t *testing.T) {
	prog, prof := prepProgram(t, pipelineSrc)
	res, err := Translate(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(context.Background(), prog, hw.BGQ(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := mustBST(res.Prog)
	bet, err := core.Build(context.Background(), tree, res.Input, nil)
	if err != nil {
		t.Fatal(err)
	}
	libs, err := libmodel.Default()
	if err != nil {
		t.Fatal(err)
	}
	a, err := hotspot.Analyze(context.Background(), bet, hw.NewModel(hw.BGQ()), libs)
	if err != nil {
		t.Fatal(err)
	}
	// Every modeled comp block with meaningful time must exist in the
	// measured profile under the same ID.
	simulated := map[string]bool{}
	for _, b := range simRes.Blocks {
		simulated[b.ID] = true
	}
	for _, blk := range a.Blocks {
		if a.Coverage(blk) < 0.01 {
			continue
		}
		if !simulated[blk.BlockID] {
			t.Errorf("modeled block %s absent from simulation (sim has %v)",
				blk.BlockID, topIDs(simRes, 10))
		}
	}
	// And the dominant blocks must agree: smooth's stencil is the top
	// measured block; the model must rank it in its top 2.
	top := simRes.Blocks[0].ID
	if len(a.Blocks) < 2 || (a.Blocks[0].BlockID != top && a.Blocks[1].BlockID != top) {
		t.Errorf("top measured block %s is not in the model's top 2", top)
	}
}

func TestUnevaluableCallArgWarns(t *testing.T) {
	src := `
global a: [8]float;
func main() {
  var k: int = 0;
  k = a[0];
  work(k);
}
func work(m: int) {
  a[1] = a[1] + 1.0;
}
`
	prog, prof := prepProgram(t, src)
	res, err := Translate(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Error("expected a warning for data-dependent call argument")
	}
	if !strings.Contains(res.Text, "call work(0)") {
		t.Errorf("fallback arg missing:\n%s", res.Text)
	}
}

func TestNoProfileStaticProgram(t *testing.T) {
	src := `
global n: int = 16;
global a: [n]float;
func main() {
  for i = 0 .. n {
    a[i] = 1.0;
  }
}
`
	prog, err := minilang.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minilang.Check(prog); err != nil {
		t.Fatal(err)
	}
	res, err := Translate(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Errorf("static program produced warnings: %v", res.Warnings)
	}
}

func TestIntDivisionFloored(t *testing.T) {
	env := expr.Env{"n": 7}
	e, err := expr.Parse("floor((n) / (2))")
	if err != nil {
		t.Fatal(err)
	}
	if v := mustEval(e, env); v != 3 {
		t.Errorf("floored int division = %g", v)
	}
}

func topIDs(r *sim.Result, n int) []string {
	out := []string{}
	for _, b := range r.TopN(n) {
		out = append(out, b.ID)
	}
	return out
}

func TestExchangeTranslation(t *testing.T) {
	src := `
global n: int = 32;
global a: [n]float;
func main() {
  for t = 0 .. 4 {
    a[0] = a[0] + 1.0;
    exchange(n * 8, 2);
  }
}
`
	prog, prof := prepProgram(t, src)
	res, err := Translate(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "comm bytes=(n * 8) msgs=2 name=\"comm@L7\"") {
		t.Errorf("exchange not translated:\n%s", res.Text)
	}
}

func TestExchangeDataDependentArgsWarn(t *testing.T) {
	src := `
global a: [8]float;
func main() {
  var b: int = 0;
  b = a[0];
  exchange(b, 1);
}
`
	prog, prof := prepProgram(t, src)
	res, err := Translate(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Error("expected warning for data-dependent exchange volume")
	}
	if !strings.Contains(res.Text, "comm bytes=0") {
		t.Errorf("fallback bytes missing:\n%s", res.Text)
	}
}

func TestInputEnvArithmeticGlobals(t *testing.T) {
	src := `
global n: int = 4;
global m: int = n * 3 + 2;
global half: int = m / 2;
global r: int = m % 5;
global neg: int = -(n);
global notv: int = !(0);
global f: float = 1.0 / 4.0;
func main() {}
`
	prog, err := minilang.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minilang.Check(prog); err != nil {
		t.Fatal(err)
	}
	env, err := InputEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"n": 4, "m": 14, "half": 7, "r": 4, "neg": -4, "notv": 1, "f": 0.25}
	for k, v := range want {
		if env[k] != v {
			t.Errorf("%s = %g, want %g", k, env[k], v)
		}
	}
}

func TestInputEnvDivZero(t *testing.T) {
	src := "global z: int = 0;\nglobal bad: int = 4 / z;\nfunc main() {}"
	prog, err := minilang.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minilang.Check(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := InputEnv(prog); err == nil {
		t.Error("division by zero in global init accepted")
	}
}

// TestInputEnvIsInterpreterGlobals: the model's input context is exactly
// the profiling run's initial scalar globals, on the five workloads and on
// initializers with a comparison or an IEEE float division by zero.
func TestInputEnvIsInterpreterGlobals(t *testing.T) {
	srcs := map[string]string{
		"comparison": `
global n: int = 64;
global big: int = n > 32;
global a: [n]float;
func main() {
  for i = 0 .. n {
    if (big > 0) {
      a[i] = a[i] * 2.0 + 1.0;
    }
  }
}
`,
		"float-div-zero": `
global n: int = 64;
global inv: float = 1.0 / (n - 64);
global a: [n]float;
func main() {
  for i = 0 .. n {
    a[i] = a[i] + 1.0;
  }
}
`,
	}
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name, workloads.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		srcs[name] = w.Source
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			prog, prof := prepProgram(t, src)
			res, err := Translate(prog, prof)
			if err != nil {
				t.Fatal(err)
			}
			e, err := interp.New(prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(map[string]float64(res.Input), e.Globals) {
				t.Errorf("input context %v != interpreter's initial globals %v", res.Input, e.Globals)
			}
		})
	}
}

func TestVarDeclWithUserCallInit(t *testing.T) {
	src := `
global a: [8]float;
func main() {
  var x: float = helper();
  a[0] = x;
}
func helper(): float {
  return 2.5;
}
`
	prog, prof := prepProgram(t, src)
	res, err := Translate(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "call helper()") {
		t.Errorf("call-in-decl not translated:\n%s", res.Text)
	}
}

func TestWhileWithoutProfileWarns(t *testing.T) {
	// A while loop inside a never-executed branch has no profile entry.
	src := `
global flag: int = 0;
global x: float;
func main() {
  if (flag == 1) {
    while (x > 0.0) {
      x = x - 1.0;
    }
  }
}
`
	prog, prof := prepProgram(t, src)
	res, err := Translate(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "no profile entry") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected no-profile warning, got %v", res.Warnings)
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

// mustBST builds the BST of prog, panicking on error.
func mustBST(prog *skeleton.Program) *bst.Tree {
	tree, err := bst.Build(prog)
	if err != nil {
		panic(err)
	}
	return tree
}
