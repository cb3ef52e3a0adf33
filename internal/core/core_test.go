package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"skope/internal/bst"
	"skope/internal/expr"
	"skope/internal/skeleton"
)

func buildBET(t *testing.T, src string, input expr.Env) *BET {
	t.Helper()
	prog, err := skeleton.Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tree, err := bst.Build(prog)
	if err != nil {
		t.Fatalf("bst: %v", err)
	}
	bet, err := Build(context.Background(), tree, input, nil)
	if err != nil {
		t.Fatalf("bet: %v", err)
	}
	return bet
}

func findNodes(b *BET, label string) []*Node {
	var out []*Node
	Walk(b.Root, func(n *Node) bool {
		if n.Label() == label {
			out = append(out, n)
		}
		return true
	})
	return out
}

func TestLoopNotIterated(t *testing.T) {
	// A loop over n iterations must contribute O(1) BET nodes regardless
	// of n — the paper's core efficiency claim.
	src := "def main(n)\nfor i = 0 : n\ncomp flops=2*i name=\"body\"\nend\nend\n"
	small := buildBET(t, src, expr.Env{"n": 10})
	big := buildBET(t, src, expr.Env{"n": 1e9})
	if small.NumNodes() != big.NumNodes() {
		t.Errorf("BET size depends on input: %d vs %d", small.NumNodes(), big.NumNodes())
	}
	loop := findNodes(big, "loop@main:2")[0]
	if loop.Iters != 1e9 {
		t.Errorf("loop iters = %g, want 1e9", loop.Iters)
	}
	// The comp node's ENR must be n (executes once per iteration).
	comp := findNodes(big, "body")[0]
	if comp.ENR != 1e9 {
		t.Errorf("comp ENR = %g, want 1e9", comp.ENR)
	}
}

func TestLoopVarBoundToExpectedValue(t *testing.T) {
	// flops=2*i with i over [0,10) should evaluate at E[i] = 4.5.
	src := "def main(n)\nfor i = 0 : n\ncomp flops=2*i name=\"body\"\nend\nend\n"
	bet := buildBET(t, src, expr.Env{"n": 10})
	comp := findNodes(bet, "body")[0]
	if comp.Work.FLOPs != 9 {
		t.Errorf("FLOPs at expected loop var = %g, want 9", comp.Work.FLOPs)
	}
	// Total work ENR * per-invocation = 10 * 9 = 90 = sum over iterations
	// of 2*i for i=0..9.
	if got := comp.ENR * comp.Work.FLOPs; got != 90 {
		t.Errorf("total flops = %g, want 90", got)
	}
}

func TestLoopWithStepAndNegative(t *testing.T) {
	src := "def main()\nfor i = 0 : 10 : 2\ncomp flops=1 name=\"a\"\nend\nfor j = 10 : 0 : -2\ncomp flops=1 name=\"b\"\nend\nend\n"
	bet := buildBET(t, src, nil)
	a := findNodes(bet, "a")[0]
	if a.ENR != 5 {
		t.Errorf("step-2 loop ENR = %g, want 5", a.ENR)
	}
	b := findNodes(bet, "b")[0]
	if b.ENR != 5 {
		t.Errorf("negative-step loop ENR = %g, want 5", b.ENR)
	}
}

func TestEmptyRangeLoop(t *testing.T) {
	src := "def main(n)\nfor i = 5 : n\ncomp flops=1 name=\"body\"\nend\ncomp flops=1 name=\"after\"\nend\n"
	bet := buildBET(t, src, expr.Env{"n": 3})
	if nodes := findNodes(bet, "body"); len(nodes) != 0 {
		t.Errorf("empty loop body modeled %d times", len(nodes))
	}
	after := findNodes(bet, "after")[0]
	if after.ENR != 1 {
		t.Errorf("statement after empty loop ENR = %g", after.ENR)
	}
}

func TestProbBranchENR(t *testing.T) {
	src := `
def main(n)
  for i = 0 : n
    if prob=0.3
      comp flops=1 name="hot"
    else
      comp flops=1 name="cold"
    end
  end
end
`
	bet := buildBET(t, src, expr.Env{"n": 1000})
	hot := findNodes(bet, "hot")[0]
	cold := findNodes(bet, "cold")[0]
	if math.Abs(hot.ENR-300) > 1e-9 {
		t.Errorf("hot ENR = %g, want 300", hot.ENR)
	}
	if math.Abs(cold.ENR-700) > 1e-9 {
		t.Errorf("cold ENR = %g, want 700", cold.ENR)
	}
}

func TestElifChainProbabilities(t *testing.T) {
	src := `
def main()
  if prob=0.5
    comp flops=1 name="a"
  elif prob=0.5
    comp flops=1 name="b"
  else
    comp flops=1 name="c"
  end
end
`
	bet := buildBET(t, src, nil)
	// a: 0.5; b: 0.5*0.5 = 0.25; c: remaining 0.25.
	for name, want := range map[string]float64{"a": 0.5, "b": 0.25, "c": 0.25} {
		n := findNodes(bet, name)[0]
		if math.Abs(n.ENR-want) > 1e-12 {
			t.Errorf("%s ENR = %g, want %g", name, n.ENR, want)
		}
	}
}

func TestDeterministicCondBranch(t *testing.T) {
	src := `
def main(k)
  if cond = k == 1
    comp flops=1 name="taken"
  else
    comp flops=1 name="nottaken"
  end
end
`
	bet := buildBET(t, src, expr.Env{"k": 1})
	if len(findNodes(bet, "taken")) != 1 {
		t.Error("taken arm not modeled")
	}
	nt := findNodes(bet, "nottaken")
	if len(nt) != 0 {
		t.Errorf("not-taken arm modeled %d times", len(nt))
	}
}

// TestContextForkAtSet reproduces the paper's Figure 2 semantics: a branch
// assigning different values to knob leads to TWO call nodes for foo, each
// with its own probability and context (the rightmost nodes in Fig. 2(c)).
func TestContextForkAtSet(t *testing.T) {
	src := `
def main(n)
  if prob=0.3
    set knob = 1
  else
    set knob = 0
  end
  call foo(knob)
end

def foo(k)
  if cond = k == 1
    comp flops=100 name="heavy"
  else
    comp flops=1 name="light"
  end
end
`
	bet := buildBET(t, src, expr.Env{"n": 4})
	calls := findNodes(bet, "call@main:8")
	if len(calls) != 2 {
		t.Fatalf("foo mounted %d times, want 2 (context fork)", len(calls))
	}
	probs := []float64{calls[0].Prob, calls[1].Prob}
	if !(almostEq(probs[0], 0.3) && almostEq(probs[1], 0.7) ||
		almostEq(probs[0], 0.7) && almostEq(probs[1], 0.3)) {
		t.Errorf("call probs = %v, want {0.3, 0.7}", probs)
	}
	heavy := findNodes(bet, "heavy")
	light := findNodes(bet, "light")
	if len(heavy) != 1 || len(light) != 1 {
		t.Fatalf("heavy/light counts = %d/%d, want 1/1", len(heavy), len(light))
	}
	if !almostEq(heavy[0].ENR, 0.3) {
		t.Errorf("heavy ENR = %g, want 0.3", heavy[0].ENR)
	}
	if !almostEq(light[0].ENR, 0.7) {
		t.Errorf("light ENR = %g, want 0.7", light[0].ENR)
	}
}

func TestContextsMergeAfterPureProbBranch(t *testing.T) {
	// A probabilistic branch that does NOT assign variables must not fork
	// contexts: statements after it are modeled once.
	src := `
def main()
  if prob=0.5
    comp flops=1 name="a"
  end
  comp flops=1 name="after"
end
`
	bet := buildBET(t, src, nil)
	after := findNodes(bet, "after")
	if len(after) != 1 {
		t.Errorf("after modeled %d times, want 1", len(after))
	}
	if !almostEq(after[0].ENR, 1) {
		t.Errorf("after ENR = %g, want 1", after[0].ENR)
	}
}

func TestBreakTruncatesIterations(t *testing.T) {
	src := `
def main(n)
  for i = 0 : n
    comp flops=1 name="body"
    break prob=0.1
  end
end
`
	bet := buildBET(t, src, expr.Env{"n": 1000})
	loop := findNodes(bet, "loop@main:3")[0]
	want := (1 - math.Pow(0.9, 1000)) / 0.1 // ~10
	if math.Abs(loop.Iters-want) > 1e-9 {
		t.Errorf("loop iters with break = %g, want %g", loop.Iters, want)
	}
}

func TestBreakNeverFiresKeepsN(t *testing.T) {
	src := "def main(n)\nfor i = 0 : n\ncomp flops=1\nbreak prob=0\nend\nend\n"
	bet := buildBET(t, src, expr.Env{"n": 42})
	loop := findNodes(bet, "loop@main:2")[0]
	if loop.Iters != 42 {
		t.Errorf("p=0 break iters = %g, want 42", loop.Iters)
	}
}

func TestContinueScalesFollowingStatements(t *testing.T) {
	src := `
def main(n)
  for i = 0 : n
    comp flops=1 name="before"
    continue prob=0.25
    comp flops=1 name="after"
  end
end
`
	bet := buildBET(t, src, expr.Env{"n": 100})
	before := findNodes(bet, "before")[0]
	after := findNodes(bet, "after")[0]
	if !almostEq(before.ENR, 100) {
		t.Errorf("before ENR = %g", before.ENR)
	}
	if !almostEq(after.ENR, 75) {
		t.Errorf("after ENR = %g, want 75", after.ENR)
	}
}

func TestReturnKillsFollowing(t *testing.T) {
	src := `
def main()
  call f()
  comp flops=1 name="caller_after"
end

def f()
  comp flops=1 name="pre"
  return prob=0.6
  comp flops=1 name="post"
end
`
	bet := buildBET(t, src, nil)
	post := findNodes(bet, "post")[0]
	if !almostEq(post.ENR, 0.4) {
		t.Errorf("post ENR = %g, want 0.4", post.ENR)
	}
	// Return is absorbed at the call boundary: the caller continues fully.
	ca := findNodes(bet, "caller_after")[0]
	if !almostEq(ca.ENR, 1) {
		t.Errorf("caller_after ENR = %g, want 1", ca.ENR)
	}
}

func TestUnconditionalReturnZeroesRest(t *testing.T) {
	src := "def main()\nreturn\ncomp flops=1 name=\"dead\"\nend\n"
	bet := buildBET(t, src, nil)
	if len(findNodes(bet, "dead")) != 0 {
		t.Error("statement after unconditional return was modeled")
	}
}

func TestReturnInsideLoopTruncatesAndPropagates(t *testing.T) {
	src := `
def main()
  call f()
end

def f()
  for i = 0 : 100
    comp flops=1 name="body"
    return prob=0.5
  end
  comp flops=1 name="tail"
end
`
	bet := buildBET(t, src, nil)
	loop := findNodes(bet, "loop@f:7")[0]
	if math.Abs(loop.Iters-2) > 1e-6 { // (1-0.5^100)/0.5 ~= 2
		t.Errorf("loop iters = %g, want ~2", loop.Iters)
	}
	// Probability the function survives 100 iterations of p=0.5 return is
	// essentially zero: the context is pruned and "tail" is either absent
	// or has negligible ENR.
	if tails := findNodes(bet, "tail"); len(tails) > 0 && tails[0].ENR > 1e-9 {
		t.Errorf("tail ENR = %g, want ~0", tails[0].ENR)
	}
}

func TestCallArgumentBinding(t *testing.T) {
	src := `
def main(n)
  call work(n * 2)
end

def work(m)
  for i = 0 : m
    comp flops=1 name="w"
  end
end
`
	bet := buildBET(t, src, expr.Env{"n": 50})
	w := findNodes(bet, "w")[0]
	if w.ENR != 100 {
		t.Errorf("w ENR = %g, want 100", w.ENR)
	}
}

func TestNestedCallsMultiplyENR(t *testing.T) {
	src := `
def main(n)
  for i = 0 : n
    call mid()
  end
end

def mid()
  for j = 0 : 10
    call leaf()
  end
end

def leaf()
  comp flops=1 name="leafwork"
end
`
	bet := buildBET(t, src, expr.Env{"n": 5})
	leaf := findNodes(bet, "leafwork")[0]
	if leaf.ENR != 50 {
		t.Errorf("leaf ENR = %g, want 50", leaf.ENR)
	}
}

func TestWhileUsesExpectedTripCount(t *testing.T) {
	src := "def main(m)\nwhile iters=m/4 label=\"conv\"\ncomp flops=1 name=\"w\"\nend\nend\n"
	bet := buildBET(t, src, expr.Env{"m": 100})
	w := findNodes(bet, "w")[0]
	if w.ENR != 25 {
		t.Errorf("while body ENR = %g, want 25", w.ENR)
	}
}

func TestLibNode(t *testing.T) {
	src := "def main(n)\nlib exp count=3*n name=\"e\"\nend\n"
	bet := buildBET(t, src, expr.Env{"n": 7})
	e := findNodes(bet, "e")[0]
	if e.LibFunc != "exp" || e.LibCount != 21 {
		t.Errorf("lib node = %q count %g", e.LibFunc, e.LibCount)
	}
}

func TestSizeRatioBounded(t *testing.T) {
	src := `
def main(n)
  for i = 0 : n
    comp flops=1
    if prob=0.5
      comp flops=2
    end
  end
  call f(n)
end

def f(m)
  for j = 0 : m
    comp flops=j
  end
end
`
	bet := buildBET(t, src, expr.Env{"n": 1e6})
	r := bet.SizeRatio()
	if r <= 0 || r > 2 {
		t.Errorf("size ratio = %g, want (0, 2]", r)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := map[string]struct {
		src   string
		input expr.Env
	}{
		"missing entry":      {"def f()\nend\n", nil},
		"unbound loop bound": {"def main()\nfor i = 0 : n\ncomp flops=1\nend\nend\n", nil},
		"unbound cond":       {"def main()\nif cond = k > 0\ncomp flops=1\nend\nend\n", nil},
		"unbound metric":     {"def main()\ncomp flops=z\nend\n", nil},
		"zero step":          {"def main()\nfor i = 0 : 10 : 0\ncomp flops=1\nend\nend\n", nil},
		"unbound set":        {"def main()\nset x = y + 1\nend\n", nil},
		"unbound lib count":  {"def main()\nlib exp count=q\nend\n", nil},
		"undefined call":     {"def main()\ncall nosuch()\nend\n", nil},
	}
	for name, c := range cases {
		prog, err := skeleton.Parse(name, c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		tree, err := bst.Build(prog)
		if err != nil {
			t.Fatalf("%s: bst: %v", name, err)
		}
		if _, err := Build(context.Background(), tree, c.input, nil); err == nil {
			t.Errorf("%s: Build succeeded, want error", name)
		}
	}
}

func TestPathBackTrace(t *testing.T) {
	src := `
def main(n)
  for i = 0 : n label="outer"
    call f()
  end
end

def f()
  for j = 0 : 10 label="inner"
    comp flops=1 name="spot"
  end
end
`
	bet := buildBET(t, src, expr.Env{"n": 4})
	spot := findNodes(bet, "spot")[0]
	path := spot.Path()
	var labels []string
	for _, n := range path {
		labels = append(labels, n.Label())
	}
	want := []string{"main", "outer", "call@main:4", "inner", "spot"}
	if strings.Join(labels, ",") != strings.Join(want, ",") {
		t.Errorf("path = %v, want %v", labels, want)
	}
}

func TestDumpShowsProbAndIters(t *testing.T) {
	src := "def main(n)\nfor i = 0 : n\nif prob=0.3\ncomp flops=1 name=\"x\"\nend\nend\nend\n"
	bet := buildBET(t, src, expr.Env{"n": 8})
	d := bet.Dump()
	for _, want := range []string{"iters=8", "p=0.3", "func main"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}

func TestLeaves(t *testing.T) {
	src := "def main(n)\ncomp flops=1 name=\"a\"\nlib exp count=1 name=\"b\"\nfor i = 0:n\ncomp flops=1 name=\"c\"\nend\nend\n"
	bet := buildBET(t, src, expr.Env{"n": 2})
	leaves := bet.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("got %d leaves, want 3", len(leaves))
	}
}

func TestExpectedIters(t *testing.T) {
	cases := []struct {
		n, p, want float64
	}{
		{100, 0, 100},
		{100, 1, 1},
		{1e9, 0.5, 2},
		{1, 0.5, 1}, // (1-0.5)/0.5 = 1
	}
	for _, c := range cases {
		if got := expectedIters(c.n, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("expectedIters(%g, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
}

// Property: sibling probabilities under any branch node sum to <= 1 + eps,
// and every node probability is within [0, 1].
func TestQuickProbabilityInvariants(t *testing.T) {
	f := func(p1, p2 uint8, nIter uint8) bool {
		pa := float64(p1%100) / 100
		pb := float64(p2%100) / 100
		n := int(nIter%50) + 1
		src := `
def main(n)
  for i = 0 : n
    if prob=` + ftoa(pa) + `
      comp flops=1 name="a"
      break prob=` + ftoa(pb) + `
    elif prob=` + ftoa(pb) + `
      comp flops=2 name="b"
    else
      comp flops=3 name="c"
    end
  end
end
`
		prog, err := skeleton.Parse("q", src)
		if err != nil {
			return false
		}
		tree, err := bst.Build(prog)
		if err != nil {
			return false
		}
		bet, err := Build(context.Background(), tree, expr.Env{"n": float64(n)}, nil)
		if err != nil {
			return false
		}
		ok := true
		Walk(bet.Root, func(nd *Node) bool {
			if nd.Prob < -1e-12 || nd.Prob > 1+1e-12 {
				ok = false
			}
			if nd.Kind() == bst.KindBranch {
				sum := 0.0
				for _, ch := range nd.Children {
					sum += ch.Prob
				}
				if sum > 1+1e-9 {
					ok = false
				}
			}
			if nd.ENR < -1e-12 {
				ok = false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: BET size is independent of numeric input scale.
func TestQuickSizeInputInvariance(t *testing.T) {
	src := `
def main(n, m)
  for i = 0 : n
    for j = 0 : m
      comp flops=i+j
      if prob=0.2
        comp flops=1
      end
    end
  end
end
`
	prog := skeleton.MustParse("q", src)
	tree := mustBST(prog)
	ref, err := Build(context.Background(), tree, expr.Env{"n": 2, "m": 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(n, m uint16) bool {
		bet, err := Build(context.Background(), tree, expr.Env{"n": float64(n%1000) + 1, "m": float64(m%1000) + 1}, nil)
		if err != nil {
			return false
		}
		return bet.NumNodes() == ref.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEnvKeyMergesAsFormatted: two contexts key alike exactly when every
// binding prints alike under %g, the key contexts were once merged by:
// NaNs of any payload merge, while -0 and +0, the infinities and values a
// denormal or an ulp apart stay apart.
func TestEnvKeyMergesAsFormatted(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), 1e9, 1e-320,
		math.NaN(), math.Float64frombits(0xfff8000000000000), math.Inf(1), math.Inf(-1),
	}
	formatted := func(env expr.Env) string {
		return fmt.Sprintf("%g;%g", env["a"], env["b"])
	}
	for _, a := range values {
		for _, b := range values {
			x, y := expr.Env{"a": a, "b": 2}, expr.Env{"a": b, "b": 2}
			if got, want := envKey(x) == envKey(y), formatted(x) == formatted(y); got != want {
				t.Errorf("a=%g against a=%g: keys equal %v, formatted equal %v", a, b, got, want)
			}
		}
	}
	if envKey(expr.Env{"a": 1, "b": 2}) == envKey(expr.Env{"a": 2, "b": 1}) {
		t.Error("swapping two bindings' values keys alike")
	}
}

func TestMaxNodesGuard(t *testing.T) {
	src := "def main(n)\nfor i = 0:n\ncomp flops=1\ncomp flops=1\ncomp flops=1\nend\nend\n"
	prog := skeleton.MustParse("g", src)
	tree := mustBST(prog)
	if _, err := Build(context.Background(), tree, expr.Env{"n": 5}, &Options{MaxNodes: 2}); err == nil {
		t.Error("MaxNodes guard did not fire")
	}
}

func TestCustomEntry(t *testing.T) {
	src := "def kernel(n)\ncomp flops=n name=\"k\"\nend\n"
	prog := skeleton.MustParse("e", src)
	tree := mustBST(prog)
	bet, err := Build(context.Background(), tree, expr.Env{"n": 3}, &Options{Entry: "kernel"})
	if err != nil {
		t.Fatal(err)
	}
	if bet.Root.Label() != "kernel" {
		t.Errorf("root = %s", bet.Root.Label())
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func ftoa(v float64) string {
	return expr.Const(v).String()
}

func TestCommNodeInBET(t *testing.T) {
	src := "def main(n)\ncomm bytes=n*8 msgs=2 name=\"halo\"\nend\n"
	bet := buildBET(t, src, expr.Env{"n": 100})
	halo := findNodes(bet, "halo")[0]
	if halo.CommBytes != 800 || halo.CommMsgs != 2 {
		t.Errorf("comm node = %+v", halo)
	}
	if len(bet.Leaves()) != 1 {
		t.Errorf("comm node not a leaf candidate")
	}
}

func TestCommEvalErrors(t *testing.T) {
	src := "def main()\ncomm bytes=q\nend\n"
	prog := skeleton.MustParse("c", src)
	tree := mustBST(prog)
	if _, err := Build(context.Background(), tree, nil, nil); err == nil {
		t.Error("unbound comm bytes accepted")
	}
}

// mustBST builds the BST of prog, panicking on error.
func mustBST(prog *skeleton.Program) *bst.Tree {
	tree, err := bst.Build(prog)
	if err != nil {
		panic(err)
	}
	return tree
}
