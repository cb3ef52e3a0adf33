package bst

import (
	"strings"
	"testing"

	"skope/internal/expr"
	"skope/internal/skeleton"
)

const fixture = `
def main(n, m)
  var A[n][m]
  set knob = 0
  for i = 0 : n label="outer"
    comp flops=4 loads=2 stores=1 name="init"
    if prob=0.3
      set knob = 1
    else
      set knob = 0
    end
    call foo(i, knob)
  end
  lib exp count=n name="expcall"
end

def foo(x, k)
  if cond = k == 1
    comp flops=100*x loads=2*x name="heavy"
  end
  while iters=10
    comp flops=8 name="solve"
    break prob=0.01
  end
  return
end
`

func build(t *testing.T) *Tree {
	t.Helper()
	prog, err := skeleton.Parse("fixture", fixture)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestBuildStructure(t *testing.T) {
	tree := build(t)
	if len(tree.Order) != 2 {
		t.Fatalf("got %d function roots", len(tree.Order))
	}
	main, err := tree.Func("main")
	if err != nil {
		t.Fatal(err)
	}
	if main.Kind != KindFunc || main.FuncName != "main" {
		t.Errorf("main root = %+v", main)
	}
	// main children: var, set, loop, lib
	if len(main.Children) != 4 {
		t.Fatalf("main has %d children, want 4", len(main.Children))
	}
	loop := main.Children[2]
	if loop.Kind != KindLoop || loop.Label() != "outer" {
		t.Errorf("loop node = kind %s label %q", loop.Kind, loop.Label())
	}
	// loop children: comp, branch, call
	if len(loop.Children) != 3 {
		t.Fatalf("loop has %d children", len(loop.Children))
	}
	branch := loop.Children[1]
	if branch.Kind != KindBranch {
		t.Fatalf("branch kind = %s", branch.Kind)
	}
	// branch children: case + else
	if len(branch.Children) != 2 {
		t.Fatalf("branch has %d children", len(branch.Children))
	}
	if branch.Children[0].Kind != KindCase || branch.Children[1].Kind != KindElse {
		t.Errorf("branch children kinds = %s, %s", branch.Children[0].Kind, branch.Children[1].Kind)
	}
	if _, err := tree.Func("nosuch"); err == nil {
		t.Error("Func(nosuch) should fail")
	}
}

func TestWalkPrune(t *testing.T) {
	tree := build(t)
	main, _ := tree.Func("main")
	visited := 0
	Walk(main, func(n *Node) bool {
		visited++
		return n.Kind != KindLoop // prune below the loop
	})
	// main + var + set + loop + lib = 5
	if visited != 5 {
		t.Errorf("visited %d nodes with pruning, want 5", visited)
	}
}

func TestBlockIDStable(t *testing.T) {
	tree := build(t)
	foo, _ := tree.Func("foo")
	var heavy *Node
	Walk(foo, func(n *Node) bool {
		if n.Kind == KindComp && n.Label() == "heavy" {
			heavy = n
		}
		return true
	})
	if heavy == nil {
		t.Fatal("heavy comp not found")
	}
	if heavy.BlockID() != "foo/heavy" {
		t.Errorf("BlockID = %q", heavy.BlockID())
	}
}

func TestStaticInsts(t *testing.T) {
	prog := skeleton.MustParse("t", "def main(n)\ncomp flops=4 loads=2 stores=1\ncomp flops=3*n loads=n\ncomp insts=7 flops=100\ncomp\nend\n")
	body := prog.Funcs[0].Body
	cases := []struct {
		idx  int
		want int
	}{
		{0, 7}, // 4+2+1
		{1, 4}, // 3*1 + 1
		{2, 7}, // explicit insts
		{3, 1}, // floor of 1
	}
	for _, c := range cases {
		comp := body[c.idx].(*skeleton.Comp)
		if got := StaticInsts(comp); got != c.want {
			t.Errorf("StaticInsts(#%d) = %d, want %d", c.idx, got, c.want)
		}
	}
}

func TestTotalStaticInsts(t *testing.T) {
	tree := build(t)
	// init: 4+2+1=7; heavy: 100*1+2*1=102; solve: 8; lib: 4 => 121
	if got := tree.TotalStaticInsts(); got != 121 {
		t.Errorf("TotalStaticInsts = %d, want 121", got)
	}
}

func TestDumpContainsStructure(t *testing.T) {
	tree := build(t)
	d := tree.Dump()
	for _, want := range []string{"func main", "loop outer", "comp init", "branch", "case", "else", "lib expcall", "while"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}

func TestEvalAtOnesNegativeClamped(t *testing.T) {
	e, err := expr.Parse("0 - 5")
	if err != nil {
		t.Fatal(err)
	}
	if v := evalAtOnes(e); v != 0 {
		t.Errorf("evalAtOnes(-5) = %g, want 0", v)
	}
	if v := evalAtOnes(nil); v != 0 {
		t.Errorf("evalAtOnes(nil) = %g, want 0", v)
	}
}

func TestKindString(t *testing.T) {
	if KindFunc.String() != "func" || KindContinue.String() != "continue" {
		t.Error("Kind.String broken")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("out-of-range Kind.String broken")
	}
}
