package hotpath

import (
	"context"
	"strings"
	"testing"

	"skope/internal/bst"
	"skope/internal/core"
	"skope/internal/expr"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/skeleton"
)

const src = `
def main(n)
  for i = 0 : n label="outer"
    call compute()
    if prob=0.2
      call rare()
    end
  end
  comp flops=1 name="coldtail"
end

def compute()
  for j = 0 : 100 label="inner"
    comp flops=5000 loads=20 name="kernel"
  end
  comp flops=2 name="bookkeeping"
end

def rare()
  comp flops=40000 loads=10 name="spike"
end
`

func setup(t *testing.T) (*core.BET, *hotspot.Analysis, *hotspot.Selection) {
	t.Helper()
	prog, err := skeleton.Parse("hp", src)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := bst.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	bet, err := core.Build(context.Background(), tree, expr.Env{"n": 50}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := hotspot.Analyze(context.Background(), bet, hw.NewModel(hw.BGQ()), nil)
	if err != nil {
		t.Fatal(err)
	}
	sel := hotspot.Select(a, hotspot.Criteria{TimeCoverage: 0.999, CodeLeanness: 1.0})
	return bet, a, sel
}

func TestIndividualPathsEndAtSpots(t *testing.T) {
	_, _, sel := setup(t)
	paths := Individual(sel.Spots)
	if len(paths) == 0 {
		t.Fatal("no individual paths")
	}
	for _, p := range paths {
		if len(p) < 2 {
			t.Errorf("path too short: %d", len(p))
		}
		if p[0].Label() != "main" {
			t.Errorf("path does not start at main: %s", p[0].Label())
		}
		last := p[len(p)-1]
		if k := last.Kind(); k != bst.KindComp && k != bst.KindLib {
			t.Errorf("path does not end at a leaf block: %s", k)
		}
	}
}

func TestExtractMergesSharedPrefix(t *testing.T) {
	bet, _, sel := setup(t)
	if len(sel.Spots) < 2 {
		t.Fatalf("need >= 2 spots, got %d: coverage %g", len(sel.Spots), sel.Coverage)
	}
	p := Extract(bet.Root, sel.Spots)
	if p.Root == nil {
		t.Fatal("empty merged path")
	}
	// The root must appear exactly once (merged), and the hot path must be
	// a subset of the BET.
	if p.Root.BET != bet.Root {
		t.Error("merged path root is not the BET root")
	}
	if p.NumNodes >= bet.NumNodes() {
		t.Errorf("hot path (%d) not smaller than BET (%d)", p.NumNodes, bet.NumNodes())
	}
	// Kernel is the dominant spot and must be present; coldtail must not.
	r := p.Render()
	if !strings.Contains(r, "kernel") {
		t.Errorf("render missing kernel:\n%s", r)
	}
	if strings.Contains(r, "coldtail") {
		t.Errorf("render contains cold block:\n%s", r)
	}
	if !strings.Contains(r, "HOT SPOT") {
		t.Errorf("render missing hot spot marker:\n%s", r)
	}
	if !strings.Contains(r, "x50") {
		t.Errorf("render missing outer loop iteration count:\n%s", r)
	}
}

func TestExtractNoSpots(t *testing.T) {
	bet, _, _ := setup(t)
	p := Extract(bet.Root, nil)
	if p.Root != nil || p.NumNodes != 0 {
		t.Errorf("empty extraction = %+v", p)
	}
	if !strings.Contains(p.Render(), "empty") {
		t.Error("empty render should say so")
	}
	if !strings.Contains(p.DOT(), "digraph") {
		t.Error("empty DOT should still be valid")
	}
}

func TestHotSpotMarkersMatchSelection(t *testing.T) {
	bet, _, sel := setup(t)
	p := Extract(bet.Root, sel.Spots)
	marked := map[string]bool{}
	var rec func(n *Node)
	rec = func(n *Node) {
		if n.HotSpot != nil {
			marked[n.HotSpot.BlockID] = true
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(p.Root)
	for _, s := range sel.Spots {
		if !marked[s.BlockID] {
			t.Errorf("spot %s not marked in path", s.BlockID)
		}
	}
}

func TestDOTWellFormed(t *testing.T) {
	bet, _, sel := setup(t)
	d := Extract(bet.Root, sel.Spots).DOT()
	if !strings.HasPrefix(d, "digraph hotpath {") || !strings.HasSuffix(d, "}\n") {
		t.Errorf("DOT malformed:\n%s", d)
	}
	if !strings.Contains(d, "lightcoral") {
		t.Error("DOT missing hot spot styling")
	}
	if !strings.Contains(d, "->") {
		t.Error("DOT has no edges")
	}
}

func TestMiniAppSkeletonParses(t *testing.T) {
	bet, _, sel := setup(t)
	mini := Extract(bet.Root, sel.Spots).MiniAppSkeleton()
	prog, err := skeleton.Parse("miniapp", mini)
	if err != nil {
		t.Fatalf("mini-app skeleton does not parse: %v\n%s", err, mini)
	}
	if err := skeleton.Validate(prog); err != nil {
		t.Fatalf("mini-app skeleton invalid: %v\n%s", err, mini)
	}
	// The mini-app must itself be modelable and preserve the hot spots.
	tree := mustBST(prog)
	mbet, err := core.Build(context.Background(), tree, nil, nil)
	if err != nil {
		t.Fatalf("mini-app BET: %v", err)
	}
	found := false
	core.Walk(mbet.Root, func(n *core.Node) bool {
		if n.Label() == "kernel" {
			found = true
		}
		return true
	})
	if !found {
		t.Errorf("mini-app lost the kernel hot spot:\n%s", mini)
	}
}

func TestShortEnvTruncates(t *testing.T) {
	env := expr.Env{"alpha": 1, "beta": 2, "gamma": 3, "delta": 4, "e": 5, "f": 6}
	s := shortEnv(env)
	if !strings.Contains(s, "...") {
		t.Errorf("shortEnv did not truncate: %s", s)
	}
	if !strings.Contains(s, "alpha=1") {
		t.Errorf("shortEnv dropped long names: %s", s)
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
