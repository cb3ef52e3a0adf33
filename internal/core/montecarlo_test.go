package core

import (
	"context"
	"testing"

	"skope/internal/expr"
	"skope/internal/skeleton"
)

// enrByBlock sums BET node ENR per BlockID for comparison with Monte Carlo
// mean execution counts.
func enrByBlock(bet *BET) map[string]float64 {
	out := map[string]float64{}
	for _, n := range bet.Leaves() {
		out[n.BlockID()] += n.ENR
	}
	return out
}

// runMC builds both the BET and the Monte Carlo reference for one skeleton
// and asserts that every leaf block's ENR matches the sampled mean within
// tolerance (Monte Carlo noise at 4000 runs is ~1.6%/sqrt(count)).
func assertBETMatchesMC(t *testing.T, src string, input expr.Env, relTol float64) {
	t.Helper()
	prog := skeleton.MustParse("mc", src)
	tree := mustBST(prog)
	bet, err := Build(context.Background(), tree, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarlo(tree, input, &MCOptions{Runs: 4000, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	enr := enrByBlock(bet)
	for id, want := range mc {
		got := enr[id]
		if RelErr(got, want, 0.05) > relTol {
			t.Errorf("%s: BET ENR %.4f vs Monte Carlo %.4f", id, got, want)
		}
	}
	for id := range enr {
		if _, ok := mc[id]; !ok && enr[id] > 1e-6 {
			t.Errorf("%s: modeled (ENR %.4f) but never sampled", id, enr[id])
		}
	}
}

func TestMCSimpleLoopExact(t *testing.T) {
	assertBETMatchesMC(t, `
def main(n)
  for i = 0 : n
    comp flops=1 name="body"
  end
end
`, expr.Env{"n": 25}, 1e-9)
}

func TestMCBranchProbabilities(t *testing.T) {
	assertBETMatchesMC(t, `
def main(n)
  for i = 0 : n
    if prob=0.3
      comp flops=1 name="a"
    elif prob=0.5
      comp flops=1 name="b"
    else
      comp flops=1 name="c"
    end
  end
end
`, expr.Env{"n": 50}, 0.05)
}

func TestMCBreakGeometric(t *testing.T) {
	// The reconstructed truncated-geometric expectation must match the
	// sampled loop behaviour.
	assertBETMatchesMC(t, `
def main(n)
  for i = 0 : n
    comp flops=1 name="body"
    break prob=0.15
  end
  comp flops=1 name="after"
end
`, expr.Env{"n": 60}, 0.05)
}

func TestMCContinueScaling(t *testing.T) {
	assertBETMatchesMC(t, `
def main(n)
  for i = 0 : n
    comp flops=1 name="pre"
    continue prob=0.4
    comp flops=1 name="post"
  end
end
`, expr.Env{"n": 40}, 0.05)
}

func TestMCReturnPromotion(t *testing.T) {
	assertBETMatchesMC(t, `
def main(n)
  call f(n)
  comp flops=1 name="caller_after"
end

def f(n)
  for i = 0 : n
    comp flops=1 name="body"
    return prob=0.1
  end
  comp flops=1 name="tail"
end
`, expr.Env{"n": 30}, 0.08)
}

func TestMCContextFork(t *testing.T) {
	// The Figure-2 pattern: a branch assigning knob drives a deterministic
	// branch in the callee.
	assertBETMatchesMC(t, `
def main(n)
  for i = 0 : n
    if prob=0.25
      set knob = 1
    else
      set knob = 0
    end
    call foo(knob)
  end
end

def foo(k)
  if cond = k == 1
    comp flops=1 name="heavy"
  else
    comp flops=1 name="light"
  end
end
`, expr.Env{"n": 40}, 0.05)
}

func TestMCWhileFractionalIters(t *testing.T) {
	assertBETMatchesMC(t, `
def main(m)
  while iters=m/4 label="conv"
    comp flops=1 name="w"
  end
end
`, expr.Env{"m": 10}, 0.05) // 2.5 expected iterations
}

func TestMCCommAndLib(t *testing.T) {
	assertBETMatchesMC(t, `
def main(n)
  for t = 0 : n
    lib exp count=2 name="e"
    comm bytes=64 msgs=1 name="x"
  end
end
`, expr.Env{"n": 12}, 1e-9)
}

func TestMCPedagogicalWorkload(t *testing.T) {
	// The full Figure-2 example: every statistical feature at once.
	src := `
def main(n, m)
  set knob = 0
  for i = 0 : n label="outer"
    comp flops=6 loads=3 stores=1 name="prep"
    if prob=0.3
      set knob = 1
    else
      set knob = 0
    end
    call foo(i, knob)
  end
  while iters=m/4 label="conv"
    comp flops=8*m loads=3*m name="solve"
    break prob=0.02
  end
  lib exp count=n name="exptail"
end

def foo(x, k)
  if cond = k == 1
    comp flops=40*x loads=2*x stores=1 name="heavy"
  else
    comp flops=12 loads=2 name="light"
  end
end
`
	assertBETMatchesMC(t, src, expr.Env{"n": 24, "m": 40}, 0.08)
}

func TestMCErrors(t *testing.T) {
	prog := skeleton.MustParse("e", "def main()\nfor i = 0 : q\ncomp flops=1\nend\nend\n")
	tree := mustBST(prog)
	if _, err := MonteCarlo(tree, nil, nil); err == nil {
		t.Error("unbound loop bound accepted")
	}
	prog2 := skeleton.MustParse("e2", "def main()\nwhile iters=1000000\ncomp flops=1\nend\nend\n")
	tree2 := mustBST(prog2)
	if _, err := MonteCarlo(tree2, nil, &MCOptions{Runs: 1000, MaxSteps: 1000}); err == nil {
		t.Error("step budget not enforced")
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(1, 1, 0.1) != 0 {
		t.Error("identical values")
	}
	if RelErr(0.0, 0.001, 0.05) > 0.05 {
		t.Error("floor not applied")
	}
}
