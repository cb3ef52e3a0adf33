package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"skope/internal/bst"
	"skope/internal/expr"
	"skope/internal/skeleton"
)

// TestQuickBETMatchesMonteCarlo validates the full §IV statistical
// semantics on randomly generated skeletons: for every leaf block, the
// BET's analytical ENR must match the Monte Carlo sampler's mean execution
// count within sampling noise. The generator covers nested loops,
// probabilistic and deterministic branches, elif chains, probabilistic
// break/continue/return, context-forking set statements, and calls.
//
// The expectations are exact in theory (the truncated-geometric iteration
// formula and the post-break scaling both equal the process means), so the
// tolerance only covers Monte Carlo noise. About one generated skeleton in
// 300 misses it at 4000 runs from noise alone, so an input that misses is
// sampled again at 40,000 runs with another seed and fails only if it
// misses again. The two inputs below miss at 4000 runs (helper/blk3 by
// 15.6%, helper/blk42 by 18.5%) and agree within 3% at 40,000; they run
// on every pass so the re-sampling path is always exercised.
func TestQuickBETMatchesMonteCarlo(t *testing.T) {
	for _, seed := range []uint32{2430554204, 287195698} {
		if !betMatchesMonteCarlo(t, seed) {
			t.Errorf("seed %d: BET does not match Monte Carlo", seed)
		}
	}
	f := func(seed uint32) bool { return betMatchesMonteCarlo(t, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// betMatchesMonteCarlo generates the skeleton for seed and compares its
// BET with Monte Carlo sampling, re-sampling at 10x the runs on a miss.
func betMatchesMonteCarlo(t *testing.T, seed uint32) bool {
	src := genSkeleton(uint64(seed))
	prog, err := skeleton.Parse("gen", src)
	if err != nil {
		t.Logf("seed %d: parse: %v\n%s", seed, err, src)
		return false
	}
	if err := skeleton.Validate(prog); err != nil {
		t.Logf("seed %d: validate: %v\n%s", seed, err, src)
		return false
	}
	tree, err := bst.Build(prog)
	if err != nil {
		t.Logf("seed %d: bst: %v", seed, err)
		return false
	}
	input := expr.Env{"n": 6}
	bet, err := Build(context.Background(), tree, input, nil)
	if err != nil {
		t.Logf("seed %d: bet: %v\n%s", seed, err, src)
		return false
	}
	enr := enrByBlock(bet)
	// mismatch describes the first block, in ID order, on which enr and
	// mc disagree.
	mismatch := func(mc map[string]float64) string {
		ids := make([]string, 0, len(mc))
		for id := range mc {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			got, want := enr[id], mc[id]
			// Occurrences of deeply nested blocks cluster (one rare
			// branch admits many executions), inflating the sampling
			// variance well beyond Bernoulli noise, so the tolerance is
			// generous. Genuine modeling errors show up as order-of-
			// magnitude ratios (the competing-risk return bug this test
			// caught was 97x off), far beyond 15%.
			if RelErr(got, want, 0.25) > 0.15 {
				return fmt.Sprintf("%s: ENR %.4f vs MC %.4f", id, got, want)
			}
		}
		// Nothing modeled as hot that never executes (and vice versa).
		for id, got := range enr {
			if _, ok := mc[id]; !ok && got > 0.05 {
				return fmt.Sprintf("%s modeled (%.4f) but never sampled", id, got)
			}
		}
		return ""
	}
	for i, o := range []MCOptions{
		{Runs: 4000, Seed: uint64(seed)*7 + 3},
		{Runs: 40000, Seed: uint64(seed)*7 + 4},
	} {
		mc, err := MonteCarlo(tree, input, &o)
		if err != nil {
			t.Logf("seed %d: mc: %v\n%s", seed, err, src)
			return false
		}
		msg := mismatch(mc)
		if msg == "" {
			return true
		}
		t.Logf("seed %d, %d runs: %s", seed, o.Runs, msg)
		if i == 1 {
			t.Logf("seed %d:\n%s\nbet:\n%s", seed, src, bet.Dump())
		}
	}
	return false
}

// genSkeleton emits a random skeleton program with one helper function.
func genSkeleton(seed uint64) string {
	r := &mclcg{state: seed*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9}
	var b strings.Builder
	b.WriteString("def main(n)\n")
	g := &skelGen{r: r, b: &b, nextName: 0, allowCall: true}
	g.block(1, 0)
	b.WriteString("end\n\ndef helper(m)\n")
	g.allowCall = false // helper must not call helper (no recursion)
	g.block(1, 0)
	b.WriteString("end\n")
	return b.String()
}

type mclcg struct{ state uint64 }

func (l *mclcg) next() uint64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return l.state >> 11
}

func (l *mclcg) intn(n int) int     { return int(l.next() % uint64(n)) }
func (l *mclcg) prob() float64      { return float64(l.intn(80)+10) / 100 }
func (l *mclcg) smallProb() float64 { return float64(l.intn(25)+5) / 100 }

type skelGen struct {
	r         *mclcg
	b         *strings.Builder
	nextName  int
	allowCall bool
}

func (g *skelGen) name() string {
	g.nextName++
	return fmt.Sprintf("blk%d", g.nextName)
}

// block emits 1-3 statements. loopDepth gates break/continue.
func (g *skelGen) block(depth, loopDepth int) {
	ind := strings.Repeat("  ", depth)
	n := 1 + g.r.intn(3)
	for s := 0; s < n; s++ {
		switch c := g.r.intn(8); {
		case c <= 1 && depth < 4:
			// Counted loop (constant or n bound).
			bound := fmt.Sprintf("%d", 2+g.r.intn(5))
			if g.r.intn(2) == 0 {
				bound = "n"
			}
			fmt.Fprintf(g.b, "%sfor v%d = 0 : %s\n", ind, depth, bound)
			g.block(depth+1, loopDepth+1)
			// Occasionally a probabilistic break or continue at body end.
			switch g.r.intn(4) {
			case 0:
				fmt.Fprintf(g.b, "%s  break prob=%.2f\n", ind, g.r.smallProb())
			case 1:
				fmt.Fprintf(g.b, "%s  continue prob=%.2f\n", ind, g.r.prob())
			}
			fmt.Fprintf(g.b, "%send\n", ind)
		case c == 2 && depth < 4:
			// Probabilistic branch, possibly elif/else.
			fmt.Fprintf(g.b, "%sif prob=%.2f\n", ind, g.r.prob())
			g.block(depth+1, loopDepth)
			if g.r.intn(2) == 0 {
				fmt.Fprintf(g.b, "%selif prob=%.2f\n", ind, g.r.prob())
				g.block(depth+1, loopDepth)
			}
			if g.r.intn(2) == 0 {
				fmt.Fprintf(g.b, "%selse\n", ind)
				g.block(depth+1, loopDepth)
			}
			fmt.Fprintf(g.b, "%send\n", ind)
		case c == 3 && depth < 4:
			// Context fork: set knob under a branch, then branch on it.
			fmt.Fprintf(g.b, "%sif prob=%.2f\n", ind, g.r.prob())
			fmt.Fprintf(g.b, "%s  set knob = 1\n", ind)
			fmt.Fprintf(g.b, "%selse\n", ind)
			fmt.Fprintf(g.b, "%s  set knob = 0\n", ind)
			fmt.Fprintf(g.b, "%send\n", ind)
			fmt.Fprintf(g.b, "%sif cond = knob == 1\n", ind)
			fmt.Fprintf(g.b, "%s  comp flops=2 name=%q\n", ind, g.name())
			fmt.Fprintf(g.b, "%send\n", ind)
		case c == 4 && depth < 3 && g.allowCall:
			fmt.Fprintf(g.b, "%scall helper(n)\n", ind)
		case c == 5:
			fmt.Fprintf(g.b, "%sreturn prob=%.2f\n", ind, g.r.smallProb())
		default:
			fmt.Fprintf(g.b, "%scomp flops=%d loads=%d name=%q\n",
				ind, 1+g.r.intn(9), g.r.intn(4), g.name())
		}
	}
	// Guarantee at least one observable leaf per block.
	fmt.Fprintf(g.b, "%scomp flops=1 name=%q\n", ind, g.name())
}
