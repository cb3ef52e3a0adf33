package hotspot

import (
	"slices"
	"strings"
)

// Criteria configures hot-spot selection (§V-B). The code-leanness
// constraint takes precedence over the time-coverage goal: if no selection
// satisfies both, coverage is maximized subject to leanness.
type Criteria struct {
	// TimeCoverage is the minimum fraction of total projected time the hot
	// spots should jointly cover (paper default: 0.90).
	TimeCoverage float64
	// CodeLeanness is the maximum fraction of total static instructions
	// the hot spots may jointly contain (paper default: 0.10).
	CodeLeanness float64
	// MaxSpots optionally caps the number of selected spots (0 = no cap);
	// the paper's tables and figures use top-10 views.
	MaxSpots int
}

// DefaultCriteria returns the paper's §VII settings: coverage >= 90% of
// runtime within <= 10% of the instructions.
func DefaultCriteria() Criteria {
	return Criteria{TimeCoverage: 0.90, CodeLeanness: 0.10}
}

// ScaledCriteria returns the evaluation settings used with this
// repository's scaled-down benchmark sources. The paper applies a 10%
// leanness budget to full applications (SORD alone is 5139 lines); the
// minilang versions are ~50x smaller while their hot loops are the same
// handful of statements, so the equivalent instruction budget is a much
// larger fraction of the program. Coverage (90%) and the 10-spot reporting
// view match the paper's figures.
func ScaledCriteria() Criteria {
	return Criteria{TimeCoverage: 0.90, CodeLeanness: 0.50, MaxSpots: 10}
}

// Selection is the outcome of hot-spot identification.
type Selection struct {
	// Spots lists the chosen blocks in descending projected-time order.
	Spots []*Block
	// Coverage is the fraction of total projected time the spots cover.
	Coverage float64
	// Leanness is the fraction of static instructions the spots contain.
	Leanness float64
}

// Select runs the paper's greedy approximation to the (NP-complete,
// knapsack-like) hot-spot selection problem: blocks are considered in
// descending projected-time order; a block is taken if it fits the
// remaining leanness budget; selection stops once the coverage target is
// met (or candidates are exhausted, maximizing coverage under the budget).
func Select(a *Analysis, crit Criteria) *Selection {
	sel := &Selection{}
	if a.TotalTime <= 0 || a.TotalStaticInsts <= 0 {
		return sel
	}
	instBudget := int(crit.CodeLeanness * float64(a.TotalStaticInsts))
	usedInsts := 0
	coveredTime := 0.0
	for _, b := range a.Blocks {
		if crit.MaxSpots > 0 && len(sel.Spots) >= crit.MaxSpots {
			break
		}
		if coveredTime/a.TotalTime >= crit.TimeCoverage {
			break
		}
		if usedInsts+b.StaticInsts > instBudget && len(sel.Spots) > 0 {
			// Greedy knapsack: skip blocks that do not fit, keep trying
			// smaller ones. (Always take at least one block so selection
			// is never empty when work exists.)
			continue
		}
		sel.Spots = append(sel.Spots, b)
		usedInsts += b.StaticInsts
		coveredTime += b.T
	}
	sel.Coverage = coveredTime / a.TotalTime
	sel.Leanness = float64(usedInsts) / float64(a.TotalStaticInsts)
	return sel
}

// rankStack is how many blocks rankByTime ranks without allocating: more
// than any built-in workload's layout has (sord's 27 is the most).
const rankStack = 64

// rankByTime writes into ranked a pointer to each of blocks in descending
// time order, stable on BlockID: the ranking Analyze and Assemble give an
// analysis. It sorts an index permutation, on the stack for up to
// rankStack blocks, with the same stable algorithm and comparator a sort
// of the pointers would use, so the order is the same, NaNs included; but
// each pointer is written once, not swapped in the heap behind the GC's
// write barrier.
func rankByTime(ranked []*Block, blocks []Block) {
	var stack [rankStack]int32
	perm := stack[:0]
	if len(blocks) > rankStack {
		perm = make([]int32, 0, len(blocks))
	}
	for i := range blocks {
		perm = append(perm, int32(i))
	}
	slices.SortStableFunc(perm, func(i, j int32) int { return byTime(&blocks[i], &blocks[j]) })
	for k, i := range perm {
		ranked[k] = &blocks[i]
	}
}

// byTime orders blocks by descending time, then by BlockID. It must not
// compare times with cmp.Compare, which orders NaNs first: the ranking
// never puts a NaN time ahead of another time (a.T > b.T is false).
func byTime(a, b *Block) int {
	if a.T != b.T {
		if a.T > b.T {
			return -1
		}
		return 1
	}
	return strings.Compare(a.BlockID, b.BlockID)
}
