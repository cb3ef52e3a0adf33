package hotspot

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"skope/internal/expr"
	"skope/internal/hw"
	"skope/internal/skeleton"
)

// blocksLayout builds the layout of a skeleton with n comp loops and one
// comm block.
func blocksLayout(t *testing.T, n int) *Layout {
	t.Helper()
	var src strings.Builder
	src.WriteString("def main(n)\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "  for i = 0 : n\n    comp flops=%d loads=10 name=\"b%d\"\n  end\n", 10*(i+1), i)
	}
	src.WriteString("  comm bytes=n*8 msgs=2 name=\"halo\"\nend\n")
	bet := mustBET(mustBST(skeleton.MustParse("blocks", src.String())), expr.Env{"n": 100})
	l, err := NewLayout(bet, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestAssembleAllocsFlat checks that the per-variant cost of Assemble and
// Analyze does not grow with the block count: the blocks share the
// layout's BlockInfos, so projecting 41 blocks allocates what projecting 4
// does. Analyze writes each block's times straight into its analysis, so
// it allocates no more than Assemble.
func TestAssembleAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	model := hw.NewModel(hw.BGQ())
	assemble := func(l *Layout) float64 {
		comp, comm := l.CompTimes(model), l.CommTimes(model.Machine())
		return testing.AllocsPerRun(100, func() {
			if _, err := l.Assemble(model.Machine(), comp, comm); err != nil {
				t.Fatal(err)
			}
		})
	}
	analyze := func(l *Layout) float64 {
		return testing.AllocsPerRun(100, func() {
			l.Analyze(model)
		})
	}
	small, large := blocksLayout(t, 3), blocksLayout(t, 40)
	for name, allocs := range map[string]func(*Layout) float64{"Assemble": assemble, "Analyze": analyze} {
		if s, l := allocs(small), allocs(large); s != l {
			t.Errorf("%s allocations grow with the block count: %v at 4 blocks, %v at 41", name, s, l)
		}
	}
	if an, as := analyze(large), assemble(large); an != as {
		t.Errorf("Analyze allocates %v objects, Assemble %v", an, as)
	}
}

// TestRankByTimeNoAllocs: ranking blocks allocates nothing, whether there
// is nothing to rank or the blocks are already in order.
func TestRankByTimeNoAllocs(t *testing.T) {
	a := analyze(t, threeBlocks, expr.Env{"n": 100}, nil)
	sorted := make([]Block, len(a.Blocks))
	for i, b := range a.Blocks {
		sorted[i] = *b
	}
	for name, blocks := range map[string][]Block{"empty": nil, "sorted": sorted} {
		ranked := make([]*Block, len(blocks))
		if n := testing.AllocsPerRun(100, func() { rankByTime(ranked, blocks) }); n != 0 {
			t.Errorf("rankByTime on %s blocks: %v allocations, want 0", name, n)
		}
	}
}

// TestRankByTimeMatchesSliceStable checks rankByTime against a
// sort.SliceStable ranking of the blocks' pointers, on random slices with
// tied, NaN and infinite times and duplicate IDs: the order must be
// identical, NaNs included. Slices of up to 60 blocks cross the stable
// sort's 20-element insertion blocks; every 50th trial ranks more blocks
// than fit on rankByTime's stack.
func TestRankByTimeMatchesSliceStable(t *testing.T) {
	reference := func(blocks []*Block) {
		sort.SliceStable(blocks, func(i, j int) bool {
			if blocks[i].T != blocks[j].T {
				return blocks[i].T > blocks[j].T
			}
			return blocks[i].BlockID < blocks[j].BlockID
		})
	}
	times := []float64{0, 1, 1, 2.5, math.NaN(), math.Inf(1), math.Inf(-1), -3}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(60)
		if trial%50 == 0 {
			n = rankStack + 1 + r.Intn(40)
		}
		blocks := make([]Block, n)
		want := make([]*Block, n)
		for i := range blocks {
			blocks[i] = Block{
				BlockInfo: &BlockInfo{BlockID: fmt.Sprintf("f/b%d", r.Intn(8))},
				T:         times[r.Intn(len(times))],
			}
			want[i] = &blocks[i]
		}
		got := make([]*Block, n)
		rankByTime(got, blocks)
		reference(want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: rank %d is %s (T=%v), sort.SliceStable puts %s (T=%v)",
					trial, i, got[i].BlockID, got[i].T, want[i].BlockID, want[i].T)
			}
		}
	}
}

// TestGraftNoAllocs: grafting a decoded analysis links Nodes and the BET
// through the layout's block index without allocating.
func TestGraftNoAllocs(t *testing.T) {
	a, l := codecAnalysis(t)
	data, err := EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeAnalysis(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := l.Graft(dec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Graft: %v allocations, want 0", n)
	}
}
