package sim

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"skope/internal/hw"
	"skope/internal/minilang"
)

func runSim(t *testing.T, src string, m *hw.Machine) *Result {
	t.Helper()
	prog, err := minilang.Parse("simtest", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minilang.Check(prog); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), prog, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCacheBasicLRU(t *testing.T) {
	// 2 sets x 2 ways x 16B lines = 64B cache.
	c := NewCache(64, 16, 2)
	if !(!c.Access(0) && c.Access(0)) {
		t.Fatal("miss-then-hit broken")
	}
	// Fill set 0 (addresses mapping to set 0: line addresses even).
	c.Reset()
	c.Access(0)  // set 0, tag 0 - miss
	c.Access(32) // set 0, tag 1 - miss
	c.Access(0)  // hit, refreshes 0
	c.Access(64) // set 0, tag 2 - miss, evicts 32 (LRU)
	if !c.Access(0) {
		t.Error("line 0 should still be resident")
	}
	if c.Access(32) {
		t.Error("line 32 should have been evicted")
	}
	if c.Hits != 2 || c.Misses != 4 {
		t.Errorf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
}

func TestCacheHitRateAndReset(t *testing.T) {
	c := NewCache(1024, 64, 4)
	for i := 0; i < 10; i++ {
		c.Access(uint64(i) * 8) // within one line after first
	}
	if c.HitRate() < 0.8 {
		t.Errorf("hit rate = %g", c.HitRate())
	}
	c.Reset()
	if c.Accesses() != 0 || c.HitRate() != 0 {
		t.Error("reset incomplete")
	}
}

// Property: hits + misses == accesses, and re-accessing the same address
// immediately always hits.
func TestQuickCacheInvariants(t *testing.T) {
	c := NewCache(4096, 64, 4)
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Access(uint64(a)) {
				return false
			}
		}
		return c.Hits+c.Misses == c.Accesses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

const streamSrc = `
global n: int = 4096;
global a: [n]float;
global b: [n]float;
func main() {
  for i = 0 .. n {
    a[i] = b[i] * 2.0 + 1.0;
  }
}
`

func TestSimStreamWorkload(t *testing.T) {
	res := runSim(t, streamSrc, hw.BGQ())
	if res.TotalCycles <= 0 || res.TotalSeconds <= 0 {
		t.Fatalf("total = %g cycles", res.TotalCycles)
	}
	body := blockByID(res, "main/L7")
	if body == nil {
		t.Fatalf("body block missing; have %v", blockIDs(res))
	}
	// Sequential access over 64B lines: 1 miss per 8 elements per array.
	wantMiss := uint64(2 * 4096 / 8)
	if body.L1Miss < wantMiss/2 || body.L1Miss > wantMiss*2 {
		t.Errorf("L1 misses = %d, want ~%d", body.L1Miss, wantMiss)
	}
	// The body must dominate the profile.
	if res.Blocks[0].ID != "main/L7" {
		t.Errorf("top block = %s", res.Blocks[0].ID)
	}
	if res.Coverage(res.Blocks[0]) < 0.5 {
		t.Errorf("body coverage = %g", res.Coverage(res.Blocks[0]))
	}
}

func TestTotalsConsistent(t *testing.T) {
	res := runSim(t, streamSrc, hw.BGQ())
	sum := 0.0
	for _, b := range res.Blocks {
		sum += b.Cycles
	}
	if math.Abs(sum-res.TotalCycles) > 1e-9*res.TotalCycles {
		t.Errorf("sum %g != total %g", sum, res.TotalCycles)
	}
	curve := res.CoverageCurve(res.Blocks)
	if math.Abs(curve[len(curve)-1]-1) > 1e-9 {
		t.Errorf("coverage curve end = %g", curve[len(curve)-1])
	}
}

func TestCacheLocalityMatters(t *testing.T) {
	// Strided access should run slower than sequential on the same machine.
	seq := runSim(t, `
global n: int = 32768;
global a: [n]float;
func main() {
  for i = 0 .. n {
    a[i] = a[i] + 1.0;
  }
}
`, hw.BGQ())
	strided := runSim(t, `
global n: int = 32768;
global a: [n]float;
func main() {
  for s = 0 .. 8 {
    for i = 0 .. n / 8 {
      a[i * 8 + s] = a[i * 8 + s] + 1.0;
    }
  }
}
`, hw.BGQ())
	if strided.TotalCycles <= seq.TotalCycles {
		t.Errorf("strided (%g) not slower than sequential (%g)",
			strided.TotalCycles, seq.TotalCycles)
	}
}

func TestVectorizationSpeedsUp(t *testing.T) {
	base := `
global n: int = 65536;
global a: [n]float;
func main() {
  for i = 0 .. n %s {
    a[i] = a[i] * 1.5 + 2.0;
  }
}
`
	// On BG/Q only annotated loops vectorize (no aggressive auto-vec), so
	// the @vec annotation must make a measurable difference. A clean loop
	// body auto-vectorizes on Xeon regardless of annotation.
	scalarSrc := fmtSprintf(base, "")
	vecSrc := fmtSprintf(base, "@vec")
	scalarQ := runSim(t, scalarSrc, hw.BGQ())
	vecQ := runSim(t, vecSrc, hw.BGQ())
	if vecQ.TotalCycles >= scalarQ.TotalCycles {
		t.Errorf("BG/Q: annotated (%g) not faster than plain (%g)", vecQ.TotalCycles, scalarQ.TotalCycles)
	}
	scalarX := runSim(t, scalarSrc, hw.XeonE5())
	vecX := runSim(t, vecSrc, hw.XeonE5())
	if scalarX.TotalCycles != vecX.TotalCycles {
		t.Errorf("Xeon: auto-vectorizer should treat the clean loop like @vec (%g vs %g)",
			scalarX.TotalCycles, vecX.TotalCycles)
	}
}

func TestDivisionExpensive(t *testing.T) {
	mul := runSim(t, `
global n: int = 16384;
global a: [n]float;
func main() {
  for i = 0 .. n {
    a[i] = a[i] * 0.5;
  }
}
`, hw.BGQ())
	div := runSim(t, `
global n: int = 16384;
global a: [n]float;
func main() {
  for i = 0 .. n {
    a[i] = a[i] / 2.0;
  }
}
`, hw.BGQ())
	if div.TotalCycles < mul.TotalCycles*2 {
		t.Errorf("division (%g) not >> multiplication (%g)", div.TotalCycles, mul.TotalCycles)
	}
}

func TestIssueRateAndMissStats(t *testing.T) {
	res := runSim(t, streamSrc, hw.BGQ())
	body := blockByID(res, "main/L7")
	ipc := body.IssueRate()
	if ipc <= 0 || ipc > float64(res.Machine.IssueWidth)*2 {
		t.Errorf("issue rate = %g", ipc)
	}
	if body.InstsPerL1Miss() <= 0 {
		t.Error("insts per L1 miss not positive")
	}
	// A no-miss block reports its instruction count.
	b := &BlockCost{Insts: 100}
	if b.InstsPerL1Miss() != 100 {
		t.Errorf("no-miss InstsPerL1Miss = %g", b.InstsPerL1Miss())
	}
	if b.IssueRate() != 0 {
		t.Errorf("zero-cycle IssueRate = %g", b.IssueRate())
	}
}

func TestMachinesProduceDifferentProfiles(t *testing.T) {
	// Mixed workload: compute-heavy and memory-heavy blocks; the machines
	// should disagree on relative cost (the paper's central observation).
	src := `
global n: int = 8192;
global big: [n * 16]float;
global x: float;
func main() {
  x = 0.0;
  for i = 0 .. n {
    x = x + (x * 1.000001 + 0.5) * (x * 0.999999 - 0.5) + 1.0;
  }
  for i = 0 .. n * 16 {
    big[i] = big[i] + 1.0;
  }
}
`
	q := runSim(t, src, hw.BGQ())
	x := runSim(t, src, hw.XeonE5())
	covQ := q.Coverage(blockByID(q, "main/L8")) // compute block
	covX := x.Coverage(blockByID(x, "main/L8"))
	if covQ == covX {
		t.Error("identical coverage on both machines is implausible")
	}
}

func TestBranchMispredictionCharged(t *testing.T) {
	regular := runSim(t, `
global n: int = 8192;
global acc: float;
func main() {
  for i = 0 .. n {
    if (i >= 0) {
      acc = acc + 1.0;
    }
  }
}
`, hw.BGQ())
	alternating := runSim(t, `
global n: int = 8192;
global acc: float;
func main() {
  for i = 0 .. n {
    if (i % 2 == 0) {
      acc = acc + 1.0;
    } else {
      acc = acc + 1.0;
    }
  }
}
`, hw.BGQ())
	if alternating.TotalCycles <= regular.TotalCycles {
		t.Errorf("alternating branches (%g) not slower than regular (%g)",
			alternating.TotalCycles, regular.TotalCycles)
	}
}

func TestLibCallsCharged(t *testing.T) {
	res := runSim(t, `
global n: int = 4096;
global a: [n]float;
func main() {
  for i = 0 .. n {
    a[i] = exp(a[i]);
  }
}
`, hw.BGQ())
	libBlk := blockByID(res, "main/L6:exp")
	if libBlk == nil || libBlk.Insts == 0 {
		t.Errorf("lib block = %+v", libBlk)
	}
}

func TestInvalidMachineRejected(t *testing.T) {
	prog := mustProgram("t", "func main() {}")
	m := hw.BGQ()
	m.FreqGHz = 0
	if _, err := Run(context.Background(), prog, m, nil); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestResultStringAndRank(t *testing.T) {
	res := runSim(t, streamSrc, hw.BGQ())
	if res.RankOf("main/L7") != 1 {
		t.Errorf("rank = %d", res.RankOf("main/L7"))
	}
	if res.RankOf("nosuch") != 0 {
		t.Error("missing block should rank 0")
	}
	s := res.String()
	if len(s) == 0 || res.TopN(3) == nil {
		t.Error("String/TopN broken")
	}
}

func blockIDs(r *Result) []string {
	out := make([]string, len(r.Blocks))
	for i, b := range r.Blocks {
		out[i] = b.ID
	}
	return out
}

func fmtSprintf(format, a string) string {
	out := ""
	for i := 0; i < len(format); i++ {
		if format[i] == '%' && i+1 < len(format) && format[i+1] == 's' {
			out += a
			i++
			continue
		}
		out += string(format[i])
	}
	return out
}

func TestPrefetcherHelpsStreams(t *testing.T) {
	streaming := `
global n: int = 65536;
global a: [n]float;
func main() {
  for i = 0 .. n {
    a[i] = a[i] + 1.0;
  }
}
`
	random := `
global n: int = 65536;
global a: [n]float;
global idx: [n]int;
func main() {
  for i = 0 .. n {
    var r: float = 0.0;
    r = rand();
    idx[i] = r * (n - 1);
  }
  for i = 0 .. n {
    var j: int = idx[i];
    a[j] = a[j] + 1.0;
  }
}
`
	base := hw.BGQ()
	pf := hw.BGQ()
	pf.Prefetch = true

	sBase := runSim(t, streaming, base)
	sPf := runSim(t, streaming, pf)
	if sPf.TotalCycles >= sBase.TotalCycles*0.95 {
		t.Errorf("prefetcher did not help streaming: %g vs %g", sPf.TotalCycles, sBase.TotalCycles)
	}

	// Cache-level view: sequential misses must drop sharply (every other
	// line comes in free).
	if sPf.L1.Misses >= sBase.L1.Misses*7/10 {
		t.Errorf("streaming L1 misses barely changed: %d vs %d", sPf.L1.Misses, sBase.L1.Misses)
	}

	rBase := runSim(t, random, base)
	rPf := runSim(t, random, pf)
	// The truly random block (the indirect-update loop body) must be left
	// essentially untouched: next-line prefetches almost never hit.
	blkBase := blockByID(rBase, "main/L12")
	blkPf := blockByID(rPf, "main/L12")
	if blkBase == nil || blkPf == nil {
		t.Fatalf("random block missing: %v", blockIDs(rBase))
	}
	lo, hi := blkBase.L1Miss*8/10, blkBase.L1Miss*12/10
	if blkPf.L1Miss < lo || blkPf.L1Miss > hi {
		t.Errorf("prefetcher changed random block misses: %d vs %d", blkPf.L1Miss, blkBase.L1Miss)
	}
}

// blockByID returns the result's block with the given ID, or nil.
func blockByID(r *Result, id string) *BlockCost {
	for _, b := range r.Blocks {
		if b.ID == id {
			return b
		}
	}
	return nil
}

// RankOf returns the 1-based measured rank of a block ID (0 if absent).
func (r *Result) RankOf(id string) int {
	for i, b := range r.Blocks {
		if b.ID == id {
			return i + 1
		}
	}
	return 0
}

// CoverageCurve returns cumulative coverage over the given blocks.
func (r *Result) CoverageCurve(blocks []*BlockCost) []float64 {
	out := make([]float64, len(blocks))
	cum := 0.0
	for i, b := range blocks {
		cum += r.Coverage(b)
		out[i] = cum
	}
	return out
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = cacheLine{}
		}
	}
	c.Hits, c.Misses, c.clock = 0, 0, 0
}
