package hotspot

import (
	"context"
	"math"
	"strings"
	"testing"

	"skope/internal/bst"
	"skope/internal/core"
	"skope/internal/expr"
	"skope/internal/hw"
	"skope/internal/skeleton"
)

// multiRank is a manually written multi-node skeleton (the original SKOPE
// workflow): a rank-parameterized stencil step with a halo exchange.
const multiRank = `
def main(nx, ny, nz, ranks, nt)
  set planes = nz / ranks
  for t = 0 : nt label="time"
    for k = 0 : planes label="kloop"
      comp flops=30*ny*nx loads=8*ny*nx stores=2*ny*nx name="stencil"
    end
    comm bytes=2*ny*nx*8 msgs=2 name="halo"
  end
end
`

func commAnalysis(t *testing.T, ranks float64) *Analysis {
	t.Helper()
	prog, err := skeleton.Parse("mpi", multiRank)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := bst.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	bet, err := core.Build(context.Background(), tree, expr.Env{
		"nx": 128, "ny": 128, "nz": 64, "ranks": ranks, "nt": 10,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(context.Background(), bet, hw.NewModel(hw.BGQ()), nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCommParsesAndFormats(t *testing.T) {
	prog, err := skeleton.Parse("c", multiRank)
	if err != nil {
		t.Fatal(err)
	}
	text := skeleton.Format(prog)
	if !strings.Contains(text, "comm bytes=") || !strings.Contains(text, "msgs=2") {
		t.Errorf("Format lost comm:\n%s", text)
	}
	if _, err := skeleton.Parse("rt", text); err != nil {
		t.Fatalf("comm round trip: %v", err)
	}
}

func TestCommParseErrors(t *testing.T) {
	cases := []string{
		"def main()\ncomm\nend\n",             // missing bytes
		"def main()\ncomm bytes=8 foo=1\nend", // unknown attr
	}
	for _, src := range cases {
		if _, err := skeleton.Parse("e", src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestCommBlockModeled(t *testing.T) {
	a := commAnalysis(t, 8)
	halo := a.Block("main/halo")
	if halo == nil {
		t.Fatalf("halo block missing: %v", ids(a.Blocks))
	}
	if !halo.IsComm || !halo.MemoryBound {
		t.Errorf("halo flags: %+v", halo)
	}
	// 10 time steps x 2*128*128*8 bytes.
	wantBytes := 10.0 * 2 * 128 * 128 * 8
	if math.Abs(halo.CommBytes-wantBytes) > 1e-6 {
		t.Errorf("comm bytes = %g, want %g", halo.CommBytes, wantBytes)
	}
	// Time matches the machine's network model.
	m := hw.BGQ()
	want := 10 * m.CommTime(2*128*128*8, 2)
	if math.Abs(halo.T-want) > 1e-15 {
		t.Errorf("halo T = %g, want %g", halo.T, want)
	}
}

func TestStrongScalingCrossover(t *testing.T) {
	// Compute shrinks with ranks; comm stays constant: beyond some rank
	// count the halo exchange must dominate — the co-design insight the
	// multi-node extension exists to expose.
	commShare := func(ranks float64) float64 {
		a := commAnalysis(t, ranks)
		return a.Coverage(a.Block("main/halo"))
	}
	s1, s64 := commShare(1), commShare(64)
	if s64 <= s1 {
		t.Errorf("comm share did not grow with ranks: %g -> %g", s1, s64)
	}
	if s64 < 0.05 {
		t.Errorf("comm share at 64 ranks suspiciously small: %g", s64)
	}
	// Total per-rank time must shrink with ranks (strong scaling).
	t1 := commAnalysis(t, 1).TotalTime
	t64 := commAnalysis(t, 64).TotalTime
	if t64 >= t1 {
		t.Errorf("no strong scaling: %g -> %g", t1, t64)
	}
}

func TestCommTimeModel(t *testing.T) {
	m := hw.BGQ()
	zero := m.CommTime(0, 0)
	if zero != 0 {
		t.Errorf("CommTime(0,0) = %g", zero)
	}
	// One 1 MB message: latency + bandwidth term.
	want := 2.5e-6 + 1e6/(2*1e9)
	if got := m.CommTime(1e6, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("CommTime = %g, want %g", got, want)
	}
	// Negative inputs clamp.
	if m.CommTime(-5, -5) != 0 {
		t.Error("negative comm inputs not clamped")
	}
}

func TestCommInSelectionAndHotPath(t *testing.T) {
	a := commAnalysis(t, 256) // comm-dominated regime
	sel := Select(a, Criteria{TimeCoverage: 0.9, CodeLeanness: 1, MaxSpots: 2})
	foundComm := false
	for _, s := range sel.Spots {
		if s.IsComm {
			foundComm = true
		}
	}
	if !foundComm {
		t.Errorf("comm block not selected in comm-dominated regime: %v", ids(sel.Spots))
	}
}

func TestMachineNetworkValidation(t *testing.T) {
	m := hw.BGQ()
	m.NetLatencyUs = 0
	if err := m.Validate(); err == nil {
		t.Error("zero network latency accepted")
	}
	m = hw.BGQ()
	m.NetBandwidthGBs = -1
	if err := m.Validate(); err == nil {
		t.Error("negative network bandwidth accepted")
	}
}
