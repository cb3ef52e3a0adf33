package hotspot

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"skope/internal/bst"
	"skope/internal/core"
	"skope/internal/expr"
	"skope/internal/hw"
	"skope/internal/skeleton"
)

// codecAnalysis builds a small analysis (including a comm block and a lib
// block, so every wire field is exercised) plus the layout it came from.
func codecAnalysis(t *testing.T) (*Analysis, *Layout) {
	t.Helper()
	src := `
def main(n)
  for i = 0 : n
    comp flops=1000 loads=10 name="big"
  end
  comm bytes=n*8 msgs=2 name="halo"
  lib sort count=n name="order"
  comp flops=5 name="tiny"
end
`
	prog, err := skeleton.Parse("codec", src)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := bst.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	bet, err := core.Build(context.Background(), tree, expr.Env{"n": 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	libs := stubLibs{"sort": {FLOPs: 3, IOPs: 10, Loads: 2, Stores: 1, DSizeB: 8}}
	l, err := NewLayout(bet, libs)
	if err != nil {
		t.Fatal(err)
	}
	a, err := l.Analyze(hw.NewModel(hw.BGQ()))
	if err != nil {
		t.Fatal(err)
	}
	return a, l
}

func TestCodecRoundTripExact(t *testing.T) {
	a, _ := codecAnalysis(t)
	data, err := EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAnalysis(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalStaticInsts != a.TotalStaticInsts {
		t.Errorf("TotalStaticInsts %d != %d", got.TotalStaticInsts, a.TotalStaticInsts)
	}
	if math.Float64bits(got.TotalTime) != math.Float64bits(a.TotalTime) {
		t.Errorf("TotalTime bits differ: %x vs %x", math.Float64bits(got.TotalTime), math.Float64bits(a.TotalTime))
	}
	if math.Float64bits(got.Confidence) != math.Float64bits(a.Confidence) {
		t.Errorf("Confidence bits differ")
	}
	if got.Machine.Fingerprint() != a.Machine.Fingerprint() {
		t.Errorf("machine fingerprint changed across round trip")
	}
	if len(got.Blocks) != len(a.Blocks) {
		t.Fatalf("got %d blocks, want %d", len(got.Blocks), len(a.Blocks))
	}
	for i, b := range a.Blocks {
		g := got.Blocks[i]
		if g.BlockID != b.BlockID || g.Label != b.Label || g.FuncName != b.FuncName || g.Line != b.Line {
			t.Errorf("block %d identity differs: %+v vs %+v", i, g, b)
		}
		if g.IsLib != b.IsLib || g.IsComm != b.IsComm || g.MemoryBound != b.MemoryBound || g.StaticInsts != b.StaticInsts {
			t.Errorf("block %s flags differ", b.BlockID)
		}
		for _, pair := range [][2]float64{
			{g.Tc, b.Tc}, {g.Tm, b.Tm}, {g.To, b.To}, {g.T, b.T},
			{g.Invocations, b.Invocations}, {g.CommBytes, b.CommBytes},
			{g.Work.FLOPs, b.Work.FLOPs}, {g.Work.IOPs, b.Work.IOPs},
			{g.Work.Loads, b.Work.Loads}, {g.Work.Stores, b.Work.Stores},
			{g.Work.DSizeB, b.Work.DSizeB}, {g.Work.Divs, b.Work.Divs},
			{g.Work.Vec, b.Work.Vec},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Errorf("block %s: float differs bit-wise: %g vs %g", b.BlockID, pair[0], pair[1])
			}
		}
		if got.ByID[b.BlockID] != g {
			t.Errorf("ByID not rebuilt for %s", b.BlockID)
		}
	}
	if !reflect.DeepEqual(got.Diagnostics, a.Diagnostics) {
		t.Errorf("diagnostics differ: %v vs %v", got.Diagnostics, a.Diagnostics)
	}
	// Decoded analyses drop the in-memory tree by design.
	if got.BET != nil {
		t.Errorf("decoded analysis should not carry a BET")
	}
}

func TestCodecDeterministic(t *testing.T) {
	a, _ := codecAnalysis(t)
	d1, err := EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatalf("encoding is not deterministic")
	}
	// encode(decode(encode(a))) == encode(a): the canonical form is a
	// fixed point, so stored bytes can be compared for identity.
	dec, err := DecodeAnalysis(d1)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := EncodeAnalysis(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d3) {
		t.Fatalf("re-encoding a decoded analysis changed the bytes")
	}
}

func TestCodecVersionGuard(t *testing.T) {
	a, _ := codecAnalysis(t)
	data, err := EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(data, []byte(`{"v":1,`), []byte(`{"v":99,`), 1)
	if _, err := DecodeAnalysis(bad); err == nil {
		t.Fatal("decoding a future wire version should fail")
	}
	if _, err := DecodeAnalysis([]byte("not json")); err == nil {
		t.Fatal("decoding garbage should fail")
	}
}

func TestGraftRelinksNodes(t *testing.T) {
	a, l := codecAnalysis(t)
	data, err := EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeAnalysis(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range dec.Blocks {
		if b.Nodes != nil {
			t.Fatalf("decoded block %s has Nodes before graft", b.BlockID)
		}
	}
	if err := l.Graft(dec); err != nil {
		t.Fatal(err)
	}
	if dec.BET == nil {
		t.Errorf("graft did not restore the BET")
	}
	for _, b := range dec.Blocks {
		want := a.ByID[b.BlockID]
		if len(b.Nodes) != len(want.Nodes) {
			t.Errorf("block %s: %d nodes after graft, want %d", b.BlockID, len(b.Nodes), len(want.Nodes))
		}
	}
	// Grafting onto a foreign layout must fail, not mislink.
	dec.Blocks[0].BlockID = "other/alien"
	if err := l.Graft(dec); err == nil {
		t.Fatal("grafting an analysis with unknown blocks should fail")
	}
}

// TestFingerprintCached checks that the fingerprint NewLayout caches is the
// digest a fresh computation gives, after the layout has analyzed,
// assembled and grafted, and that it still tells layouts apart.
func TestFingerprintCached(t *testing.T) {
	a, l := codecAnalysis(t)
	data, err := EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeAnalysis(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Graft(dec); err != nil {
		t.Fatal(err)
	}
	if got, want := l.Fingerprint(), l.fingerprint(); got != want || len(got) != 16 {
		t.Errorf("cached fingerprint %q, fresh computation %q", got, want)
	}
	other, err := NewLayout(a.BET, stubLibs{"sort": {FLOPs: 4, IOPs: 10, Loads: 2, Stores: 1, DSizeB: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if other.Fingerprint() == l.Fingerprint() {
		t.Error("layouts with different library work share a fingerprint")
	}
}
