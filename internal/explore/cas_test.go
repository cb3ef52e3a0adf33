package explore_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/store"
)

// storeMode is the default evaluation mode: default criteria, strict, no
// confidence floor — the mode pipeline files a default sweep's results
// under.
var storeMode = store.ModeDigest(hotspot.DefaultCriteria(), false, 0)

// casEngine builds an engine over the shared prepared srad run with a
// store attached under the default evaluation mode.
func casEngine(t *testing.T, s *store.Store, opts ...explore.Option) *explore.Engine {
	t.Helper()
	run := prepared(t, "srad")
	return explore.New(layoutOf(t, run), append(opts, explore.CAS(s, storeMode))...)
}

func casGrid(t *testing.T) []*hw.Machine {
	t.Helper()
	g := explore.Grid{Base: hw.BGQ(), Axes: []explore.Axis{
		{Param: "mem-bandwidth", Values: []float64{16, 32, 64}},
		{Param: "freq-ghz", Values: []float64{1.6, 2.4}},
	}}
	vs, err := g.Variants()
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// TestCASWarmSweepSkipsEvaluation proves the store contract end to end:
// a cold sweep populates the store; a second sweep — fresh engine, no
// shared memo cache — is served entirely from it, with zero evaluations
// (enforced by arming the evaluate fault point) and bit-identical
// analyses.
func TestCASWarmSweepSkipsEvaluation(t *testing.T) {
	s, err := store.Open(filepath.Join(t.TempDir(), "cas.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	variants := casGrid(t)

	cold := casEngine(t, s)
	coldRes, err := sweep(context.Background(), cold, variants)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != len(variants) {
		t.Fatalf("cold sweep stored %d results, want %d", n, len(variants))
	}

	// Any evaluation during the warm sweep is a hard failure.
	disarm := guard.Arm("explore.evaluate", func(detail string) {
		t.Errorf("warm sweep evaluated variant %s", detail)
	})
	defer disarm()

	warm := casEngine(t, s)
	stored := 0
	results, wait := warm.Stream(context.Background(), variants)
	warmRes := make([]*hotspot.Analysis, len(variants))
	for r := range results {
		if r.Err != nil {
			t.Fatalf("variant %d: %v", r.Index, r.Err)
		}
		if !r.Stored {
			t.Errorf("variant %d not served from store", r.Index)
		}
		if r.Stored {
			stored++
		}
		warmRes[r.Index] = r.Analysis
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if stored != len(variants) {
		t.Fatalf("%d/%d variants served from store", stored, len(variants))
	}

	for i := range variants {
		e1, err := hotspot.EncodeAnalysis(coldRes[i])
		if err != nil {
			t.Fatal(err)
		}
		e2, err := hotspot.EncodeAnalysis(warmRes[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1, e2) {
			t.Errorf("variant %d: warm analysis not bit-identical to cold", i)
		}
		// Store hits are grafted: Node links are live, like fresh results.
		for _, b := range warmRes[i].Blocks {
			if len(b.Nodes) == 0 {
				t.Fatalf("variant %d block %s: no Nodes after store hit", i, b.BlockID)
			}
		}
	}
}

// TestCASModeIsolation: results stored under one evaluation mode must not
// be served under another.
func TestCASModeIsolation(t *testing.T) {
	s, err := store.Open(filepath.Join(t.TempDir(), "cas.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run := prepared(t, "srad")
	variants := casGrid(t)[:2]

	eng1 := explore.New(layoutOf(t, run),
		explore.CAS(s, store.ModeDigest(hotspot.DefaultCriteria(), false, 0)))
	if _, err := sweep(context.Background(), eng1, variants); err != nil {
		t.Fatal(err)
	}

	crit := hotspot.DefaultCriteria()
	crit.MaxSpots = 1
	eng2 := explore.New(layoutOf(t, run),
		explore.CAS(s, store.ModeDigest(crit, false, 0)))
	results, wait := eng2.Stream(context.Background(), variants)
	for r := range results {
		if r.Stored {
			t.Errorf("variant %d crossed evaluation modes", r.Index)
		}
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}
