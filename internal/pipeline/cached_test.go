package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/store"
	"skope/internal/workloads"
)

func cachedVariants() []*hw.Machine {
	var variants []*hw.Machine
	for _, bw := range []float64{8, 16, 32, 64} {
		m := hw.BGQ()
		m.MemBandwidthGBs = bw
		variants = append(variants, m)
	}
	return variants
}

// TestSweepCachedWarmIsColdBitIdentical is the store's acceptance test in
// one process: a cold SweepCached populates the store; a second identical
// call is served entirely from it — prep record and all — with zero
// core.Build calls (enforced via the fault point core.Build hits on every
// statement) and Evals equal to the cold run's in every field.
func TestSweepCachedWarmIsColdBitIdentical(t *testing.T) {
	s, err := store.Open(filepath.Join(t.TempDir(), "cas.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, err := workloads.Get("srad", workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	variants := cachedVariants()

	cold, coldSum, err := SweepCached(context.Background(), w, variants, s)
	if err != nil {
		t.Fatal(err)
	}
	if coldSum.SkippedPrepare {
		t.Error("cold run claims to have skipped preparation")
	}
	if coldSum.Computed != len(variants) {
		t.Errorf("cold run computed %d/%d", coldSum.Computed, len(variants))
	}
	if coldSum.LayoutFingerprint == "" {
		t.Error("cold summary has no layout fingerprint")
	}

	// Any model construction during the warm run is a hard failure.
	disarm := guard.Arm("core.body", func(detail string) {
		t.Errorf("warm run built a BET (at %s)", detail)
	})
	defer disarm()

	warm, warmSum, err := SweepCached(context.Background(), w, variants, s)
	if err != nil {
		t.Fatal(err)
	}
	if !warmSum.SkippedPrepare {
		t.Error("warm run did not skip preparation")
	}
	if warmSum.FromStore != len(variants) {
		t.Errorf("warm run served %d/%d from store", warmSum.FromStore, len(variants))
	}
	if warmSum.LayoutFingerprint != coldSum.LayoutFingerprint {
		t.Errorf("layout fingerprint drifted: %s vs %s", warmSum.LayoutFingerprint, coldSum.LayoutFingerprint)
	}
	if math.Float64bits(warmSum.Confidence) != math.Float64bits(coldSum.Confidence) {
		t.Errorf("summary confidence drifted")
	}

	for i := range variants {
		c, wv := cold[i], warm[i]
		e1, err := hotspot.EncodeAnalysis(c.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := hotspot.EncodeAnalysis(wv.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1, e2) {
			t.Errorf("variant %d: analysis not bit-identical", i)
		}
		if math.Float64bits(c.Confidence) != math.Float64bits(wv.Confidence) {
			t.Errorf("variant %d: confidence drifted", i)
		}
		if !reflect.DeepEqual(c.SpotIDs(), wv.SpotIDs()) {
			t.Errorf("variant %d: selection drifted: %v vs %v", i, c.SpotIDs(), wv.SpotIDs())
		}
		if !reflect.DeepEqual(c.Diagnostics, wv.Diagnostics) {
			t.Errorf("variant %d: diagnostics drifted", i)
		}
		if wv.Provenance != FromStore {
			t.Errorf("variant %d: provenance %v, want FromStore", i, wv.Provenance)
		}
		if c.Provenance != Computed {
			t.Errorf("variant %d: cold provenance %v, want Computed", i, c.Provenance)
		}
	}
}

// TestSweepCachedPartialWarm: a new variant joins the grid; only it is
// computed, the rest are served from the store, and preparation happens
// (the new variant needs the layout).
func TestSweepCachedPartialWarm(t *testing.T) {
	s, err := store.Open(filepath.Join(t.TempDir(), "cas.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, err := workloads.Get("srad", workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	variants := cachedVariants()
	if _, _, err := SweepCached(context.Background(), w, variants, s); err != nil {
		t.Fatal(err)
	}

	extra := hw.BGQ()
	extra.MemBandwidthGBs = 128
	grown := append(append([]*hw.Machine{}, variants...), extra)
	evals, sum, err := SweepCached(context.Background(), w, grown, s)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SkippedPrepare {
		t.Error("partial warm run claims to have skipped preparation")
	}
	if sum.FromStore != len(variants) || sum.Computed != 1 {
		t.Errorf("partial warm: %d stored / %d computed, want %d / 1", sum.FromStore, sum.Computed, len(variants))
	}
	if evals[len(grown)-1].Provenance != Computed {
		t.Errorf("new variant provenance %v, want Computed", evals[len(grown)-1].Provenance)
	}
	// And now the grown grid is fully warm.
	_, sum2, err := SweepCached(context.Background(), w, grown, s)
	if err != nil {
		t.Fatal(err)
	}
	if !sum2.SkippedPrepare || sum2.FromStore != len(grown) {
		t.Errorf("grown grid not fully warm: %+v", sum2)
	}
}

// TestSweepCachedModeIsolation: changing criteria, lenient mode, or the
// confidence floor must miss the store's warm path.
func TestSweepCachedModeIsolation(t *testing.T) {
	s, err := store.Open(filepath.Join(t.TempDir(), "cas.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, err := workloads.Get("srad", workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	variants := cachedVariants()[:2]
	if _, _, err := SweepCached(context.Background(), w, variants, s); err != nil {
		t.Fatal(err)
	}

	crit := hotspot.DefaultCriteria()
	crit.MaxSpots = 1
	_, sum, err := SweepCached(context.Background(), w, variants, s, WithCriteria(crit))
	if err != nil {
		t.Fatal(err)
	}
	if sum.SkippedPrepare || sum.FromStore != 0 {
		t.Errorf("criteria change hit the warm path: %+v", sum)
	}
}

// TestSweepCachedBypassesForeignModel: WithModelFunc results are not
// content-addressable; the store must stay untouched.
func TestSweepCachedBypassesForeignModel(t *testing.T) {
	s, err := store.Open(filepath.Join(t.TempDir(), "cas.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, err := workloads.Get("srad", workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SweepCached(context.Background(), w, cachedVariants()[:2], s, WithModelFunc(hw.NewVectorAwareModel)); err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 0 {
		t.Errorf("foreign-model sweep wrote %d store records", n)
	}
}

// adaptiveGrid is the 36-variant grid around BG/Q that the adaptive
// tests search, with the base machine last — the shape SweepAdaptive
// takes.
func adaptiveGrid(t *testing.T) ([]*hw.Machine, []explore.Axis) {
	t.Helper()
	var axes []explore.Axis
	for _, spec := range []string{"freq-ghz=1.2,1.6,2.0,2.4", "mem-latency=80,110,150", "hit-l1=0.9,0.95,0.99"} {
		ax, err := explore.ParseAxis(spec)
		if err != nil {
			t.Fatal(err)
		}
		axes = append(axes, ax)
	}
	base := hw.BGQ()
	grid := explore.Grid{Base: base, Axes: axes}
	variants, err := grid.Variants()
	if err != nil {
		t.Fatal(err)
	}
	return append(variants, base), axes
}

// TestSweepAdaptiveProgress: an adaptive sweep's progress snapshots count
// across all of its batches. Done rises by one per evaluated variant, out
// of every variant, and ends at the search's evaluations plus the
// baseline; the final Stored matches the summary's provenance. Checked at
// one worker and at four, on a cold run and a run served from the store.
func TestSweepAdaptiveProgress(t *testing.T) {
	w, err := workloads.Get("sord", workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	variants, axes := adaptiveGrid(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			s, err := store.Open(filepath.Join(dir, "cas.journal"))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for _, run := range []string{"cold", "stored"} {
				var snaps []explore.Progress
				opts := []Option{WithWorkers(workers), WithProgress(func(p explore.Progress) { snaps = append(snaps, p) })}
				_, sum, err := SweepAdaptive(context.Background(), w, variants, s, axes, explore.AdaptiveOptions{Seed: 13}, opts...)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range snaps {
					if p.Done != i+1 {
						t.Fatalf("%s: snapshot %d has done %d, want %d", run, i, p.Done, i+1)
					}
				}
				last := snaps[len(snaps)-1]
				if last.Done != sum.Adaptive.Evals+1 {
					t.Errorf("%s: final Done %d, want the search's %d evaluations plus the baseline", run, last.Done, sum.Adaptive.Evals)
				}
				if last.Stored != sum.FromStore {
					t.Errorf("%s: final progress %d stored; summary %d from store", run, last.Stored, sum.FromStore)
				}
			}
		})
	}
}

// TestSweepAdaptiveStoreRecordsBaseline: with a store, an adaptive sweep
// writes the prep record and the base machine's result next to the
// searched variants', so a repeat serves all of them from the store.
func TestSweepAdaptiveStoreRecordsBaseline(t *testing.T) {
	s, err := store.Open(filepath.Join(t.TempDir(), "cas.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, err := workloads.Get("srad", workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	variants, axes := adaptiveGrid(t)
	base := variants[len(variants)-1]
	aopt := explore.AdaptiveOptions{Seed: 13}

	_, sum, err := SweepAdaptive(context.Background(), w, variants, s, axes, aopt)
	if err != nil {
		t.Fatal(err)
	}
	mode := store.ModeDigest(hotspot.DefaultCriteria(), false, 0)
	if _, ok, err := s.GetEval(sum.LayoutFingerprint, base.Fingerprint(), mode); err != nil || !ok {
		t.Errorf("baseline record: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.GetPrep(store.PrepDigest(w, false, nil)); err != nil || !ok {
		t.Errorf("prep record: ok=%v err=%v", ok, err)
	}

	evals, again, err := SweepAdaptive(context.Background(), w, variants, s, axes, aopt)
	if err != nil {
		t.Fatal(err)
	}
	if want := sum.Adaptive.Evals + 1; again.FromStore != want || again.Computed != 0 {
		t.Errorf("repeat: %d from store, %d computed; want %d, 0", again.FromStore, again.Computed, want)
	}
	if ev := evals[len(evals)-1]; ev == nil || ev.Provenance != FromStore {
		t.Errorf("repeat baseline = %+v, want served from the store", ev)
	}
}
