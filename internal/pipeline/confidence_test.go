package pipeline

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"skope/internal/explore"
	"skope/internal/hotspot"
	"skope/internal/resilience"
	"skope/internal/store"
	"skope/internal/workloads"
)

// partialProfileWorkload stops profiling at a division by zero, so a
// lenient preparation keeps the measurements up to the failure and its
// analyses carry confidence 0.9922: below a 0.995 floor, above a 0.99 one.
func partialProfileWorkload() *workloads.Workload {
	return &workloads.Workload{Name: "partial-profile", Seed: 1, Source: `
global n: int = 64;
global z: int = 0;
global a: [n]float;
func main() {
  for i = 0 .. n { a[i] = exp(a[i]) * 0.5; }
  for k = 0 .. n / z { a[0] = a[0] * 2.0; }
}
`}
}

func preparePartialProfile(t *testing.T) *Run {
	t.Helper()
	run, err := Prepare(context.Background(), partialProfileWorkload(), WithLenient(true))
	if err != nil {
		t.Fatal(err)
	}
	if run.Confidence < 0.99 || run.Confidence >= 0.995 {
		t.Fatalf("preparation confidence %v, want in [0.99, 0.995)", run.Confidence)
	}
	return run
}

// TestSweepBelowConfidenceFloor: every variant fails the floor on its one
// attempt — the failure is permanent, so the retry policy never re-runs
// it — wrapping explore.ErrLowConfidence, and the failures come back as a
// single *explore.SweepError sorted by index.
func TestSweepBelowConfidenceFloor(t *testing.T) {
	run := preparePartialProfile(t)
	variants := cachedVariants()
	evals, err := Sweep(context.Background(), run, variants,
		WithMinConfidence(0.995), WithRetry(resilience.DefaultPolicy(3)), WithWorkers(2))
	var sweepErr *explore.SweepError
	if !errors.As(err, &sweepErr) {
		t.Fatalf("err = %v, want a *explore.SweepError", err)
	}
	if len(sweepErr.Variants) != len(variants) {
		t.Fatalf("%d variant failures, want %d", len(sweepErr.Variants), len(variants))
	}
	for i, ve := range sweepErr.Variants {
		if ve.Index != i || ve.Attempts != 1 || !errors.Is(ve, explore.ErrLowConfidence) {
			t.Errorf("failure %d = index %d, %d attempts, %v; want index %d, 1 attempt, ErrLowConfidence",
				i, ve.Index, ve.Attempts, ve.Err, i)
		}
	}
	if len(evals) != len(variants) {
		t.Fatalf("%d evals for %d variants", len(evals), len(variants))
	}
	for i, ev := range evals {
		if ev != nil {
			t.Errorf("variant %d below the floor still produced an eval", i)
		}
	}
}

// TestSweepAdaptiveBelowConfidenceFloor: when every analysis misses the
// floor, each variant the search issued fails at its grid index and the
// base machine at len(grid), all in one *explore.SweepError sorted by
// index, and no variant produces an eval.
func TestSweepAdaptiveBelowConfidenceFloor(t *testing.T) {
	variants, axes := adaptiveGrid(t)
	evals, sum, err := SweepAdaptive(context.Background(), partialProfileWorkload(), variants, nil, axes,
		explore.AdaptiveOptions{Seed: 13}, WithLenient(true), WithMinConfidence(0.995), WithWorkers(2))
	var sweepErr *explore.SweepError
	if !errors.As(err, &sweepErr) {
		t.Fatalf("err = %v, want a *explore.SweepError", err)
	}
	fails := sweepErr.Variants
	if len(fails) != sum.Adaptive.Evals+1 {
		t.Fatalf("%d variant failures, want the search's %d plus the baseline", len(fails), sum.Adaptive.Evals)
	}
	for i, ve := range fails {
		if i > 0 && ve.Index <= fails[i-1].Index || !errors.Is(ve, explore.ErrLowConfidence) {
			t.Errorf("failure %d = index %d, %v; want ascending indices, ErrLowConfidence", i, ve.Index, ve.Err)
		}
		if ve.Machine != variants[ve.Index] {
			t.Errorf("failure %d at index %d names %s, not that variant", i, ve.Index, ve.MachineName)
		}
	}
	if base := fails[len(fails)-1].Index; base != len(variants)-1 {
		t.Errorf("last failure at index %d, want the base machine at %d", base, len(variants)-1)
	}
	for i, ev := range evals {
		if ev != nil {
			t.Errorf("variant %d below the floor still produced an eval", i)
		}
	}
}

// TestSweepAboveConfidenceFloor: a floor every analysis clears changes
// nothing — the Evals are bit-identical to a sweep without a floor.
func TestSweepAboveConfidenceFloor(t *testing.T) {
	run := preparePartialProfile(t)
	variants := cachedVariants()
	want, err := Sweep(context.Background(), run, variants)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(context.Background(), run, variants, WithMinConfidence(0.99))
	if err != nil {
		t.Fatal(err)
	}
	for i := range variants {
		g, w := got[i], want[i]
		gb, err := hotspot.EncodeAnalysis(g.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := hotspot.EncodeAnalysis(w.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Errorf("variant %d: analysis not bit-identical", i)
		}
		if math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) ||
			!reflect.DeepEqual(g.SpotIDs(), w.SpotIDs()) ||
			!reflect.DeepEqual(g.Diagnostics, w.Diagnostics) || g.Provenance != w.Provenance {
			t.Errorf("variant %d: eval drifted under the floor", i)
		}
	}
}

// TestSweepCachedWarmPathHonorsFloor: records below the floor, stored
// under the floor's own mode digest next to the prep record, make every
// lookup of SweepCached's fully warm path hit. The warm path must still
// not serve them: the sweep prepares and fails each variant at the
// confidence gate, as a cold run does.
func TestSweepCachedWarmPathHonorsFloor(t *testing.T) {
	s, err := store.Open(filepath.Join(t.TempDir(), "cas.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := partialProfileWorkload()
	run := preparePartialProfile(t)
	variants := cachedVariants()
	evals, err := Sweep(context.Background(), run, variants)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := run.Layout()
	if err != nil {
		t.Fatal(err)
	}
	mode := store.ModeDigest(hotspot.DefaultCriteria(), true, 0.995)
	for _, ev := range evals {
		if err := s.PutEval(layout.Fingerprint(), ev.Machine.Fingerprint(), mode, ev.Analysis); err != nil {
			t.Fatal(err)
		}
	}
	prep := store.Prep{LayoutFingerprint: layout.Fingerprint(), Confidence: run.Confidence, Diagnostics: run.Diagnostics}
	if err := s.PutPrep(store.PrepDigest(w, true, nil), prep); err != nil {
		t.Fatal(err)
	}

	got, sum, err := SweepCached(context.Background(), w, variants, s, WithLenient(true), WithMinConfidence(0.995))
	if !errors.Is(err, explore.ErrLowConfidence) {
		t.Fatalf("err = %v, want ErrLowConfidence", err)
	}
	if sum == nil || sum.SkippedPrepare || sum.FromStore != 0 {
		t.Fatalf("summary %+v: below-floor records served", sum)
	}
	for i, ev := range got {
		if ev != nil {
			t.Errorf("variant %d below the floor was served", i)
		}
	}
}
