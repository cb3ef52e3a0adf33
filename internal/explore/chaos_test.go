package explore_test

// The chaos suite drives the engine the way production faults would:
// transient panics, a persistent one, an invalid machine, and a sweep
// killed mid-run, all injected through the guard.Arm/guard.Hit fault
// points the engine ships with. The invariants under test are the
// durability contract of the result store (a sweep killed mid-run and run
// again over the same store is served every variant it completed with
// zero recomputation and yields bit-identical results) and the retry
// contract (a failed evaluation is re-run at once: injected transient
// faults succeed within the configured budget, a persistent one fails its
// variant after the whole budget, and a validation rejection after one
// attempt).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/pipeline"
	"skope/internal/resilience"
	"skope/internal/store"
)

// fastRetry is a retry policy of maxAttempts attempts per variant.
func fastRetry(maxAttempts int) resilience.Policy {
	return resilience.Policy{MaxAttempts: maxAttempts}
}

// chaosVariants builds n valid, distinct BG/Q variants.
func chaosVariants(n int) []*hw.Machine {
	out := make([]*hw.Machine, n)
	for i := range out {
		m := hw.BGQ()
		m.Name = fmt.Sprintf("v%d", i)
		m.NetLatencyUs = float64(i + 1)
		if i%3 == 0 {
			m.MemBandwidthGBs = float64(14 + i)
		}
		out[i] = m
	}
	return out
}

// assertBitIdentical fails unless both sweeps agree on every variant,
// block, and time, bit for bit.
func assertBitIdentical(t *testing.T, got, want []*hotspot.Analysis) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d analyses != %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if (g == nil) != (w == nil) {
			t.Fatalf("variant %d: nil mismatch (got %v, want %v)", i, g == nil, w == nil)
		}
		if g == nil {
			continue
		}
		if g.TotalTime != w.TotalTime {
			t.Fatalf("variant %d: TotalTime %v != %v", i, g.TotalTime, w.TotalTime)
		}
		if len(g.Blocks) != len(w.Blocks) {
			t.Fatalf("variant %d: %d blocks != %d", i, len(g.Blocks), len(w.Blocks))
		}
		for j := range g.Blocks {
			gb, wb := g.Blocks[j], w.Blocks[j]
			if gb.BlockID != wb.BlockID || gb.Tc != wb.Tc || gb.Tm != wb.Tm ||
				gb.To != wb.To || gb.T != wb.T || gb.MemoryBound != wb.MemoryBound {
				t.Fatalf("variant %d rank %d: block %s (%v %v %v %v %v) != %s (%v %v %v %v %v)",
					i, j, gb.BlockID, gb.Tc, gb.Tm, gb.To, gb.T, gb.MemoryBound,
					wb.BlockID, wb.Tc, wb.Tm, wb.To, wb.T, wb.MemoryBound)
			}
		}
	}
}

// storedEngine opens (creating or recovering) the result store at path
// and builds casEngine's srad engine over it. The caller closes the store.
func storedEngine(t *testing.T, path string, opts ...explore.Option) (*explore.Engine, *store.Store) {
	t.Helper()
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return casEngine(t, st, opts...), st
}

// storedVariants reopens the store at path and reports which of the
// variants it holds a result for under layout fingerprint lfp.
func storedVariants(t *testing.T, path, lfp string, variants []*hw.Machine) map[string]bool {
	t.Helper()
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stored := map[string]bool{}
	for _, v := range variants {
		_, ok, err := st.GetEval(lfp, v.Fingerprint(), storeMode)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			stored[v.Fingerprint()] = true
		}
	}
	return stored
}

// cleanSweep evaluates the variants with no faults, store, or retries —
// the reference results chaos runs must reproduce exactly.
func cleanSweep(t *testing.T, workload string, variants []*hw.Machine) []*hotspot.Analysis {
	t.Helper()
	run := prepared(t, workload)
	eng := explore.New(layoutOf(t, run))
	out, err := sweep(context.Background(), eng, variants)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestChaosTransientPanicsRetried injects panics that clear after two
// attempts: with a 3-attempt budget the sweep must fully succeed and
// match an uninjected sweep bit for bit.
func TestChaosTransientPanicsRetried(t *testing.T) {
	run := prepared(t, "sord")
	variants := chaosVariants(12)
	want := cleanSweep(t, "sord", variants)

	var mu sync.Mutex
	hits := map[string]int{}
	disarm := guard.Arm("explore.evaluate", func(detail string) {
		if detail != "v3" && detail != "v7" {
			return
		}
		mu.Lock()
		hits[detail]++
		n := hits[detail]
		mu.Unlock()
		if n <= 2 {
			panic("chaos: transient fault " + detail)
		}
	})
	t.Cleanup(disarm)

	var lastProgress explore.Progress
	eng := explore.New(layoutOf(t, run),
		explore.Retry(fastRetry(3)),
		explore.OnProgress(func(p explore.Progress) { lastProgress = p }),
		explore.Workers(1))
	got, err := sweep(context.Background(), eng, variants)
	if err != nil {
		t.Fatalf("sweep with transient faults failed: %v", err)
	}
	assertBitIdentical(t, got, want)
	if lastProgress.Retried != 4 {
		t.Errorf("Progress.Retried = %d, want 4 (2 variants x 2 retries)", lastProgress.Retried)
	}
}

// TestChaosTransientFaultExceedsBudget: a fault lasting longer than the
// retry budget fails the variant with its attempt count, and the rest of
// the sweep is unharmed.
func TestChaosTransientFaultExceedsBudget(t *testing.T) {
	run := prepared(t, "sord")
	variants := chaosVariants(6)
	disarm := guard.Arm("explore.evaluate", func(detail string) {
		if detail == "v2" {
			panic("chaos: persistent fault")
		}
	})
	t.Cleanup(disarm)

	eng := explore.New(layoutOf(t, run), explore.Retry(fastRetry(3)), explore.Workers(2))
	analyses, err := sweep(context.Background(), eng, variants)
	var sweepErr *explore.SweepError
	if !errors.As(err, &sweepErr) || len(sweepErr.Variants) != 1 {
		t.Fatalf("err = %v, want one-variant SweepError", err)
	}
	ve := sweepErr.Variants[0]
	if ve.Index != 2 || ve.MachineName != "v2" || ve.Attempts != 3 || !errors.Is(ve, guard.ErrPanic) {
		t.Errorf("VariantError = index %d name %q attempts %d err %v", ve.Index, ve.MachineName, ve.Attempts, ve.Err)
	}
	if ve.Fingerprint != variants[2].Fingerprint() {
		t.Errorf("VariantError fingerprint %q != machine fingerprint %q", ve.Fingerprint, variants[2].Fingerprint())
	}
	if !strings.Contains(ve.Error(), "v2") || !strings.Contains(ve.Error(), "3 attempts") ||
		!strings.Contains(ve.Error(), ve.Fingerprint) {
		t.Errorf("VariantError message not actionable: %s", ve.Error())
	}
	for i, a := range analyses {
		if (a == nil) != (i == 2) {
			t.Errorf("variant %d: unexpected analysis state (nil=%v)", i, a == nil)
		}
	}
}

// TestChaosKillAndResume is the flagship durability test: a sweep with
// the result store attached is killed mid-run (fault-injected
// cancellation), then run again by a fresh engine over the reopened store.
// The rerun must serve every variant the killed sweep completed from the
// store without recomputing it, and produce results bit-identical to a
// never-interrupted sweep.
func TestChaosKillAndResume(t *testing.T) {
	variants := chaosVariants(24)
	want := cleanSweep(t, "srad", variants)
	path := filepath.Join(t.TempDir(), "results.cas")

	// Phase 1: stored sweep, killed after ~8 evaluations.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	evals := 0
	disarm := guard.Arm("explore.evaluate", func(string) {
		mu.Lock()
		evals++
		if evals == 8 {
			cancel() // the "kill"
		}
		mu.Unlock()
	})
	eng1, st1 := storedEngine(t, path, explore.Workers(2))
	killed, err := sweep(ctx, eng1, variants)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed sweep err = %v, want wrapped context.Canceled", err)
	}
	st1.Close()
	disarm()

	completed := map[string]bool{}
	for i, a := range killed {
		if a != nil {
			completed[variants[i].Fingerprint()] = true
		}
	}
	if len(completed) == 0 || len(completed) >= len(variants) {
		t.Fatalf("killed sweep completed %d of %d variants; kill did not land mid-sweep", len(completed), len(variants))
	}
	l, err := prepared(t, "srad").Layout()
	if err != nil {
		t.Fatal(err)
	}
	stored := storedVariants(t, path, l.Fingerprint(), variants)
	for fp := range completed {
		if !stored[fp] {
			t.Errorf("completed variant %s is not in the reopened store", fp)
		}
	}

	// Phase 2: a fresh engine (new process, no shared cache) reruns the
	// sweep over the reopened store. Every evaluate call is recorded:
	// completed variants must cause none.
	var evaluated []string
	disarm2 := guard.Arm("explore.evaluate", func(detail string) {
		mu.Lock()
		evaluated = append(evaluated, detail)
		mu.Unlock()
	})
	t.Cleanup(disarm2)
	eng2, st2 := storedEngine(t, path, explore.Workers(2))
	defer st2.Close()

	results, wait := eng2.Stream(context.Background(), variants)
	got := make([]*hotspot.Analysis, len(variants))
	for r := range results {
		if r.Err != nil {
			t.Fatalf("rerun variant %d: %v", r.Index, r.Err)
		}
		if was := completed[variants[r.Index].Fingerprint()]; r.Stored != was {
			t.Errorf("variant %d: Stored=%v, completed before the kill=%v", r.Index, r.Stored, was)
		}
		got[r.Index] = r.Analysis
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	for _, name := range evaluated {
		for i, v := range variants {
			if v.Name == name && completed[v.Fingerprint()] {
				t.Errorf("completed variant %d (%s) was recomputed", i, name)
			}
		}
	}
	t.Logf("rerun: %d variants served from the store, %d evaluated", len(completed), len(evaluated))
	if len(evaluated) != len(variants)-len(completed) {
		t.Errorf("%d fresh evaluations, want %d", len(evaluated), len(variants)-len(completed))
	}
	assertBitIdentical(t, got, want)

	// Phase 3: run again — everything is served, nothing evaluates.
	mu.Lock()
	evaluated = nil
	mu.Unlock()
	eng3, st3 := storedEngine(t, path)
	defer st3.Close()
	got3, err := sweep(context.Background(), eng3, variants)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(evaluated)
	mu.Unlock()
	if n != 0 {
		t.Errorf("fully stored sweep recomputed %d variants", n)
	}
	assertBitIdentical(t, got3, want)
	if stats := eng3.CacheStats(); stats.Misses != 0 {
		t.Errorf("store-served sweep ran %d evaluations", stats.Misses)
	}
}

// TestChaosAdaptiveKillAndResume: the adaptive analogue of the flagship
// durability test. A surrogate-guided search with the result store
// attached is killed mid-round, then run again with the same seed over the
// reopened store. Because the seed subsample and the ranking are
// deterministic functions of the observations, the rerun must retrace the
// identical round sequence — serving every evaluation the killed search
// completed from the store with zero recomputation — and converge to the
// same incumbent with an identical round trace.
func TestChaosAdaptiveKillAndResume(t *testing.T) {
	axes := []explore.Axis{
		{Param: "freq-ghz", Values: []float64{1.2, 1.6, 2.0, 2.4}},
		{Param: "mem-latency", Values: []float64{80, 110, 150}},
		{Param: "hit-l1", Values: []float64{0.9, 0.95, 0.99}},
	}
	grid := explore.Grid{Base: hw.BGQ(), Axes: axes}
	variants, err := grid.Variants()
	if err != nil {
		t.Fatal(err)
	}
	w, all := adaptiveInputs(t, "srad", variants)
	opt := explore.AdaptiveOptions{Seed: 11}
	path := filepath.Join(t.TempDir(), "results.cas")
	storedSweep := func(ctx context.Context) ([]*pipeline.Eval, *pipeline.SweepSummary, error) {
		st, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		return pipeline.SweepAdaptive(ctx, w, all, st, axes, opt, pipeline.WithWorkers(2))
	}

	// Reference: a never-interrupted, store-free adaptive run.
	want, wantSum, err := pipeline.SweepAdaptive(context.Background(), w, all, nil, axes, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: stored search, killed mid-round after 5 evaluations.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	evals := 0
	disarm := guard.Arm("explore.evaluate", func(string) {
		mu.Lock()
		evals++
		if evals == 5 {
			cancel() // the "kill"
		}
		mu.Unlock()
	})
	killed, _, err := storedSweep(ctx)
	if killed != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("killed search returned (%v, %v), want (nil, context.Canceled)", killed, err)
	}
	disarm()

	stored := storedVariants(t, path, wantSum.LayoutFingerprint, all)
	if len(stored) == 0 || len(stored) >= wantSum.Adaptive.Evals {
		t.Fatalf("store holds %d evaluations (reference run spends %d); kill did not land mid-search", len(stored), wantSum.Adaptive.Evals)
	}

	// Phase 2: fresh engine, same seed, reopened store. Stored
	// evaluations must be served — never recomputed.
	var evaluated []string
	disarm2 := guard.Arm("explore.evaluate", func(detail string) {
		mu.Lock()
		evaluated = append(evaluated, detail)
		mu.Unlock()
	})
	t.Cleanup(disarm2)
	got, sum, err := storedSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range evaluated {
		for i, v := range all {
			if v.Name == name && stored[v.Fingerprint()] {
				t.Errorf("stored variant %d (%s) was recomputed on the rerun", i, name)
			}
		}
	}
	for i, ev := range got {
		if ev != nil && (ev.Provenance == pipeline.FromStore) != stored[all[i].Fingerprint()] {
			t.Errorf("variant %d: provenance %v, stored before the kill=%v", i, ev.Provenance, stored[all[i].Fingerprint()])
		}
	}
	if sum.FromStore != len(stored) {
		t.Errorf("rerun served %d evaluations from the store, store held %d", sum.FromStore, len(stored))
	}
	t.Logf("rerun: %d evaluations served from the store, %d evaluated (reference spends %d)",
		sum.FromStore, len(evaluated), wantSum.Adaptive.Evals)
	// The base machine, swept after the search, is evaluated fresh too.
	if fresh := wantSum.Adaptive.Evals - len(stored) + 1; len(evaluated) != fresh {
		t.Errorf("%d fresh evaluations on the rerun, want %d", len(evaluated), fresh)
	}

	// Same incumbent, same spend, identical round-by-round trace, and the
	// same analyses for every variant the search evaluated.
	gotBest, wantBest := explore.Best(gridAnalyses(got)), explore.Best(gridAnalyses(want))
	if gotBest < 0 || wantBest < 0 {
		t.Fatalf("no incumbent: rerun %d, reference %d", gotBest, wantBest)
	}
	gotInc, wantInc := got[gotBest], want[wantBest]
	if gotBest != wantBest || gotInc.Machine.Fingerprint() != wantInc.Machine.Fingerprint() {
		t.Errorf("rerun incumbent %d (%s) != reference %d (%s)",
			gotBest, gotInc.Machine.Fingerprint(), wantBest, wantInc.Machine.Fingerprint())
	}
	if g, r := sum.Adaptive, wantSum.Adaptive; g.Evals != r.Evals || g.Converged != r.Converged {
		t.Errorf("rerun spend (%d, converged=%v) != reference (%d, %v)", g.Evals, g.Converged, r.Evals, r.Converged)
	}
	gotTrace, err := json.Marshal(sum.Adaptive.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	wantTrace, err := json.Marshal(wantSum.Adaptive.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("rerun round trace differs from reference:\n%s\n%s", gotTrace, wantTrace)
	}
	assertBitIdentical(t, gridAnalyses(got), gridAnalyses(want))
}

// TestChaosValidationNotRetried: an invalid machine is a deterministic
// rejection — exactly one attempt regardless of the retry budget.
func TestChaosValidationNotRetried(t *testing.T) {
	run := prepared(t, "sord")
	variants := chaosVariants(3)
	variants[1].MemBandwidthGBs = 0
	var mu sync.Mutex
	attempts := 0
	disarm := guard.Arm("explore.evaluate", func(detail string) {
		if detail == "v1" {
			mu.Lock()
			attempts++
			mu.Unlock()
		}
	})
	t.Cleanup(disarm)
	eng := explore.New(layoutOf(t, run), explore.Retry(fastRetry(5)))
	_, err := sweep(context.Background(), eng, variants)
	var sweepErr *explore.SweepError
	if !errors.As(err, &sweepErr) || len(sweepErr.Variants) != 1 {
		t.Fatalf("err = %v, want one-variant SweepError", err)
	}
	if attempts != 1 {
		t.Errorf("invalid machine evaluated %d times, want 1", attempts)
	}
	if sweepErr.Variants[0].Attempts != 1 {
		t.Errorf("VariantError.Attempts = %d, want 1", sweepErr.Variants[0].Attempts)
	}
}
