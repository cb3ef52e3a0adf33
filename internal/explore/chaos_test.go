package explore_test

// The chaos suite drives the resilience layer the way production faults
// would: transient panics, attempts that hang past their deadline, and a
// sweep killed mid-run, all injected through the guard.Arm/guard.Hit
// fault points the engine ships with. The invariants under test are the
// durability contract of the sweep journal (a resumed sweep replays every
// journaled variant with zero recomputation and yields bit-identical
// results) and the retry contract (injected transient faults succeed
// within the configured budget; deterministic ones trip the breaker
// instead of burning it).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/journal"
	"skope/internal/pipeline"
	"skope/internal/resilience"
)

// fastRetry is a retry policy that never really sleeps.
func fastRetry(maxAttempts int) resilience.Policy {
	return resilience.Policy{
		MaxAttempts: maxAttempts,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
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

// journaledEngine opens (creating or recovering) the sweep journal at path
// and builds an engine over run attached to it through the Journal option,
// the attach path pipeline uses. The caller closes the journal.
func journaledEngine(t *testing.T, run *pipeline.Run, path string, opts ...explore.Option) (*explore.Engine, *journal.Journal) {
	t.Helper()
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := explore.New(run.BET, run.Libs, append(opts, explore.Journal(j))...)
	if err != nil {
		j.Close()
		t.Fatal(err)
	}
	return eng, j
}

// cleanSweep evaluates the variants with no faults, journal, or retries —
// the reference results chaos runs must reproduce exactly.
func cleanSweep(t *testing.T, workload string, variants []*hw.Machine) []*hotspot.Analysis {
	t.Helper()
	run := prepared(t, workload)
	eng, err := explore.New(run.BET, run.Libs)
	if err != nil {
		t.Fatal(err)
	}
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
	eng, err := explore.New(run.BET, run.Libs,
		explore.Retry(fastRetry(3)),
		explore.OnProgress(func(p explore.Progress) { lastProgress = p }),
		explore.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
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

	eng, err := explore.New(run.BET, run.Libs, explore.Retry(fastRetry(3)), explore.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
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

// TestChaosTimeoutRetried injects one attempt that overshoots the variant
// deadline; the retry must succeed and the result must stay bit-identical.
func TestChaosTimeoutRetried(t *testing.T) {
	run := prepared(t, "sord")
	variants := chaosVariants(4)
	want := cleanSweep(t, "sord", variants)

	var mu sync.Mutex
	blocked := false
	disarm := guard.Arm("explore.evaluate", func(detail string) {
		if detail != "v1" {
			return
		}
		mu.Lock()
		first := !blocked
		blocked = true
		mu.Unlock()
		if first {
			time.Sleep(300 * time.Millisecond) // well past the deadline
		}
	})
	t.Cleanup(disarm)

	eng, err := explore.New(run.BET, run.Libs,
		explore.Retry(fastRetry(2)),
		explore.VariantTimeout(60*time.Millisecond),
		explore.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	results, wait := eng.Stream(context.Background(), variants)
	got := make([]*hotspot.Analysis, len(variants))
	for r := range results {
		if r.Err != nil {
			t.Fatalf("variant %d failed: %v", r.Index, r.Err)
		}
		if r.Index == 1 && r.Attempts != 2 {
			t.Errorf("timed-out variant took %d attempts, want 2", r.Attempts)
		}
		got[r.Index] = r.Analysis
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, want)
}

// TestChaosKillAndResume is the flagship durability test: a journaled
// sweep is killed mid-run (fault-injected cancellation), then restarted
// by a fresh engine with -resume semantics. The resumed sweep must replay
// every journaled variant without recomputing it and produce results
// bit-identical to a never-interrupted sweep.
func TestChaosKillAndResume(t *testing.T) {
	run := prepared(t, "srad")
	variants := chaosVariants(24)
	want := cleanSweep(t, "srad", variants)
	path := filepath.Join(t.TempDir(), "sweep.journal")

	// Phase 1: journaled sweep, killed after ~8 evaluations.
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
	eng1, j1 := journaledEngine(t, run, path, explore.Workers(2))
	_, err := sweep(ctx, eng1, variants)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed sweep err = %v, want wrapped context.Canceled", err)
	}
	j1.Close()
	disarm()

	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[string]bool{}
	for _, e := range j.Entries() {
		journaled[e.Key] = true
	}
	j.Close()
	if len(journaled) == 0 || len(journaled) >= len(variants) {
		t.Fatalf("journal holds %d of %d variants; kill did not land mid-sweep", len(journaled), len(variants))
	}

	// Phase 2: a fresh engine (new process, no shared cache) resumes.
	// Every evaluate call is recorded: journaled variants must cause none.
	var evaluated []string
	disarm2 := guard.Arm("explore.evaluate", func(detail string) {
		mu.Lock()
		evaluated = append(evaluated, detail)
		mu.Unlock()
	})
	t.Cleanup(disarm2)
	eng2, j2 := journaledEngine(t, run, path, explore.Workers(2))
	defer j2.Close()

	results, wait := eng2.Stream(context.Background(), variants)
	got := make([]*hotspot.Analysis, len(variants))
	replayedCount := 0
	for r := range results {
		if r.Err != nil {
			t.Fatalf("resumed variant %d: %v", r.Index, r.Err)
		}
		wasJournaled := journaled[variants[r.Index].Fingerprint()]
		if r.Replayed != wasJournaled {
			t.Errorf("variant %d: Replayed=%v, journaled=%v", r.Index, r.Replayed, wasJournaled)
		}
		if r.Replayed {
			replayedCount++
		}
		got[r.Index] = r.Analysis
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if replayedCount != len(journaled) {
		t.Errorf("replayed %d variants, journal held %d", replayedCount, len(journaled))
	}
	// Zero recomputation of journaled variants.
	for _, name := range evaluated {
		for i, v := range variants {
			if v.Name == name && journaled[v.Fingerprint()] {
				t.Errorf("journaled variant %d (%s) was recomputed", i, name)
			}
		}
	}
	if len(evaluated) != len(variants)-len(journaled) {
		t.Errorf("%d fresh evaluations, want %d", len(evaluated), len(variants)-len(journaled))
	}
	assertBitIdentical(t, got, want)

	// Phase 3: resume again — everything replays, nothing evaluates.
	mu.Lock()
	evaluated = nil
	mu.Unlock()
	eng3, j3 := journaledEngine(t, run, path)
	defer j3.Close()
	got3, err := sweep(context.Background(), eng3, variants)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(evaluated)
	mu.Unlock()
	if n != 0 {
		t.Errorf("fully journaled sweep recomputed %d variants", n)
	}
	assertBitIdentical(t, got3, want)
	if stats := eng3.CacheStats(); stats.Hits+stats.Misses != 0 {
		t.Errorf("replay touched the memo cache: %+v", stats)
	}
}

// TestChaosAdaptiveKillAndResume: the adaptive analogue of the flagship
// durability test. A journaled surrogate-guided search is killed mid-round,
// then restarted with the same seed against the same journal. Because the
// seed subsample and the ranking are deterministic functions of the
// observations, the resumed search must retrace the identical round
// sequence — replaying every journaled evaluation with zero recomputation —
// and converge to the same incumbent with an identical round trace.
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
	journaledSweep := func(ctx context.Context, path string) ([]*pipeline.Eval, *pipeline.SweepSummary, error) {
		j, err := journal.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		return pipeline.SweepAdaptive(ctx, w, all, nil, axes, opt, pipeline.WithJournal(j), pipeline.WithWorkers(2))
	}

	// Reference: a never-interrupted, journal-free adaptive run.
	want, wantSum, err := pipeline.SweepAdaptive(context.Background(), w, all, nil, axes, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: journaled search, killed mid-round after 5 evaluations.
	path := filepath.Join(t.TempDir(), "adaptive.journal")
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
	killed, _, err := journaledSweep(ctx, path)
	if killed != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("killed search returned (%v, %v), want (nil, context.Canceled)", killed, err)
	}
	disarm()

	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[string]bool{}
	for _, e := range j.Entries() {
		journaled[e.Key] = true
	}
	j.Close()
	if len(journaled) == 0 || len(journaled) >= wantSum.Adaptive.Evals {
		t.Fatalf("journal holds %d evaluations (reference run spends %d); kill did not land mid-search", len(journaled), wantSum.Adaptive.Evals)
	}

	// Phase 2: fresh engine, same seed, resumed journal. Journaled
	// evaluations must replay — never recompute.
	var evaluated []string
	disarm2 := guard.Arm("explore.evaluate", func(detail string) {
		mu.Lock()
		evaluated = append(evaluated, detail)
		mu.Unlock()
	})
	t.Cleanup(disarm2)
	got, sum, err := journaledSweep(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range evaluated {
		for i, v := range variants {
			if v.Name == name && journaled[v.Fingerprint()] {
				t.Errorf("journaled variant %d (%s) was recomputed after resume", i, name)
			}
		}
	}
	replayedCount := 0
	for _, ev := range got {
		if ev != nil && ev.Provenance == pipeline.FromJournal {
			replayedCount++
		}
	}
	if replayedCount != len(journaled) {
		t.Errorf("resumed search replayed %d evaluations, journal held %d", replayedCount, len(journaled))
	}
	// The base machine, swept after the search, is evaluated fresh too.
	if fresh := wantSum.Adaptive.Evals - len(journaled) + 1; len(evaluated) != fresh {
		t.Errorf("%d fresh evaluations after resume, want %d", len(evaluated), fresh)
	}

	// Same incumbent, same spend, identical round-by-round trace.
	gotBest, wantBest := explore.Best(gridAnalyses(got)), explore.Best(gridAnalyses(want))
	if gotBest < 0 || wantBest < 0 {
		t.Fatalf("no incumbent: resumed %d, reference %d", gotBest, wantBest)
	}
	gotInc, wantInc := got[gotBest], want[wantBest]
	if gotBest != wantBest || gotInc.Machine.Fingerprint() != wantInc.Machine.Fingerprint() {
		t.Errorf("resumed incumbent %d (%s) != reference %d (%s)",
			gotBest, gotInc.Machine.Fingerprint(), wantBest, wantInc.Machine.Fingerprint())
	}
	if gotInc.Analysis.TotalTime != wantInc.Analysis.TotalTime {
		t.Errorf("resumed incumbent time %v != reference %v", gotInc.Analysis.TotalTime, wantInc.Analysis.TotalTime)
	}
	if g, r := sum.Adaptive, wantSum.Adaptive; g.Evals != r.Evals || g.Converged != r.Converged {
		t.Errorf("resumed spend (%d, converged=%v) != reference (%d, %v)", g.Evals, g.Converged, r.Evals, r.Converged)
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
		t.Errorf("resumed round trace differs from reference:\n%s\n%s", gotTrace, wantTrace)
	}
	assertBitIdentical(t, []*hotspot.Analysis{gotInc.Analysis}, []*hotspot.Analysis{wantInc.Analysis})
}

// TestChaosResumeSurvivesTornTail: a crash mid-Append leaves a torn final
// record; resume must drop it, replay the intact records, and recompute
// only what the journal lost.
func TestChaosResumeSurvivesTornTail(t *testing.T) {
	run := prepared(t, "sord")
	variants := chaosVariants(5)
	want := cleanSweep(t, "sord", variants)
	path := filepath.Join(t.TempDir(), "sweep.journal")

	eng1, j1 := journaledEngine(t, run, path)
	if _, err := sweep(context.Background(), eng1, variants); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	// Tear the tail: simulate a crash half-way through an Append.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`00000000 {"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	eng2, j2 := journaledEngine(t, run, path)
	defer j2.Close()
	if n, torn := j2.Recovered(); !torn || n != len(variants) {
		t.Errorf("recovered %d records (torn tail %v), want %d intact records and a torn tail", n, torn, len(variants))
	}
	got, err := sweep(context.Background(), eng2, variants)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, want)
}

// TestChaosBreakerStopsHammering: a deterministic fault class burns its
// full retry budget only until the breaker threshold, then fails fast.
func TestChaosBreakerStopsHammering(t *testing.T) {
	run := prepared(t, "sord")
	variants := chaosVariants(10)
	var mu sync.Mutex
	attempts := map[string]int{}
	disarm := guard.Arm("explore.evaluate", func(detail string) {
		mu.Lock()
		attempts[detail]++
		mu.Unlock()
		switch detail {
		case "v2", "v4", "v6", "v8":
			panic("chaos: deterministic fault")
		}
	})
	t.Cleanup(disarm)

	eng, err := explore.New(run.BET, run.Libs,
		explore.Retry(fastRetry(4)),
		explore.BreakerThreshold(2),
		explore.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sweep(context.Background(), eng, variants)
	var sweepErr *explore.SweepError
	if !errors.As(err, &sweepErr) || len(sweepErr.Variants) != 4 {
		t.Fatalf("err = %v, want 4-variant SweepError", err)
	}
	// Workers(1) walks variants in order: v2 and v4 exhaust the budget
	// (4 attempts each), opening the "panic" class; v6 and v8 get one
	// attempt, no retries.
	for _, c := range []struct {
		name string
		want int
	}{{"v2", 4}, {"v4", 4}, {"v6", 1}, {"v8", 1}, {"v0", 1}, {"v9", 1}} {
		if got := attempts[c.name]; got != c.want {
			t.Errorf("%s evaluated %d times, want %d", c.name, got, c.want)
		}
	}
}

// TestJournalRefusedForDifferentWorkload: resuming srad's journal under
// sord must fail loudly instead of serving wrong numbers.
func TestJournalRefusedForDifferentWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	engA, jA := journaledEngine(t, prepared(t, "srad"), path)
	if _, err := sweep(context.Background(), engA, chaosVariants(3)); err != nil {
		t.Fatal(err)
	}
	jA.Close()

	runB := prepared(t, "sord")
	jB, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jB.Close()
	if _, err := explore.New(runB.BET, runB.Libs, explore.Journal(jB)); !errors.Is(err, journal.ErrMetaMismatch) {
		t.Fatalf("foreign journal accepted via option: %v", err)
	}
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
	eng, err := explore.New(run.BET, run.Libs, explore.Retry(fastRetry(5)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sweep(context.Background(), eng, variants)
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
