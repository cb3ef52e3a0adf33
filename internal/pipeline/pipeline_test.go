package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"skope/internal/explore"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/interp"
	"skope/internal/profile"
	"skope/internal/workloads"
)

// prepare caches prepared runs across tests (preparation includes a full
// profiling execution).
var runCache = map[string]*Run{}

func prepared(t *testing.T, name string) *Run {
	t.Helper()
	if r, ok := runCache[name]; ok {
		return r
	}
	r, err := PrepareByName(context.Background(), name, workloads.ScaleTest)
	if err != nil {
		t.Fatalf("prepare %s: %v", name, err)
	}
	runCache[name] = r
	return r
}

func TestPrepareAllBenchmarks(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := prepared(t, name)
			if run.BET.NumNodes() == 0 {
				t.Fatal("empty BET")
			}
			// The paper's §IV-B size claim: BET stays within 2x of source.
			if r := run.BET.SizeRatio(); r <= 0 || r > 2 {
				t.Errorf("BET size ratio = %g, want (0, 2]", r)
			}
			if len(run.Profile.Loops) == 0 {
				t.Error("profiler saw no loops")
			}
		})
	}
}

func TestEvaluateSORDOnBothMachines(t *testing.T) {
	run := prepared(t, "sord")
	crit := hotspot.DefaultCriteria()
	for _, m := range []*hw.Machine{hw.BGQ(), hw.XeonE5()} {
		ev, err := Evaluate(context.Background(), run, m, WithCriteria(crit))
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if len(ev.Selection.Spots) == 0 {
			t.Fatalf("%s: empty selection", m.Name)
		}
		// The headline claim: selection quality >= 0.80 in all cases.
		if ev.Quality < 0.80 {
			t.Errorf("%s: selection quality = %.3f, want >= 0.80\nmodel:\n%s\nmeasured:\n%s",
				m.Name, ev.Quality, ev.Modl, ev.Prof)
		}
		if ev.HotPath.Root == nil {
			t.Errorf("%s: empty hot path", m.Name)
		}
	}
}

func TestEvaluateAllQualityFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("full five-benchmark evaluation in -short mode")
	}
	crit := hotspot.ScaledCriteria()
	total := 0.0
	n := 0
	for _, name := range workloads.Names() {
		run := prepared(t, name)
		for _, m := range []*hw.Machine{hw.BGQ(), hw.XeonE5()} {
			ev, err := Evaluate(context.Background(), run, m, WithCriteria(crit))
			if err != nil {
				t.Fatalf("%s on %s: %v", name, m.Name, err)
			}
			if ev.Quality < 0.80 {
				t.Errorf("%s on %s: quality %.3f < 0.80\nmodel:\n%s\nmeasured:\n%s",
					name, m.Name, ev.Quality, ev.Modl, ev.Prof)
			}
			total += ev.Quality
			n++
		}
	}
	avg := total / float64(n)
	t.Logf("average selection quality over %d cases: %.3f", n, avg)
	// The paper reports 0.958 average; require a solid floor.
	if avg < 0.90 {
		t.Errorf("average quality %.3f < 0.90", avg)
	}
}

func TestCrossMachineHotSpotsDiffer(t *testing.T) {
	// The paper's §I observation on SORD: the two machines' top-10 hot
	// spot lists differ (only 4 of 10 shared on the real machines), so
	// empirical knowledge is not portable.
	run := prepared(t, "sord")
	q, err := Evaluate(context.Background(), run, hw.BGQ())
	if err != nil {
		t.Fatal(err)
	}
	x, err := Evaluate(context.Background(), run, hw.XeonE5())
	if err != nil {
		t.Fatal(err)
	}
	overlap := profile.TopOverlap(q.Prof.TopIDs(10), x.Prof.TopIDs(10))
	t.Logf("SORD top-10 overlap across machines: %d/10", overlap)
	ordSame := true
	qt, xt := q.Prof.TopIDs(10), x.Prof.TopIDs(10)
	for i := range qt {
		if i < len(xt) && qt[i] != xt[i] {
			ordSame = false
		}
	}
	if ordSame {
		t.Error("identical top-10 ordering on both machines: machines too similar to exercise the paper's claim")
	}
}

func TestEvalSpotIDsOrdered(t *testing.T) {
	run := prepared(t, "chargei")
	ev, err := Evaluate(context.Background(), run, hw.BGQ())
	if err != nil {
		t.Fatal(err)
	}
	ids := ev.SpotIDs()
	if len(ids) != len(ev.Selection.Spots) {
		t.Fatal("SpotIDs length mismatch")
	}
	for i, s := range ev.Selection.Spots {
		if ids[i] != s.BlockID {
			t.Errorf("SpotIDs[%d] = %s != %s", i, ids[i], s.BlockID)
		}
	}
}

func TestAblationModels(t *testing.T) {
	run := prepared(t, "cfd")
	base, err := Evaluate(context.Background(), run, hw.BGQ())
	if err != nil {
		t.Fatal(err)
	}
	divAware, err := Evaluate(context.Background(), run, hw.BGQ(), WithModelFunc(hw.NewDivAwareModel))
	if err != nil {
		t.Fatal(err)
	}
	// The division-aware model must project MORE time for the division
	// block than the paper's base model (which underestimates it).
	velID := findBlock(base.Analysis, "compute_velocity")
	if velID == "" {
		t.Fatalf("velocity block not found; blocks: %v", base.Modl.TopIDs(10))
	}
	baseT := blockTime(t, base.Analysis, velID)
	divT := blockTime(t, divAware.Analysis, velID)
	if divT <= baseT {
		t.Errorf("div-aware projection (%g) not > base (%g) for %s", divT, baseT, velID)
	}
}

func findBlock(a *hotspot.Analysis, funcName string) string {
	for _, b := range a.Blocks {
		if b.FuncName == funcName && !b.IsLib {
			return b.BlockID
		}
	}
	return ""
}

func TestEvaluateManyMatchesSequential(t *testing.T) {
	run := prepared(t, "srad")
	crit := hotspot.ScaledCriteria()
	machines := []*hw.Machine{hw.BGQ(), hw.XeonE5()}
	par, err := EvaluateMany(context.Background(), run, machines, WithCriteria(crit))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range machines {
		seq, err := Evaluate(context.Background(), run, m, WithCriteria(crit))
		if err != nil {
			t.Fatal(err)
		}
		if par[i].Quality != seq.Quality {
			t.Errorf("%s: parallel quality %g != sequential %g", m.Name, par[i].Quality, seq.Quality)
		}
		if got, want := par[i].Modl.TopIDs(5), seq.Modl.TopIDs(5); len(got) == len(want) {
			for j := range got {
				if got[j] != want[j] {
					t.Errorf("%s: rank %d differs: %s vs %s", m.Name, j, got[j], want[j])
				}
			}
		}
	}
}

func TestEvaluateManyPropagatesError(t *testing.T) {
	run := prepared(t, "srad")
	bad := hw.BGQ()
	bad.FreqGHz = 0
	if _, err := EvaluateMany(context.Background(), run, []*hw.Machine{hw.XeonE5(), bad}, WithCriteria(hotspot.ScaledCriteria())); err == nil {
		t.Error("invalid machine not reported")
	}
}

func TestSweepParallel(t *testing.T) {
	run := prepared(t, "chargei")
	var variants []*hw.Machine
	for _, bw := range []float64{8, 16, 32, 64} {
		m := hw.BGQ()
		m.Name = "v"
		m.MemBandwidthGBs = bw
		variants = append(variants, m)
	}
	analyses, err := Sweep(context.Background(), run, variants)
	if err != nil {
		t.Fatal(err)
	}
	if len(analyses) != 4 {
		t.Fatalf("got %d analyses", len(analyses))
	}
	for i, a := range analyses {
		if a == nil || a.Analysis.TotalTime <= 0 {
			t.Errorf("variant %d empty", i)
		}
		if a != nil && a.Selection == nil {
			t.Errorf("variant %d has no selection", i)
		}
	}
	// Invalid variant rejected.
	bad := hw.BGQ()
	bad.IssueWidth = 0
	if _, err := Sweep(context.Background(), run, []*hw.Machine{bad}); err == nil {
		t.Error("invalid variant accepted")
	}
}

// TestSweepCollectsOnWorkers sweeps 1,001 variants on 4 workers, every
// 7th with no memory bandwidth, with a progress callback installed. The
// workers build the Evals themselves, so under the race detector this
// checks their writes to the shared Evals and failure list: the Evals are
// index-aligned and project totals bit-identical to a one-worker sweep's,
// the SweepError lists exactly the invalid indices in order, and Done
// rises by one per progress call up to the variant count.
func TestSweepCollectsOnWorkers(t *testing.T) {
	run := prepared(t, "sord")
	variants := make([]*hw.Machine, 1001)
	var invalid []int
	for i := range variants {
		m := hw.BGQ()
		m.Name = fmt.Sprintf("v%d", i)
		m.MemLatencyCyc = 60 + i
		m.FreqGHz = 1 + float64(i%13)/10
		if i%7 == 0 {
			m.MemBandwidthGBs = 0
			invalid = append(invalid, i)
		}
		variants[i] = m
	}
	failedIndices := func(err error) []int {
		t.Helper()
		var se *explore.SweepError
		if !errors.As(err, &se) {
			t.Fatalf("sweep error %v is not a *explore.SweepError", err)
		}
		var out []int
		for _, v := range se.Variants {
			out = append(out, v.Index)
		}
		return out
	}
	ref, err := Sweep(context.Background(), run, variants, WithWorkers(1))
	if got := failedIndices(err); !slices.Equal(got, invalid) {
		t.Fatalf("one-worker sweep failed variants %v, want %v", got, invalid)
	}
	var dones []int // the engine calls the callback serially
	evals, err := Sweep(context.Background(), run, variants, WithWorkers(4),
		WithProgress(func(p explore.Progress) { dones = append(dones, p.Done) }))
	if got := failedIndices(err); !slices.Equal(got, invalid) {
		t.Errorf("failed variants %v, want %v", got, invalid)
	}
	if len(evals) != len(variants) {
		t.Fatalf("%d evals for %d variants", len(evals), len(variants))
	}
	for i, ev := range evals {
		switch {
		case i%7 == 0:
			if ev != nil {
				t.Errorf("invalid variant %d has an Eval", i)
			}
		case ev == nil:
			t.Errorf("variant %d has no Eval", i)
		case ev.Machine != variants[i]:
			t.Errorf("evals[%d] is the Eval of %s", i, ev.Machine.Name)
		case math.Float64bits(ev.Analysis.TotalTime) != math.Float64bits(ref[i].Analysis.TotalTime):
			t.Errorf("variant %d: total %v on 4 workers, %v on one", i, ev.Analysis.TotalTime, ref[i].Analysis.TotalTime)
		case len(ev.Selection.Spots) != len(ref[i].Selection.Spots):
			t.Errorf("variant %d: %d spots on 4 workers, %d on one", i, len(ev.Selection.Spots), len(ref[i].Selection.Spots))
		}
	}
	if len(dones) != len(variants) {
		t.Fatalf("%d progress calls for %d variants", len(dones), len(variants))
	}
	for k, d := range dones {
		if d != k+1 {
			t.Fatalf("progress call %d reports Done=%d, want %d", k, d, k+1)
		}
	}
}

// noLeakedGoroutines waits for the goroutine count to settle back near the
// level observed before the test body ran.
func noLeakedGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPrepareStageSentinels(t *testing.T) {
	bad := &workloads.Workload{Name: "broken", Source: "func main( {"}
	_, err := Prepare(context.Background(), bad)
	if err == nil {
		t.Fatal("malformed source accepted")
	}
	if !errors.Is(err, ErrParse) {
		t.Errorf("parse failure not tagged ErrParse: %v", err)
	}
	if errors.Is(err, ErrSimulate) || errors.Is(err, ErrModel) {
		t.Errorf("parse failure tagged with a later stage: %v", err)
	}
}

func TestPrepareCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, err := workloads.Get("sord", workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Prepare(ctx, w); !errors.Is(err, context.Canceled) {
		t.Errorf("Prepare on canceled ctx = %v, want context.Canceled in chain", err)
	}
}

// TestPrepareDeadlineStopsProfiling: the profiling run honours Prepare's
// context, so a program whose loop never advances stops at the deadline
// instead of at the interpreter's step budget, minutes later. Lenient mode
// keeps a failed run's partial profile but still reports the deadline.
func TestPrepareDeadlineStopsProfiling(t *testing.T) {
	w := &workloads.Workload{Name: "spin", Seed: 1, Source: `
global n: int = 10;
func main() {
  var i: int = 0;
  while (i < n) {
    i = i + 0;
  }
}
`}
	for _, lenient := range []bool{false, true} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		done := make(chan error, 1)
		go func() {
			_, err := Prepare(ctx, w, WithLenient(lenient))
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("lenient=%v: Prepare = %v, want context.DeadlineExceeded in chain", lenient, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("lenient=%v: Prepare still running 2s after a 100ms deadline", lenient)
		}
		cancel()
	}
}

// TestPrepareRareBranch: a branch taken once in 40,001 trips has a
// profiled probability below 1e-4, which the generated skeleton prints
// with an exponent (2.5e-05). Both modes must parse it back.
func TestPrepareRareBranch(t *testing.T) {
	w := &workloads.Workload{Name: "rare", Seed: 1, Source: `
global s: float;
func main() {
  for i = 0 .. 40000 {
    if (i == 7) {
      s = s + 1.0;
    }
  }
}
`}
	for _, lenient := range []bool{false, true} {
		if _, err := Prepare(context.Background(), w, WithLenient(lenient)); err != nil {
			t.Errorf("lenient=%v: %v", lenient, err)
		}
	}
}

// TestLenientPrepareKeepsPartialProfile: a profiling run that fails
// mid-run leaves lenient Prepare the branch and loop statistics gathered
// up to the failure, the same ones the full event stream yields.
func TestLenientPrepareKeepsPartialProfile(t *testing.T) {
	w := &workloads.Workload{Name: "fails-late", Seed: 1, Source: `
global a: [8]float;
global s: float;
func main() {
  for i = 0 .. 20 {
    for j = 0 .. i {
      s = s + j;
    }
    if (i % 3 == 0) {
      s = s + 1.0;
    }
    a[i] = s;
  }
}
`}
	run, err := Prepare(context.Background(), w, WithLenient(true))
	if err != nil {
		t.Fatal(err)
	}
	// A type embedding *Profiler receives every event.
	full := interp.NewProfiler()
	e, err := interp.New(run.Prog, &interp.Options{Observer: struct{ *interp.Profiler }{full}, Seed: w.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("the program ran to completion; it must fail mid-run")
	}
	got, want := run.Profile.String(), full.P.String()
	if got != want || !strings.Contains(got, "branch main@") || !strings.Contains(got, "loop main@") {
		t.Errorf("lenient Prepare's profile\n%s\nwant the partial profile\n%s", got, want)
	}
}

func TestEvaluateCanceledContext(t *testing.T) {
	run := prepared(t, "sord")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Evaluate(ctx, run, hw.BGQ()); !errors.Is(err, context.Canceled) {
		t.Errorf("Evaluate on canceled ctx = %v, want context.Canceled in chain", err)
	}
}

func TestEvaluateManyCanceledContext(t *testing.T) {
	run := prepared(t, "sord")
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	machines := make([]*hw.Machine, 64)
	for i := range machines {
		machines[i] = hw.BGQ()
	}
	start := time.Now()
	_, err := EvaluateMany(ctx, run, machines, WithCriteria(hotspot.ScaledCriteria()))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("EvaluateMany on canceled ctx = %v, want context.Canceled in chain", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("canceled EvaluateMany took %s, want prompt return", el)
	}
	noLeakedGoroutines(t, before)
}

func TestSweepCanceledMidFlight(t *testing.T) {
	run := prepared(t, "sord")
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A sweep far too large to finish before the progress callback cancels
	// it after the second variant.
	variants := make([]*hw.Machine, 2000)
	for i := range variants {
		m := hw.BGQ()
		m.NetLatencyUs = 1 + float64(i)
		variants[i] = m
	}
	start := time.Now()
	_, err := Sweep(ctx, run, variants,
		WithWorkers(2),
		WithProgress(func(p explore.Progress) {
			if p.Done >= 2 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Sweep = %v, want context.Canceled in chain", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("canceled Sweep took %s, want prompt return", el)
	}
	noLeakedGoroutines(t, before)
}

// TestAnalysisRankOrderAndCoverage: an analysis lists its blocks in rank
// order (projected time, descending) and their coverages sum to 1.
func TestAnalysisRankOrderAndCoverage(t *testing.T) {
	run := prepared(t, "cfd")
	ev, err := Evaluate(context.Background(), run, hw.BGQ(), WithCriteria(hotspot.ScaledCriteria()))
	if err != nil {
		t.Fatal(err)
	}
	a := ev.Analysis
	if a.Machine.Name != "BG/Q" || len(a.Blocks) == 0 || a.Blocks[0].T <= 0 {
		t.Fatalf("analysis on %s with %d blocks", a.Machine.Name, len(a.Blocks))
	}
	cum := 0.0
	for i, b := range a.Blocks {
		if i > 0 && b.T > a.Blocks[i-1].T {
			t.Errorf("block %d (%s, %g s) outranks block %d (%g s)", i, b.BlockID, b.T, i-1, a.Blocks[i-1].T)
		}
		cum += a.Coverage(b)
	}
	if cum < 0.999 || cum > 1.001 {
		t.Errorf("coverages sum to %g", cum)
	}
}

// SpotIDs returns the selection's block IDs in rank order.
func (e *Eval) SpotIDs() []string {
	return spotIDs(e.Selection.Spots)
}

// blockTime returns the projected time of the analysis block with the given
// ID.
func blockTime(t *testing.T, a *hotspot.Analysis, id string) float64 {
	t.Helper()
	for _, b := range a.Blocks {
		if b.BlockID == id {
			return b.T
		}
	}
	t.Fatalf("no block %s in the analysis", id)
	return 0
}
