package explore_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"skope/internal/explore"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/pipeline"
	"skope/internal/store"
	"skope/internal/workloads"
)

var updateAdaptiveGolden = flag.Bool("update", false, "rewrite the adaptive parity golden file")

// parityAxes is the shared ≥500-variant parity grid: four axes that each
// bite on every workload's projected time (clock on the compute term;
// L1 latency, DRAM latency, and hit ratio on the memory term's latency
// path), 6·5·5·4 = 600 variants. Axes whose effect plateaus at the
// optimum corner (mem-bandwidth on latency-bound blocks, net latency on
// comm-free test-scale workloads) are deliberately absent, and the
// parity test asserts the exhaustive optimum is unique on this grid for
// every workload, so a tie can never make the fingerprint-equality
// assertion ambiguous.
func parityAxes() []explore.Axis {
	return []explore.Axis{
		{Param: "freq-ghz", Values: []float64{1.0, 1.2, 1.4, 1.6, 2.0, 2.4}},
		{Param: "mem-latency", Values: []float64{60, 80, 100, 130, 170}},
		{Param: "hit-l1", Values: []float64{0.88, 0.91, 0.94, 0.97, 0.995}},
		{Param: "l1-latency", Values: []float64{3, 4, 6, 9}},
	}
}

// adaptiveInputs returns the named test-scale workload and the grid
// variants with BG/Q, their base, appended: pipeline.SweepAdaptive's
// inputs.
func adaptiveInputs(t testing.TB, name string, variants []*hw.Machine) (*workloads.Workload, []*hw.Machine) {
	t.Helper()
	w, err := workloads.Get(name, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	return w, append(append([]*hw.Machine{}, variants...), hw.BGQ())
}

// gridAnalyses drops the base machine from an adaptive sweep's Evals and
// returns the grid's analyses, nil where the search did not evaluate.
func gridAnalyses(evals []*pipeline.Eval) []*hotspot.Analysis {
	out := make([]*hotspot.Analysis, len(evals)-1)
	for i, ev := range evals[:len(out)] {
		if ev != nil {
			out[i] = ev.Analysis
		}
	}
	return out
}

func parityVariants(t testing.TB) []*hw.Machine {
	t.Helper()
	g := explore.Grid{Base: hw.BGQ(), Axes: parityAxes()}
	variants, err := g.Variants()
	if err != nil {
		t.Fatal(err)
	}
	return variants
}

// TestAdaptiveParity is the acceptance test of the adaptive explorer: on
// every paper workload, the surrogate-guided search must find the exact
// exhaustive optimum — same variant fingerprint, float-exact objective —
// while spending at most 5% of the exhaustive evaluation count. The
// per-workload eval counts are pinned in testdata/adaptive_evals.golden
// so a regression in sample efficiency fails loudly even while the 5%
// ceiling still holds (refresh with -update after intentional changes).
func TestAdaptiveParity(t *testing.T) {
	variants := parityVariants(t)
	budget := len(variants) * 5 / 100

	evalCounts := map[string]int{}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			run := prepared(t, name)

			exact := explore.New(layoutOf(t, run))
			analyses, err := sweep(context.Background(), exact, variants)
			if err != nil {
				t.Fatal(err)
			}
			best := explore.Best(analyses)
			if best < 0 {
				t.Fatal("exhaustive sweep produced no best variant")
			}
			for i, a := range analyses {
				if i != best && a.TotalTime == analyses[best].TotalTime {
					t.Fatalf("parity grid is ambiguous for %s: variants %d and %d tie at %v — pick axes with strict effect",
						name, best, i, a.TotalTime)
				}
			}

			w, all := adaptiveInputs(t, name, variants)
			evals, sum, err := pipeline.SweepAdaptive(context.Background(), w, all, nil, parityAxes(),
				explore.AdaptiveOptions{Seed: 42, MaxEvals: budget})
			if err != nil {
				t.Fatal(err)
			}
			res := sum.Adaptive
			inc := explore.Best(gridAnalyses(evals))
			if inc < 0 {
				t.Fatal("adaptive search found no incumbent")
			}
			if inc != best {
				t.Errorf("adaptive optimum is variant %d (%s), exhaustive says %d (%s)",
					inc, variants[inc].Fingerprint(), best, variants[best].Fingerprint())
			}
			if fp := evals[inc].Machine.Fingerprint(); fp != variants[best].Fingerprint() {
				t.Errorf("incumbent fingerprint %s != exhaustive %s", fp, variants[best].Fingerprint())
			}
			if got, want := evals[inc].Analysis.TotalTime, analyses[best].TotalTime; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("incumbent objective %v not float-exact against exhaustive %v", got, want)
			}
			if res.Evals > budget {
				t.Errorf("adaptive spent %d evaluations, budget (5%% of %d) is %d", res.Evals, len(variants), budget)
			}
			if res.GridSize != len(variants) {
				t.Errorf("GridSize = %d, want %d", res.GridSize, len(variants))
			}
			evalCounts[name] = res.Evals
		})
	}
	if t.Failed() {
		return
	}

	golden := filepath.Join("testdata", "adaptive_evals.golden")
	if *updateAdaptiveGolden {
		buf, err := json.MarshalIndent(evalCounts, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	want := map[string]int{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evalCounts, want) {
		t.Errorf("per-workload adaptive eval counts drifted:\n got %v\nwant %v\n(rerun with -update if the change is intentional)", evalCounts, want)
	}
}

// adaptiveAxes is a small grid for the behavioural tests: 4×3×3 = 36
// variants, three axes.
func adaptiveAxes() []explore.Axis {
	return []explore.Axis{
		{Param: "freq-ghz", Values: []float64{1.2, 1.6, 2.0, 2.4}},
		{Param: "mem-latency", Values: []float64{80, 110, 150}},
		{Param: "mem-bandwidth", Values: []float64{16, 28, 48}},
	}
}

func adaptiveVariants(t testing.TB) []*hw.Machine {
	t.Helper()
	g := explore.Grid{Base: hw.BGQ(), Axes: adaptiveAxes()}
	variants, err := g.Variants()
	if err != nil {
		t.Fatal(err)
	}
	return variants
}

// TestAdaptiveDeterministicTrace: a fixed seed makes the whole run a pure
// function of the inputs — two independent sweeps must produce
// byte-identical round traces and evaluate the same variants to
// byte-identical analyses.
func TestAdaptiveDeterministicTrace(t *testing.T) {
	w, all := adaptiveInputs(t, "sord", adaptiveVariants(t))

	runOnce := func() ([]byte, [][]byte) {
		evals, sum, err := pipeline.SweepAdaptive(context.Background(), w, all, nil, adaptiveAxes(),
			explore.AdaptiveOptions{Seed: 7}, pipeline.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		trace, err := json.Marshal(sum.Adaptive.Rounds)
		if err != nil {
			t.Fatal(err)
		}
		analyses := make([][]byte, len(evals))
		for i, ev := range evals {
			if ev == nil {
				continue
			}
			if analyses[i], err = hotspot.EncodeAnalysis(ev.Analysis); err != nil {
				t.Fatal(err)
			}
		}
		return trace, analyses
	}

	trace1, analyses1 := runOnce()
	trace2, analyses2 := runOnce()
	if !bytes.Equal(trace1, trace2) {
		t.Errorf("round traces differ across identical seeds:\n%s\n%s", trace1, trace2)
	}
	for i := range analyses1 {
		if !bytes.Equal(analyses1[i], analyses2[i]) {
			t.Errorf("variant %d: evaluated analyses differ across identical seeds (evaluated: %t, %t)",
				i, analyses1[i] != nil, analyses2[i] != nil)
		}
	}

	// A different seed picks a different bootstrap sample.
	_, sum, err := pipeline.SweepAdaptive(context.Background(), w, all, nil, adaptiveAxes(),
		explore.AdaptiveOptions{Seed: 8}, pipeline.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	other, err := json.Marshal(sum.Adaptive.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(trace1, other) {
		t.Error("seeds 7 and 8 produced identical traces — seed is not keying the subsample")
	}
}

// TestAdaptivePlannerInvariants drives the planner directly with a
// synthetic objective and checks the structural properties every round
// must satisfy: batches are ascending, disjoint from everything issued
// before, within the grid, and the search terminates with the incumbent
// equal to the argmin over everything it evaluated.
func TestAdaptivePlannerInvariants(t *testing.T) {
	axes := adaptiveAxes()
	variants := adaptiveVariants(t)
	p, err := explore.NewAdaptivePlanner(variants, axes, explore.AdaptiveOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Result().GridSize; got != len(variants) {
		t.Fatalf("GridSize = %d, want %d", got, len(variants))
	}

	obj := func(g int) float64 {
		m := variants[g]
		return 5/m.FreqGHz + float64(m.MemLatencyCyc)/100 + 40/m.MemBandwidthGBs
	}
	issued := map[int]bool{}
	bestIdx, bestY := -1, math.Inf(1)
	for rounds := 0; ; rounds++ {
		if rounds > len(variants) {
			t.Fatal("planner did not terminate within GridSize rounds")
		}
		batch := p.NextRound()
		if batch == nil {
			break
		}
		if !sort.IntsAreSorted(batch) {
			t.Fatalf("round batch not ascending: %v", batch)
		}
		for _, g := range batch {
			if g < 0 || g >= len(variants) {
				t.Fatalf("batch index %d outside grid", g)
			}
			if issued[g] {
				t.Fatalf("index %d issued twice", g)
			}
			issued[g] = true
			y := obj(g)
			if y < bestY {
				bestIdx, bestY = g, y
			}
			p.Observe(g, y, 1)
		}
		p.EndRound()
	}
	res := p.Result()
	if res.Evals != len(issued) {
		t.Errorf("Evals = %d, issued %d", res.Evals, len(issued))
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no round traces recorded")
	}
	if last := res.Rounds[len(res.Rounds)-1]; last.Incumbent != bestIdx || last.IncumbentTime != bestY {
		t.Errorf("incumbent = (%d, %v), want argmin over issued (%d, %v)", last.Incumbent, last.IncumbentTime, bestIdx, bestY)
	}
	for i, tr := range res.Rounds {
		if tr.Round != i+1 {
			t.Errorf("trace %d has Round %d", i, tr.Round)
		}
		if tr.GridSize != len(variants) {
			t.Errorf("trace %d GridSize = %d", i, tr.GridSize)
		}
	}
}

// TestAdaptivePlannerDegenerate: the degenerate grids a user can
// legitimately construct — a one-point grid, a single-valued axis
// (constant feature column), and a grid smaller than the seed sample —
// must run to completion without crashing or dividing by zero.
func TestAdaptivePlannerDegenerate(t *testing.T) {
	base := hw.BGQ()
	cases := []struct {
		name string
		axes []explore.Axis
	}{
		{"one-point-grid", []explore.Axis{{Param: "freq-ghz", Values: []float64{1.6}}}},
		{"single-value-axis", []explore.Axis{
			{Param: "freq-ghz", Values: []float64{1.6}},
			{Param: "mem-bandwidth", Values: []float64{16, 28, 48}},
		}},
		{"grid-smaller-than-seed", []explore.Axis{
			{Param: "freq-ghz", Values: []float64{1.2, 2.4}},
			{Param: "mem-latency", Values: []float64{90, 120}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := explore.Grid{Base: base, Axes: tc.axes}
			variants, err := g.Variants()
			if err != nil {
				t.Fatal(err)
			}
			p, err := explore.NewAdaptivePlanner(variants, tc.axes, explore.AdaptiveOptions{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			var tr explore.RoundTrace
			for batch := p.NextRound(); batch != nil; batch = p.NextRound() {
				for _, g := range batch {
					seen++
					p.Observe(g, 1+float64(g)/10, 1)
				}
				tr = p.EndRound()
				if math.IsNaN(tr.R2) || math.IsInf(tr.R2, 0) {
					t.Fatalf("round %d R² = %v", tr.Round, tr.R2)
				}
			}
			if seen != len(variants) && !p.Result().Converged {
				t.Errorf("planner stopped after %d of %d evals without converging", seen, len(variants))
			}
			if tr.Incumbent < 0 || tr.Incumbent >= len(variants) {
				t.Errorf("incumbent %d invalid on %d-point grid", tr.Incumbent, len(variants))
			}
		})
	}

	// A variants slice that is not the axes' grid is refused outright.
	if _, err := explore.NewAdaptivePlanner(adaptiveVariants(t)[:5], adaptiveAxes(), explore.AdaptiveOptions{}); err == nil {
		t.Error("mismatched variants/axes accepted")
	}
}

// TestAdaptiveBudget: MaxEvals is a hard ceiling — the search stops at
// exactly the budget, reports Converged=false, and still returns the
// incumbent over what it did evaluate.
func TestAdaptiveBudget(t *testing.T) {
	w, all := adaptiveInputs(t, "sord", adaptiveVariants(t))
	evals, sum, err := pipeline.SweepAdaptive(context.Background(), w, all, nil, adaptiveAxes(),
		explore.AdaptiveOptions{Seed: 5, MaxEvals: 6})
	if err != nil {
		t.Fatal(err)
	}
	res := sum.Adaptive
	if res.Evals != 6 {
		t.Errorf("Evals = %d, want exactly the budget of 6", res.Evals)
	}
	if res.Converged {
		t.Error("budget-exhausted search reported Converged")
	}
	analyses := gridAnalyses(evals)
	if best := explore.Best(analyses); best < 0 {
		t.Fatalf("no incumbent under budget: best=%d", best)
	}
	evaluated := 0
	for _, a := range analyses {
		if a != nil {
			evaluated++
		}
	}
	if evaluated != 6 {
		t.Errorf("%d analyses set, want 6", evaluated)
	}
}

// TestAdaptiveConcurrentSearches runs three surrogate-guided sweeps
// concurrently on one shared CAS store — the -race exercise for the
// planner/engine split: planners are per-search, everything shared (the
// store, the progress sink) must stay consistent under worker-pool
// interleaving.
func TestAdaptiveConcurrentSearches(t *testing.T) {
	s, err := store.Open(filepath.Join(t.TempDir(), "cas.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, all := adaptiveInputs(t, "srad", adaptiveVariants(t))

	var mu sync.Mutex
	var progress []explore.Progress
	onProgress := pipeline.WithProgress(func(p explore.Progress) {
		mu.Lock()
		progress = append(progress, p)
		mu.Unlock()
	})

	const searches = 3
	evals := make([][]*pipeline.Eval, searches)
	sums := make([]*pipeline.SweepSummary, searches)
	errs := make([]error, searches)
	var wg sync.WaitGroup
	for i := 0; i < searches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			evals[i], sums[i], errs[i] = pipeline.SweepAdaptive(context.Background(), w, all, s, adaptiveAxes(),
				explore.AdaptiveOptions{Seed: uint64(20 + i)}, pipeline.WithWorkers(4), onProgress)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	// Different seeds may converge on different incumbents in principle,
	// but every incumbent objective must be an exact engine evaluation and
	// every search must have produced a valid trace.
	for i := range evals {
		best := explore.Best(gridAnalyses(evals[i]))
		if best < 0 {
			t.Fatalf("search %d found no incumbent", i)
		}
		if tt := evals[i][best].Analysis.TotalTime; tt <= 0 {
			t.Errorf("search %d incumbent time %v", i, tt)
		}
		if res := sums[i].Adaptive; res.Evals < len(res.Rounds) {
			t.Errorf("search %d: %d evals across %d rounds", i, res.Evals, len(res.Rounds))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(progress) == 0 {
		t.Error("no progress reached the shared sink")
	}
	if s.Len() == 0 {
		t.Error("no results written through to the CAS store")
	}
}

// FuzzAdaptivePlannerAxes fuzzes the planner over axis-spec strings
// (the exact grammar -sweep accepts): whatever grid parses, the planner
// must terminate, never hand out an index twice, and never leave the
// grid, even when the synthetic objective drives the surrogate into
// extreme values.
func FuzzAdaptivePlannerAxes(f *testing.F) {
	f.Add("freq-ghz=1,2", uint64(1))
	f.Add("freq-ghz=1.2,1.6;mem-latency=80,100,120", uint64(7))
	f.Add("hit-l1=0.9;mem-bandwidth=16,32", uint64(0))
	f.Add("freq-ghz=1:4:8", uint64(3))
	f.Fuzz(func(t *testing.T, specs string, seed uint64) {
		var axes []explore.Axis
		size := 1
		for _, spec := range strings.Split(specs, ";") {
			ax, err := explore.ParseAxis(spec)
			if err != nil {
				t.Skip()
			}
			axes = append(axes, ax)
			size *= len(ax.Values)
			if size > 512 || len(axes) > 6 {
				t.Skip()
			}
		}
		if len(axes) == 0 {
			t.Skip()
		}
		g := explore.Grid{Base: hw.BGQ(), Axes: axes}
		variants, err := g.Variants()
		if err != nil {
			t.Skip()
		}
		p, err := explore.NewAdaptivePlanner(variants, axes, explore.AdaptiveOptions{Seed: seed})
		if err != nil {
			t.Fatalf("planner rejected a parsed grid: %v", err)
		}
		issued := map[int]bool{}
		for rounds := 0; ; rounds++ {
			if rounds > len(variants)+1 {
				t.Fatal("planner did not terminate")
			}
			batch := p.NextRound()
			if batch == nil {
				break
			}
			for _, gi := range batch {
				if gi < 0 || gi >= len(variants) {
					t.Fatalf("index %d outside grid of %d", gi, len(variants))
				}
				if issued[gi] {
					t.Fatalf("index %d issued twice", gi)
				}
				issued[gi] = true
				// An adversarial but finite objective.
				y := math.Mod(float64(gi)*1e15, 1e9) - float64(gi%3)*1e8
				p.Observe(gi, y, float64(gi%5)-2) // weights get clamped
			}
			p.EndRound()
		}
		if got := p.Result().Evals; got != len(issued) {
			t.Fatalf("Evals = %d, issued %d", got, len(issued))
		}
	})
}

// TestAdaptiveCancellation: cancelling mid-search loses the result (like
// Sweep) and reports the context error.
func TestAdaptiveCancellation(t *testing.T) {
	w, all := adaptiveInputs(t, "sord", adaptiveVariants(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	evals, sum, err := pipeline.SweepAdaptive(ctx, w, all, nil, adaptiveAxes(),
		explore.AdaptiveOptions{Seed: 1, OnRound: func(explore.RoundTrace) { cancel() }})
	if evals != nil || sum != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned (%v, %v, %v)", evals, sum, err)
	}
}
