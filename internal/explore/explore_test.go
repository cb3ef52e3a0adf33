package explore_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/pipeline"
	"skope/internal/workloads"
)

// prepared caches pipeline runs across tests (preparation includes a full
// profiling execution).
var (
	prepMu   sync.Mutex
	runCache = map[string]*pipeline.Run{}
)

func prepared(t testing.TB, name string) *pipeline.Run {
	t.Helper()
	prepMu.Lock()
	defer prepMu.Unlock()
	if r, ok := runCache[name]; ok {
		return r
	}
	r, err := pipeline.PrepareByName(context.Background(), name, workloads.ScaleTest)
	if err != nil {
		t.Fatalf("prepare %s: %v", name, err)
	}
	runCache[name] = r
	return r
}

// layoutOf returns a prepared run's layout, the engine's input.
func layoutOf(t testing.TB, run *pipeline.Run) *hotspot.Layout {
	t.Helper()
	l, err := run.Layout()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestGridVariants(t *testing.T) {
	g := explore.Grid{Base: hw.BGQ(), Axes: []explore.Axis{
		{Param: "mem-bandwidth", Values: []float64{16, 32, 64}},
		{Param: "net-latency-us", Values: []float64{1, 2}},
	}}
	if g.Size() != 6 {
		t.Fatalf("Size = %d, want 6", g.Size())
	}
	vs, err := g.Variants()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 6 {
		t.Fatalf("got %d variants", len(vs))
	}
	// Odometer order: last axis fastest.
	if vs[0].MemBandwidthGBs != 16 || vs[0].NetLatencyUs != 1 {
		t.Errorf("variant 0 = bw %g lat %g", vs[0].MemBandwidthGBs, vs[0].NetLatencyUs)
	}
	if vs[1].MemBandwidthGBs != 16 || vs[1].NetLatencyUs != 2 {
		t.Errorf("variant 1 = bw %g lat %g", vs[1].MemBandwidthGBs, vs[1].NetLatencyUs)
	}
	if vs[2].MemBandwidthGBs != 32 || vs[2].NetLatencyUs != 1 {
		t.Errorf("variant 2 = bw %g lat %g", vs[2].MemBandwidthGBs, vs[2].NetLatencyUs)
	}
	want := "BG/Q[mem-bandwidth=16 net-latency-us=2]"
	if vs[1].Name != want {
		t.Errorf("variant 1 name = %q, want %q", vs[1].Name, want)
	}
	// The base machine must not be mutated.
	if base := hw.BGQ(); vs[5].MemBandwidthGBs == base.MemBandwidthGBs && base.MemBandwidthGBs == 64 {
		t.Error("base machine mutated by grid")
	}
	for _, v := range vs {
		if err := v.Validate(); err != nil {
			t.Errorf("variant %s invalid: %v", v.Name, err)
		}
	}
}

func TestGridZeroAxes(t *testing.T) {
	g := explore.Grid{Base: hw.XeonE5()}
	vs, err := g.Variants()
	if err != nil || len(vs) != 1 || g.Size() != 1 {
		t.Fatalf("zero-axis grid: %d variants (size %d), err %v", len(vs), g.Size(), err)
	}
	if vs[0].Name != hw.XeonE5().Name {
		t.Errorf("zero-axis variant renamed to %q", vs[0].Name)
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := (&explore.Grid{}).Variants(); err == nil {
		t.Error("nil base accepted")
	}
	g := explore.Grid{Base: hw.BGQ(), Axes: []explore.Axis{{Param: "warp-factor", Values: []float64{9}}}}
	if _, err := g.Variants(); err == nil {
		t.Error("unknown parameter accepted")
	}
	g = explore.Grid{Base: hw.BGQ(), Axes: []explore.Axis{{Param: "mem-bandwidth"}}}
	if _, err := g.Variants(); err == nil {
		t.Error("empty axis accepted")
	}
}

func TestParseAxis(t *testing.T) {
	ax, err := explore.ParseAxis("mem-bandwidth=16, 32,64")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Param != "mem-bandwidth" || len(ax.Values) != 3 || ax.Values[1] != 32 {
		t.Errorf("parsed %+v", ax)
	}
	for _, bad := range []string{"", "mem-bandwidth", "mem-bandwidth=", "=1,2", "nope=1", "mem-bandwidth=1,x"} {
		if _, err := explore.ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) accepted", bad)
		}
	}
}

func TestParamNamesCoverHelp(t *testing.T) {
	names := explore.ParamNames()
	help := explore.ParamHelp()
	if len(names) == 0 || len(names) != len(help) {
		t.Fatalf("%d names, %d help lines", len(names), len(help))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate parameter %q", n)
		}
		seen[n] = true
	}
}

// TestParamHelpMarksRefusedAxes: exactly the axes CheckModeled refuses
// carry its reason in their help line.
func TestParamHelpMarksRefusedAxes(t *testing.T) {
	refused := 0
	for _, line := range explore.ParamHelp() {
		name := strings.Fields(line)[0]
		err := explore.CheckModeled(explore.Axis{Param: name})
		_, reason, marked := strings.Cut(line, " [refused: ")
		switch {
		case err == nil && marked:
			t.Errorf("%s is modeled but its help is marked refused: %q", name, line)
		case err != nil && !marked:
			t.Errorf("%s is refused but its help does not say so: %q", name, line)
		case err != nil:
			refused++
			if !strings.HasSuffix(err.Error(), ": "+strings.TrimSuffix(reason, "]")) {
				t.Errorf("%s: help %q does not give the refusal's reason: %v", name, line, err)
			}
		}
	}
	if refused != 5 {
		t.Errorf("%d refused axes, want 5", refused)
	}
}

// TestSweepMatchesAnalyze: swept results must be bit-identical to
// hotspot.Analyze results, across all five workloads, in two successive
// sweeps on one engine.
func TestSweepMatchesAnalyze(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := prepared(t, name)
			g := explore.Grid{Base: hw.BGQ(), Axes: []explore.Axis{
				{Param: "mem-bandwidth", Values: []float64{14, 28}},
				{Param: "net-latency-us", Values: []float64{1, 2.5, 5}},
			}}
			variants, err := g.Variants()
			if err != nil {
				t.Fatal(err)
			}
			eng := explore.New(layoutOf(t, run))
			// Two passes: the second must agree with the first (and
			// with hotspot.Analyze).
			for pass := 0; pass < 2; pass++ {
				analyses, err := sweep(context.Background(), eng, variants)
				if err != nil {
					t.Fatal(err)
				}
				for i, a := range analyses {
					fresh, err := hotspot.Analyze(context.Background(), run.BET, hw.NewModel(variants[i]), run.Libs)
					if err != nil {
						t.Fatal(err)
					}
					if a.TotalTime != fresh.TotalTime {
						t.Fatalf("pass %d variant %d: TotalTime %v != fresh %v",
							pass, i, a.TotalTime, fresh.TotalTime)
					}
					if len(a.Blocks) != len(fresh.Blocks) {
						t.Fatalf("pass %d variant %d: %d blocks != fresh %d",
							pass, i, len(a.Blocks), len(fresh.Blocks))
					}
					for j, b := range a.Blocks {
						fb := fresh.Blocks[j]
						if b.BlockID != fb.BlockID {
							t.Fatalf("variant %d rank %d: %s != %s", i, j, b.BlockID, fb.BlockID)
						}
						if b.Tc != fb.Tc || b.Tm != fb.Tm || b.To != fb.To || b.T != fb.T {
							t.Fatalf("variant %d block %s: times (%v %v %v %v) != fresh (%v %v %v %v)",
								i, b.BlockID, b.Tc, b.Tm, b.To, b.T, fb.Tc, fb.Tm, fb.To, fb.T)
						}
						if b.MemoryBound != fb.MemoryBound {
							t.Fatalf("variant %d block %s: MemoryBound %v != %v",
								i, b.BlockID, b.MemoryBound, fb.MemoryBound)
						}
					}
				}
			}
		})
	}
}

// TestSweepIsolatesFailures: a sweep containing one invalid machine (zero
// memory bandwidth) and one panic-injected variant must still complete,
// attribute both failures to their variants, and return analyses for every
// healthy variant that match an uncached hotspot.Analyze bit for bit.
func TestSweepIsolatesFailures(t *testing.T) {
	run := prepared(t, "srad")
	var variants []*hw.Machine
	for i := 0; i < 20; i++ {
		m := hw.BGQ()
		m.Name = fmt.Sprintf("v%d", i)
		m.NetLatencyUs = float64(i + 1)
		variants = append(variants, m)
	}
	variants[7].MemBandwidthGBs = 0 // fails hw.Machine.Validate
	disarm := guard.Arm("explore.evaluate", func(detail string) {
		if detail == "v13" {
			panic("injected fault")
		}
	})
	t.Cleanup(disarm)

	eng := explore.New(layoutOf(t, run), explore.Workers(4))
	before := runtime.NumGoroutine()
	analyses, err := sweep(context.Background(), eng, variants)
	var sweepErr *explore.SweepError
	if !errors.As(err, &sweepErr) {
		t.Fatalf("Sweep error = %v, want *SweepError", err)
	}
	if len(sweepErr.Variants) != 2 {
		t.Fatalf("failures = %d, want 2: %v", len(sweepErr.Variants), sweepErr)
	}
	if v := sweepErr.Variants[0]; v.Index != 7 || !strings.Contains(v.Error(), "v7") ||
		!strings.Contains(v.Error(), "bandwidth") {
		t.Errorf("first failure not attributed to the invalid machine: %v", v)
	}
	if v := sweepErr.Variants[1]; v.Index != 13 || !strings.Contains(v.Error(), "v13") ||
		!errors.Is(v, guard.ErrPanic) {
		t.Errorf("second failure not a recovered panic on v13: %v", v)
	}
	if len(analyses) != len(variants) {
		t.Fatalf("got %d analysis slots, want %d", len(analyses), len(variants))
	}
	for i, a := range analyses {
		if i == 7 || i == 13 {
			if a != nil {
				t.Errorf("variant %d: failed variant has a non-nil analysis", i)
			}
			continue
		}
		if a == nil {
			t.Fatalf("variant %d: healthy variant missing from degraded sweep", i)
		}
		fresh, err := hotspot.Analyze(context.Background(), run.BET, hw.NewModel(variants[i]), run.Libs)
		if err != nil {
			t.Fatal(err)
		}
		if a.TotalTime != fresh.TotalTime {
			t.Errorf("variant %d: TotalTime %v != fresh %v", i, a.TotalTime, fresh.TotalTime)
		}
	}
	waitForGoroutines(t, before)
}

// TestModelPanicFailsOnlyItsVariant: the first model construction of a
// sweep on eight workers panics. Only the variant that ran it fails, with
// guard.ErrPanic, and every other analysis is bit-identical to
// hotspot.Analyze.
func TestModelPanicFailsOnlyItsVariant(t *testing.T) {
	run := prepared(t, "sord")
	variants := streamVariants(64)
	var calls atomic.Int64
	model := func(m *hw.Machine) *hw.Model {
		if calls.Add(1) == 1 {
			panic("injected model fault")
		}
		return hw.NewModel(m)
	}
	eng := explore.New(layoutOf(t, run), explore.Workers(8), explore.ModelFunc(model))
	analyses, err := sweep(context.Background(), eng, variants)
	var sweepErr *explore.SweepError
	if !errors.As(err, &sweepErr) || len(sweepErr.Variants) != 1 {
		t.Fatalf("Sweep error = %v, want a *SweepError with one failed variant", err)
	}
	failed := sweepErr.Variants[0]
	if !errors.Is(failed, guard.ErrPanic) {
		t.Errorf("failed variant %d: %v, want a recovered panic", failed.Index, failed)
	}
	for i, a := range analyses {
		if i == failed.Index {
			if a != nil {
				t.Errorf("variant %d failed but has an analysis", i)
			}
			continue
		}
		if a == nil {
			t.Fatalf("variant %d: healthy variant missing", i)
		}
		fresh, err := hotspot.Analyze(context.Background(), run.BET, hw.NewModel(variants[i]), run.Libs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hotspot.EncodeAnalysis(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := hotspot.EncodeAnalysis(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("variant %d: analysis differs from hotspot.Analyze", i)
		}
	}
}

// TestSweepCancellation: a canceled sweep must return promptly, report the
// context's error through the %w chain, and leak no goroutines.
func TestSweepCancellation(t *testing.T) {
	run := prepared(t, "sord")
	var variants []*hw.Machine
	for i := 0; i < 2000; i++ {
		m := hw.BGQ()
		m.Name = fmt.Sprintf("v%d", i)
		m.NetLatencyUs = float64(i + 1)
		variants = append(variants, m)
	}
	eng := explore.New(layoutOf(t, run), explore.Workers(2))
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	results, wait := eng.Stream(ctx, variants)
	// Take a few results, then cancel mid-sweep.
	for i := 0; i < 3; i++ {
		if _, ok := <-results; !ok {
			t.Fatal("stream closed early")
		}
	}
	cancel()
	start := time.Now()
	for range results {
		// drain whatever was in flight
	}
	err := wait()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("canceled sweep took %v to stop", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("wait() = %v, want wrapped context.Canceled", err)
	}
	waitForGoroutines(t, before)
}

func TestSweepPreCanceledContext(t *testing.T) {
	run := prepared(t, "sord")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := explore.New(layoutOf(t, run))
	before := runtime.NumGoroutine()
	if _, err := sweep(ctx, eng, []*hw.Machine{hw.BGQ(), hw.XeonE5()}); !errors.Is(err, context.Canceled) {
		t.Errorf("Sweep = %v, want wrapped context.Canceled", err)
	}
	waitForGoroutines(t, before)
}

// TestBoundedPool1000Variants drives a 1000-variant sord sweep through a
// small pool and asserts the pool stays bounded: the peak goroutine count
// during the sweep must not scale with the variant count.
func TestBoundedPool1000Variants(t *testing.T) {
	run := prepared(t, "sord")
	g := explore.Grid{Base: hw.BGQ(), Axes: []explore.Axis{
		{Param: "net-latency-us", Values: seq(1, 100)},
		{Param: "net-bandwidth", Values: seq(1, 10)},
	}}
	variants, err := g.Variants()
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 1000 {
		t.Fatalf("grid produced %d variants", len(variants))
	}
	before := runtime.NumGoroutine()
	peak := 0
	eng := explore.New(layoutOf(t, run),
		explore.Workers(4),
		explore.OnProgress(func(p explore.Progress) {
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}))
	analyses, err := sweep(context.Background(), eng, variants)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range analyses {
		if a == nil || a.TotalTime <= 0 {
			t.Fatalf("variant %d missing", i)
		}
	}
	// 4 workers + closer + test overhead; anything near 1000
	// means per-variant goroutines came back.
	if peak > before+16 {
		t.Errorf("goroutine peak %d (baseline %d): pool not bounded", peak, before)
	}
	waitForGoroutines(t, before)
}

func TestBestAndPareto(t *testing.T) {
	mk := func(name string, bw float64) *hw.Machine {
		m := hw.BGQ()
		m.Name = name
		m.MemBandwidthGBs = bw
		return m
	}
	variants := []*hw.Machine{mk("a", 10), mk("b", 20), mk("c", 30), mk("d", 40)}
	analyses := []*hotspot.Analysis{
		{TotalTime: 4}, // a: cheap, slow
		{TotalTime: 2}, // b: mid cost, fast — frontier
		{TotalTime: 3}, // c: more cost, slower than b — dominated
		{TotalTime: 1}, // d: most cost, fastest — frontier
	}
	if got := explore.Best(analyses); got != 3 {
		t.Errorf("Best = %d, want 3", got)
	}
	cost := func(m *hw.Machine) float64 { return m.MemBandwidthGBs }
	front := explore.Pareto(variants, analyses, cost)
	var names []string
	for _, p := range front {
		names = append(names, p.Machine.Name)
	}
	if got := strings.Join(names, ","); got != "a,b,d" {
		t.Errorf("frontier = %s, want a,b,d", got)
	}
	if explore.Best(nil) != -1 {
		t.Error("Best(nil) != -1")
	}
	if len(explore.Pareto(nil, nil, cost)) != 0 {
		t.Error("Pareto(nil) not empty")
	}
}

// TestNonFiniteTotalNeverWins: a variant whose projected total is NaN or
// infinite is never the best variant, never on the Pareto frontier, and
// ranks after every finite one, wherever it sits in the input. Cost rises
// with the index.
func TestNonFiniteTotalNeverWins(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name      string
		times     []float64
		best      int
		frontier  []int
		rankOrder []int
	}{
		{"nan-first", []float64{nan, 2, 1}, 2, []int{1, 2}, []int{2, 1, 0}},
		{"nan-last", []float64{2, 1, nan}, 1, []int{0, 1}, []int{1, 0, 2}},
		{"inf-first", []float64{inf, 2, 1}, 2, []int{1, 2}, []int{2, 1, 0}},
		{"minus-inf-last", []float64{2, 1, -inf}, 1, []int{0, 1}, []int{1, 0, 2}},
		{"none-finite", []float64{nan, inf, -inf}, -1, nil, []int{0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			variants := make([]*hw.Machine, len(tc.times))
			analyses := make([]*hotspot.Analysis, len(tc.times))
			order := make([]int, len(tc.times))
			for i, v := range tc.times {
				variants[i] = hw.BGQ()
				variants[i].MemBandwidthGBs = float64(i + 1)
				analyses[i] = &hotspot.Analysis{TotalTime: v}
				order[i] = i
			}
			if got := explore.Best(analyses); got != tc.best {
				t.Errorf("Best = %d, want %d", got, tc.best)
			}
			var front []int
			for _, p := range explore.Pareto(variants, analyses, func(m *hw.Machine) float64 { return m.MemBandwidthGBs }) {
				front = append(front, p.Index)
			}
			if !slices.Equal(front, tc.frontier) {
				t.Errorf("frontier = %v, want %v", front, tc.frontier)
			}
			sort.SliceStable(order, func(a, b int) bool {
				return explore.RanksAhead(tc.times[order[a]], tc.times[order[b]])
			})
			if !slices.Equal(order, tc.rankOrder) {
				t.Errorf("ranked = %v, want %v", order, tc.rankOrder)
			}
		})
	}
}

func seq(start float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)
	}
	return out
}

// waitForGoroutines polls until the goroutine count settles back to the
// baseline (small slack for runtime/test goroutines).
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}
