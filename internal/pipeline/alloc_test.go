package pipeline

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"skope/internal/core"
	"skope/internal/explore"
	"skope/internal/expr"
	"skope/internal/hw"
	"skope/internal/workloads"
)

// maxSweepAllocsPerVariant bounds what a sweep allocates per variant: the
// model, the analysis and its two block slices, the selection and its
// spots. The Evals of a sweep share one slab.
const maxSweepAllocsPerVariant = 6.2

// TestSweepAllocsPerVariant sweeps each workload on one worker over a
// 2048-variant grid around BG/Q (DRAM latency 16 x FP rate 8 x clock 8 x
// L1 size 2) and bounds the allocations per variant. Allocation counts
// are deterministic, so a change that allocates more per variant fails
// here whatever the host's speed.
func TestSweepAllocsPerVariant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	steps := func(first, step float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = first + step*float64(i)
		}
		return out
	}
	g := explore.Grid{Base: hw.BGQ(), Axes: []explore.Axis{
		{Param: "mem-latency", Values: steps(60, 30, 16)},
		{Param: "fp-per-cycle", Values: steps(1, 1, 8)},
		{Param: "freq-ghz", Values: steps(1, 0.25, 8)},
		{Param: "l1-size-kb", Values: []float64{16, 32}},
	}}
	variants, err := g.Variants()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.Names() {
		run := prepared(t, name)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Sweep(context.Background(), run, variants, WithWorkers(1)); err != nil {
				t.Fatal(err)
			}
		})
		per := allocs / float64(len(variants))
		t.Logf("%s: %.3f allocations per variant", name, per)
		if per > maxSweepAllocsPerVariant {
			t.Errorf("%s: a %d-variant sweep allocates %.3f objects per variant, want at most %v",
				name, len(variants), per, maxSweepAllocsPerVariant)
		}
	}
}

// TestBuildSizeInputInvariance checks the paper's claim that the cost of
// building the BET does not depend on the input size, on the five
// workloads' skeletons: with every skeleton input scaled by 10^3 or 10^9,
// core.Build makes as many nodes, and allocates as many objects, as at
// scale 1. Allocations are counted only without the race detector.
func TestBuildSizeInputInvariance(t *testing.T) {
	for _, name := range workloads.Names() {
		run := prepared(t, name)
		var nodes []int
		var allocs []float64
		for _, scale := range []float64{1, 1e3, 1e9} {
			input := make(expr.Env, len(run.Skeleton.Input))
			for k, v := range run.Skeleton.Input {
				input[k] = v * scale
			}
			build := func() *core.BET {
				bet, err := core.Build(context.Background(), run.Tree, input, nil)
				if err != nil {
					t.Fatalf("%s at x%g: %v", name, scale, err)
				}
				return bet
			}
			nodes = append(nodes, build().NumNodes())
			if !raceEnabled {
				allocs = append(allocs, testing.AllocsPerRun(5, func() { build() }))
			}
		}
		t.Logf("%s: %v nodes, %v allocations at x1, x1e3, x1e9", name, nodes, allocs)
		if nodes[1] != nodes[0] || nodes[2] != nodes[0] {
			t.Errorf("%s: BET nodes %v at x1, x1e3, x1e9, want equal", name, nodes)
		}
		if len(allocs) > 0 && (allocs[1] != allocs[0] || allocs[2] != allocs[0]) {
			t.Errorf("%s: core.Build allocations %v at x1, x1e3, x1e9, want equal", name, allocs)
		}
	}
}

// maxPrepareAllocs bounds what preparing each workload at ScaleTest
// allocates (parsing, the profiling run, translation, the skeleton, the
// BST and the BET), about 2% above what it measures with go1.24: 8,398,
// 3,458, 2,953, 3,114 and 2,706. Most of these objects are the maps and
// strings of the parser, sema and profiler, so the counts depend on the
// toolchain's runtime: built with GOEXPERIMENT=noswissmap, which gives
// go1.24 the maps of earlier releases, the same Prepares allocate 8,211,
// 3,406, 2,926, 3,074 and 2,678. The bounds hold for prepareAllocsRelease
// alone, and the test skips under any other release.
var maxPrepareAllocs = map[string]float64{
	"sord": 8560, "chargei": 3520, "srad": 3010, "cfd": 3180, "stassuij": 2770,
}

// prepareAllocsRelease is the Go release maxPrepareAllocs was measured
// with.
const prepareAllocsRelease = "go1.24"

// TestPrepareAllocs is the deterministic twin of the cold-prepare
// benchmark: it prepares each workload at ScaleTest and bounds the
// allocations of one Prepare. A warm-up Prepare runs first, because libmodel
// calibrates once per process. The profiling run's steps need no bound of
// their own: the event golden pins them per workload, and the profiler
// path is held to the full stream.
func TestPrepareAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	if v := runtime.Version(); !strings.HasPrefix(v, prepareAllocsRelease+".") {
		t.Skipf("the bounds were measured with %s, not %s", prepareAllocsRelease, v)
	}
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name, workloads.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		prepare := func() {
			if _, err := Prepare(context.Background(), w); err != nil {
				t.Fatalf("prepare %s: %v", name, err)
			}
		}
		prepare()
		allocs := testing.AllocsPerRun(3, prepare)
		t.Logf("%s: %.0f allocations per Prepare", name, allocs)
		if allocs > maxPrepareAllocs[name] {
			t.Errorf("%s: Prepare allocates %.0f objects, want at most %.0f", name, allocs, maxPrepareAllocs[name])
		}
	}
}
