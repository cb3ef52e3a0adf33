package pipeline

import (
	"context"
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
