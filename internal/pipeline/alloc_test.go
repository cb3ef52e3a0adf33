package pipeline

import (
	"context"
	"testing"

	"skope/internal/explore"
	"skope/internal/hw"
	"skope/internal/workloads"
)

// maxSweepAllocsPerVariant bounds what a sweep allocates per variant: the
// model, the analysis and its two block slices, the Eval, the selection
// and its spots.
const maxSweepAllocsPerVariant = 7.2

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
