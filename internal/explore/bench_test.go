package explore_test

import (
	"context"
	"sync"
	"testing"

	"skope/internal/explore"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/pipeline"
)

// benchVariants builds a 1000-variant sord sweep: 4 DRAM bandwidths times
// 250 network latencies.
func benchVariants(b *testing.B) []*hw.Machine {
	g := explore.Grid{Base: hw.BGQ(), Axes: []explore.Axis{
		{Param: "mem-bandwidth", Values: []float64{14, 28, 56, 112}},
		{Param: "net-latency-us", Values: seq(1, 250)},
	}}
	variants, err := g.Variants()
	if err != nil {
		b.Fatal(err)
	}
	if len(variants) != 1000 {
		b.Fatalf("grid produced %d variants", len(variants))
	}
	return variants
}

// BenchmarkExploreSweep compares the exploration engine, which projects
// every variant onto one layout, against hotspot.Analyze per variant,
// which rebuilds the layout each time, over the same 1000-variant design
// space.
func BenchmarkExploreSweep(b *testing.B) {
	run := prepared(b, "sord")
	variants := benchVariants(b)

	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := explore.New(layoutOf(b, run))
			analyses, err := sweep(context.Background(), eng, variants)
			if err != nil {
				b.Fatal(err)
			}
			if len(analyses) != len(variants) {
				b.Fatal("short sweep")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range variants {
				if err := m.Validate(); err != nil {
					b.Fatal(err)
				}
				if _, err := hotspot.Analyze(context.Background(), run.BET, hw.NewModel(m), run.Libs); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// parityBest caches the exhaustive optimum of the parity grid, computed
// once outside any timed region so the adaptive sub-benchmark can assert
// correctness without paying for the reference sweep.
var (
	parityBestOnce sync.Once
	parityBestIdx  int
)

func parityBest(b *testing.B, variants []*hw.Machine) int {
	b.Helper()
	parityBestOnce.Do(func() {
		run := prepared(b, "sord")
		eng := explore.New(layoutOf(b, run))
		analyses, err := sweep(context.Background(), eng, variants)
		if err != nil {
			b.Fatal(err)
		}
		parityBestIdx = explore.Best(analyses)
	})
	return parityBestIdx
}

// BenchmarkAdaptiveVsExhaustive measures evals-to-optimum on the
// 600-variant parity grid: the exhaustive sweep pays for every variant,
// the surrogate-guided search for a few rounds. Both sub-benchmarks
// report an evals/op metric (the pinned comparison lives in
// BENCH_adaptive.json); the adaptive one also asserts it found the exact
// exhaustive optimum, so running it with -benchtime 1x doubles as a
// parity smoke. Both sides run the front ends' sweep functions
// (pipeline.SweepCached and pipeline.SweepAdaptive), so each op also
// prepares the workload and evaluates the base machine.
func BenchmarkAdaptiveVsExhaustive(b *testing.B) {
	variants := parityVariants(b)
	axes := parityAxes()
	w, all := adaptiveInputs(b, "sord", variants)

	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			evals, _, err := pipeline.SweepCached(context.Background(), w, all, nil)
			if err != nil {
				b.Fatal(err)
			}
			if explore.Best(gridAnalyses(evals)) < 0 {
				b.Fatal("no best variant")
			}
		}
		b.ReportMetric(float64(len(variants)), "evals/op")
	})
	b.Run("adaptive", func(b *testing.B) {
		want := parityBest(b, variants)
		b.ResetTimer()
		evals := 0
		for i := 0; i < b.N; i++ {
			got, sum, err := pipeline.SweepAdaptive(context.Background(), w, all, nil, axes,
				explore.AdaptiveOptions{Seed: 42, MaxEvals: len(variants) * 5 / 100})
			if err != nil {
				b.Fatal(err)
			}
			if best := explore.Best(gridAnalyses(got)); best != want {
				b.Fatalf("adaptive optimum %d, exhaustive says %d", best, want)
			}
			// The search's spend; the base machine is not part of it.
			evals = sum.Adaptive.Evals
		}
		b.ReportMetric(float64(evals), "evals/op")
	})
}
