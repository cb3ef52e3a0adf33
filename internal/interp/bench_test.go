package interp_test

import (
	"testing"

	"skope/internal/interp"
	"skope/internal/minilang"
	"skope/internal/workloads"
)

// BenchmarkProfile times the paper's local profiling pass — New plus Run
// with the branch profiler attached — on each workload at ScaleTest. It
// reports allocations, the statements executed per run (steps) and the
// time per statement (ns/step):
//
//	go test ./internal/interp/ -run '^$' -bench BenchmarkProfile -benchmem
func BenchmarkProfile(b *testing.B) {
	for _, w := range workloads.All(workloads.ScaleTest) {
		prog, err := minilang.Parse(w.Name, w.Source)
		if err == nil {
			err = minilang.Check(prog)
		}
		if err != nil {
			b.Fatalf("%s: %v", w.Name, err)
		}
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			var steps int64
			for i := 0; i < b.N; i++ {
				e, err := interp.New(prog, &interp.Options{Observer: interp.NewProfiler(), Seed: w.Seed})
				if err == nil {
					err = e.Run()
				}
				if err != nil {
					b.Fatal(err)
				}
				steps = e.Steps()
			}
			b.ReportMetric(float64(steps), "steps")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(steps), "ns/step")
		})
	}
}
