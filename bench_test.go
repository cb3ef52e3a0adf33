package skope_test

import (
	"context"
	"sync"
	"testing"

	"skope/internal/bst"
	"skope/internal/core"
	"skope/internal/experiments"
	"skope/internal/expr"
	"skope/internal/hotpath"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/interp"
	"skope/internal/libmodel"
	"skope/internal/minilang"
	"skope/internal/pipeline"
	"skope/internal/report"
	"skope/internal/sim"
	"skope/internal/skeleton"
	"skope/internal/translate"
	"skope/internal/workloads"
)

// benchCtx is a shared experiment context; the expensive profiling and
// simulation passes run once and are reused, so each benchmark measures the
// artifact regeneration itself.
var (
	benchCtx     *experiments.Context
	benchCtxOnce sync.Once
)

func ctx(b *testing.B) *experiments.Context {
	b.Helper()
	benchCtxOnce.Do(func() {
		benchCtx = experiments.NewContext(workloads.ScaleTest)
		// Warm every evaluation the experiments touch.
		for _, name := range workloads.Names() {
			for _, mach := range []string{"bgq", "xeon"} {
				if _, err := benchCtx.Eval(name, mach); err != nil {
					panic(err)
				}
			}
		}
	})
	return benchCtx
}

// BenchmarkFig2PedagogicalBET regenerates the Figure 2 artifact: skeleton,
// BST, and BET of the pedagogical example.
func BenchmarkFig2PedagogicalBET(b *testing.B) {
	c := ctx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3HotPathMerge regenerates Figure 3: per-spot back-traces and
// the merged hot path.
func BenchmarkFig3HotPathMerge(b *testing.B) {
	c := ctx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1HotSpots regenerates Table I (top-10 Prof vs Modl for all
// five benchmarks on both machines).
func BenchmarkTable1HotSpots(b *testing.B) {
	c := ctx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2CFD regenerates Table II (CFD top-10).
func BenchmarkTable2CFD(b *testing.B) {
	c := ctx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4SORDQuality regenerates Figure 4 (SORD selection quality
// incl. cross-machine portability) and reports the model's quality.
func BenchmarkFig4SORDQuality(b *testing.B) {
	c := ctx(b)
	ev, err := c.Eval("sord", "bgq")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ev.Quality, "quality")
}

// BenchmarkFig5SORDXeon regenerates Figure 5 (SORD coverage curves, Xeon).
func BenchmarkFig5SORDXeon(b *testing.B) {
	benchSeries(b, experiments.Fig5)
}

// BenchmarkFig6Breakdown regenerates Figure 6 (SORD Tc/Tm/overlap on BG/Q).
func BenchmarkFig6Breakdown(b *testing.B) {
	benchTable(b, experiments.Fig6)
}

// BenchmarkFig7BreakdownXeon regenerates Figure 7 (same on Xeon).
func BenchmarkFig7BreakdownXeon(b *testing.B) {
	benchTable(b, experiments.Fig7)
}

// BenchmarkFig8IssueRate regenerates Figure 8 (measured issue rate and
// instructions per L1 miss).
func BenchmarkFig8IssueRate(b *testing.B) {
	benchTable(b, experiments.Fig8)
}

// BenchmarkFig9HotPath regenerates Figure 9 (SORD hot path on BG/Q).
func BenchmarkFig9HotPath(b *testing.B) {
	c := ctx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10CFD regenerates Figure 10 (CFD coverage curves).
func BenchmarkFig10CFD(b *testing.B) { benchSeries(b, experiments.Fig10) }

// BenchmarkFig11SRAD regenerates Figure 11 (SRAD coverage curves).
func BenchmarkFig11SRAD(b *testing.B) { benchSeries(b, experiments.Fig11) }

// BenchmarkFig12CHARGEI regenerates Figure 12 (CHARGEI coverage curves).
func BenchmarkFig12CHARGEI(b *testing.B) { benchSeries(b, experiments.Fig12) }

// BenchmarkFig13STASSUIJ regenerates Figure 13 (STASSUIJ coverage curves).
func BenchmarkFig13STASSUIJ(b *testing.B) { benchSeries(b, experiments.Fig13) }

// BenchmarkBETSize regenerates the §IV-B BET-size table and reports the
// average size ratio (paper: 0.88).
func BenchmarkBETSize(b *testing.B) {
	c := ctx(b)
	run, err := c.Run("sord")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BETSizes(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(run.BET.SizeRatio(), "size-ratio")
}

// BenchmarkSelectionQualityAll regenerates the all-cases quality summary
// (paper: average 0.958, min 0.80) and reports the average.
func BenchmarkSelectionQualityAll(b *testing.B) {
	c := ctx(b)
	sum, n := 0.0, 0
	for _, name := range workloads.Names() {
		for _, mach := range []string{"bgq", "xeon"} {
			ev, err := c.Eval(name, mach)
			if err != nil {
				b.Fatal(err)
			}
			sum += ev.Quality
			n++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.QualitySummary(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sum/float64(n), "avg-quality")
}

// BenchmarkAblations regenerates the error-source ablation table (division
// latency and vectorization model extensions).
func BenchmarkAblations(b *testing.B) {
	benchTable(b, experiments.Ablations)
}

// BenchmarkHitRateSensitivity regenerates the cache-hit-assumption sweep
// (extension of the paper's §V-A footnote).
func BenchmarkHitRateSensitivity(b *testing.B) {
	benchSeries(b, experiments.HitRateSensitivity)
}

// BenchmarkFutureProjection regenerates the conceptual-machine projection
// (the paper's headline use case: no measurement is possible).
func BenchmarkFutureProjection(b *testing.B) {
	benchTable(b, experiments.FutureProjection)
}

// BenchmarkBETConstruction measures raw BET construction for each
// benchmark's translated skeleton — the paper's "analysis in minutes"
// claim; here it is micro- to milliseconds.
func BenchmarkBETConstruction(b *testing.B) {
	c := ctx(b)
	for _, name := range workloads.Names() {
		run, err := c.Run(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(context.Background(), run.Tree, run.Skeleton.Input, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyze measures roofline characterization plus hot-spot
// selection over a built BET.
func BenchmarkAnalyze(b *testing.B) {
	c := ctx(b)
	libs, err := libmodel.Default()
	if err != nil {
		b.Fatal(err)
	}
	model := hw.NewModel(hw.BGQ())
	for _, name := range workloads.Names() {
		run, err := c.Run(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := hotspot.Analyze(context.Background(), run.BET, model, libs)
				if err != nil {
					b.Fatal(err)
				}
				sel := hotspot.Select(a, hotspot.ScaledCriteria())
				hotpath.Extract(run.BET.Root, sel.Spots)
			}
		})
	}
}

// BenchmarkModelInputInvariance demonstrates the paper's core scaling
// property: BET construction time does not grow with the input size (the
// loop bounds change by six orders of magnitude; the work does not).
func BenchmarkModelInputInvariance(b *testing.B) {
	prog, _ := workloads.Pedagogical()
	tree := mustBST(prog)
	for _, n := range []float64{1e3, 1e6, 1e9} {
		input := expr.Env{"n": n, "m": n}
		b.Run(expr.Const(n).String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(context.Background(), tree, input, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulator measures the validation substrate itself: a full
// timing simulation of SORD on BG/Q (the expensive path the analytical
// model avoids).
func BenchmarkSimulator(b *testing.B) {
	c := ctx(b)
	run, err := c.Run("sord")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), run.Prog, hw.BGQ(), &sim.Options{Seed: run.Workload.Seed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullPipeline measures the complete machine-independent pipeline
// (parse, profile, translate, BET) for SORD.
func BenchmarkFullPipeline(b *testing.B) {
	w, err := workloads.Get("sord", workloads.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Prepare(context.Background(), w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkeletonParse measures the skeleton frontend on the SORD
// translation output.
func BenchmarkSkeletonParse(b *testing.B) {
	c := ctx(b)
	run, err := c.Run("sord")
	if err != nil {
		b.Fatal(err)
	}
	text := run.Skeleton.Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := skeleton.Parse("bench", text); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTable(b *testing.B, f func(*experiments.Context) (tabler, error)) {
	b.Helper()
	c := ctx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f(c); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSeries(b *testing.B, f func(*experiments.Context) (serieser, error)) {
	b.Helper()
	c := ctx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f(c); err != nil {
			b.Fatal(err)
		}
	}
}

type tabler = *report.Table
type serieser = *report.Series

// BenchmarkTranslate measures the source-to-source translation (minilang ->
// skeleton) of SORD, including skeleton re-parse and validation.
func BenchmarkTranslate(b *testing.B) {
	c := ctx(b)
	run, err := c.Run("sord")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.Translate(run.Prog, run.Profile); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreter measures raw interpreter throughput (statements per
// second) on the CHARGEI workload without any observer cost.
func BenchmarkInterpreter(b *testing.B) {
	w, err := workloads.Get("chargei", workloads.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	prog := mustProgram(w.Name, w.Source)
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		e, err := interp.New(prog, &interp.Options{Seed: w.Seed})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		steps = e.Steps()
	}
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "stmts/s")
}

// BenchmarkCommScalingProjection measures the multi-node strong-scaling
// sweep (the paper's future-work extension): ten rank counts, each a fresh
// BET build plus analysis, no simulation.
func BenchmarkCommScalingProjection(b *testing.B) {
	prog := skeleton.MustParse("mpi", `
def main(nx, ny, nz, ranks, nt)
  set planes = nz / ranks
  for t = 0 : nt label="time"
    for k = 0 : planes label="kloop"
      comp flops=30*ny*nx loads=8*ny*nx stores=2*ny*nx name="stencil"
    end
    comm bytes=4*ny*nx*8 msgs=4 name="halo"
  end
end
`)
	tree := mustBST(prog)
	model := hw.NewModel(hw.BGQ())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ranks := range []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512} {
			bet, err := core.Build(context.Background(), tree, expr.Env{
				"nx": 256, "ny": 256, "nz": 512, "ranks": ranks, "nt": 50,
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := hotspot.Analyze(context.Background(), bet, model, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEvaluateManyParallel measures the concurrent two-machine
// evaluation against its sequential equivalent (BenchmarkTable1-style work).
func BenchmarkEvaluateManyParallel(b *testing.B) {
	c := ctx(b)
	run, err := c.Run("srad")
	if err != nil {
		b.Fatal(err)
	}
	machines := []*hw.Machine{hw.BGQ(), hw.XeonE5()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.EvaluateMany(context.Background(), run, machines, pipeline.WithCriteria(hotspot.ScaledCriteria())); err != nil {
			b.Fatal(err)
		}
	}
}

// mustProgram parses and checks a minilang program, panicking on error.
func mustProgram(name, src string) *minilang.Program {
	prog, err := minilang.Parse(name, src)
	if err == nil {
		err = minilang.Check(prog)
	}
	if err != nil {
		panic(err)
	}
	return prog
}

// mustBST builds the BST of prog, panicking on error.
func mustBST(prog *skeleton.Program) *bst.Tree {
	tree, err := bst.Build(prog)
	if err != nil {
		panic(err)
	}
	return tree
}
