// Command skope runs the analytical co-design pipeline on one benchmark:
// it profiles the workload locally, translates it into a SKOPE-style code
// skeleton, builds the Bayesian Execution Tree, projects per-block
// performance on a target machine with the extended roofline model, and
// reports hot spots, bottleneck breakdowns and the hot path. With
// -validate it additionally runs the machine timing simulator and reports
// the selection quality against the measured profile. With -sweep it
// switches to design-space exploration: the flag (repeatable) spans a grid
// of machine variants around the base machine, evaluated analytically
// through the bounded, memoizing exploration engine. Every sweep, adaptive
// or exhaustive, evaluates the base machine as one more variant —
// journaled, cached and held to the -min-confidence floor like the grid —
// and every speedup is relative to it.
//
// Usage:
//
//	skope -bench sord -machine bgq [-scale 1] [-show all] [-validate]
//	skope -source app.ml -machine xeon -validate     # your own minilang file
//	skope -bench sord -machine bgq -sweep mem-bandwidth=16,32,64 -sweep net-latency-us=1,2,4
//
// Long-running sweeps can be made durable and fault-tolerant:
//
//	skope -bench sord -sweep mem-bandwidth=16,32,64 -journal sweep.journal \
//	      -retries 3 -variant-timeout 30s
//	skope -bench sord -sweep mem-bandwidth=16,32,64 -journal sweep.journal -resume
//
// -journal appends every completed variant to a crash-safe journal
// (fsync per record); -resume replays the journaled variants of an
// interrupted sweep bit-identically instead of recomputing them.
// -retries re-attempts transiently failing variants with exponential
// backoff, and -variant-timeout bounds each attempt.
//
// -store goes further than the per-sweep journal: it names a
// content-addressed result store shared across runs, processes, and the
// skoped daemon. Results are keyed by what they are — workload model
// fingerprint × machine fingerprint × evaluation settings — so repeating a
// sweep over the same grid is served entirely from the store: the workload
// is not even re-prepared (no parsing, no profiling, no model
// construction), and the served results are bit-identical to the computed
// ones.
//
//	skope -bench sord -sweep mem-bandwidth=16,32,64 -store results.cas
//	skope -bench sord -sweep mem-bandwidth=16,32,64 -store results.cas   # zero recomputation
//
// A sweep runs in this one process.
//
// -adaptive switches the sweep from exhaustive to surrogate-guided
// search: a deterministic seed sample bootstraps an online least-squares
// surrogate over the grid axes, and each round spends evaluations only on
// the unevaluated variants the surrogate ranks most promising, stopping
// once the incumbent optimum survives two rounds unimproved. On the
// workload suite this finds the exhaustive optimum with ≤5% of the
// evaluations (the parity tests enforce it). Every evaluation still runs
// the exact engine — the surrogate only chooses what to evaluate — and
// journal, store, retries and confidence floors compose unchanged:
//
//	skope -bench sord -sweep freq-ghz=1,1.5,2,2.5 -sweep mem-bandwidth=16,32,64 \
//	      -sweep hit-l1=0.90,0.95,0.99 -adaptive -adaptive-budget 50 -adaptive-seed 7
//
// Exhaustive mode stays the default and the golden reference.
//
// -lenient switches the frontend and model construction into
// error-recovering mode: syntax errors drop the offending statement,
// missing branch probabilities and trip counts fall back to documented
// priors, and every substitution is reported as a diagnostic alongside a
// confidence score. -min-confidence sets a floor below which sweep
// variants are flagged instead of ranked; a sweep whose base machine falls
// below it fails, since its speedups would have no baseline.
//
// Exit codes: 0 on a clean run, 1 on failure, 3 when the run completed
// but degraded — some results rest on fallback priors, recovered parses,
// or poisoned sweep variants.
//
// Benchmarks: sord, chargei, srad, cfd, stassuij.
// Machines: bgq, xeon, future.
// Sections (-show, comma separated): skeleton, bet, spots, breakdown,
// path, dot, all.
// Sweep parameters: skope -list prints the full set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"skope/internal/cliflags"
	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/journal"
	"skope/internal/pipeline"
	"skope/internal/report"
	"skope/internal/resilience"
	"skope/internal/store"
	"skope/internal/workloads"
)

func main() {
	var cfg config
	cfg.register(flag.CommandLine)
	flag.Parse()
	degraded, err := run(context.Background(), os.Stdout, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skope:", err)
		os.Exit(1)
	}
	if degraded {
		os.Exit(exitDegraded)
	}
}

// exitDegraded is the exit code of a run that completed but produced
// degraded results: fallback priors, recovered parses, or flagged sweep
// variants. Distinct from 1 so scripts can tell "usable with caveats"
// from "failed".
const exitDegraded = 3

// config carries the parsed command line. The machine, guard, criteria and
// sweep surfaces are the shared cliflags definitions — identical names and
// semantics across skope, skopec and skoped.
type config struct {
	mach cliflags.Machine
	grd  cliflags.Guard
	crit cliflags.Criteria
	sw   cliflags.Sweep

	bench, source, show string
	scale               float64
	validate, list      bool
}

func (c *config) register(fs *flag.FlagSet) {
	c.mach.Register(fs)
	c.grd.Register(fs)
	c.crit.Register(fs, 0.90, 0.50, 10)
	c.sw.Register(fs)
	fs.StringVar(&c.bench, "bench", "sord", "benchmark name (sord, chargei, srad, cfd, stassuij)")
	fs.StringVar(&c.source, "source", "", "analyze a minilang source file instead of a built-in benchmark")
	fs.Float64Var(&c.scale, "scale", 1, "workload scale factor")
	fs.StringVar(&c.show, "show", "spots,breakdown,path", "comma-separated sections: skeleton,bet,spots,breakdown,path,dot,all")
	fs.BoolVar(&c.validate, "validate", false, "also simulate the workload and report selection quality")
	fs.BoolVar(&c.list, "list", false, "list benchmarks, machine presets and sweep parameters, then exit")
}

func run(ctx context.Context, out io.Writer, cfg config) (degraded bool, err error) {
	if cfg.list {
		fmt.Fprintln(out, "benchmarks:")
		for _, n := range workloads.Names() {
			w, _ := workloads.Get(n, workloads.Scale(cfg.scale))
			fmt.Fprintf(out, "  %-10s %s\n", n, w.Description)
		}
		fmt.Fprintln(out, "machines:")
		names := make([]string, 0, len(hw.Presets()))
		for n := range hw.Presets() {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m, _ := hw.Preset(n)
			fmt.Fprintf(out, "  %-10s %s (%.2g GHz, %d-wide, %.3g GB/s)\n",
				n, m.Name, m.FreqGHz, m.IssueWidth, m.MemBandwidthGBs)
		}
		fmt.Fprintln(out, "sweep parameters (-sweep param=v1,v2,...):")
		for _, h := range explore.ParamHelp() {
			fmt.Fprintf(out, "  %s\n", h)
		}
		fmt.Fprintln(out, "guard limits (-limits key=value,...):")
		for _, h := range guard.Help() {
			fmt.Fprintf(out, "  %s\n", h)
		}
		fmt.Fprintln(out, "result store (-store file.cas):")
		fmt.Fprintln(out, "  content-addressed cache of evaluation results, shared across runs,")
		fmt.Fprintln(out, "  processes and the skoped daemon; keyed by workload model fingerprint,")
		fmt.Fprintln(out, "  machine fingerprint and evaluation settings (criteria, lenient mode,")
		fmt.Fprintln(out, "  confidence floor) — a repeated sweep is served with zero recomputation")
		return false, nil
	}
	m, err := cfg.mach.Resolve()
	if err != nil {
		return false, err
	}

	var w *workloads.Workload
	if cfg.source != "" {
		text, rerr := os.ReadFile(cfg.source)
		if rerr != nil {
			return false, rerr
		}
		w = &workloads.Workload{
			Name:        cfg.source,
			Description: "user program " + cfg.source,
			Source:      string(text),
			Seed:        1,
		}
	} else {
		w, err = workloads.Get(cfg.bench, workloads.Scale(cfg.scale))
		if err != nil {
			return false, err
		}
	}
	lim, err := cfg.grd.Resolve()
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "# %s\n\n", w.Description)

	if cfg.sw.Adaptive && len(cfg.sw.Axes) == 0 {
		return false, fmt.Errorf("-adaptive needs -sweep axes to search over")
	}

	if len(cfg.sw.Axes) > 0 {
		// A sweep prepares inside the pipeline: a fully warm store serves
		// an exhaustive sweep — preparation included — with zero
		// recomputation.
		return sweep(ctx, out, cfg, w, m, lim)
	}

	run, err := pipeline.Prepare(ctx, w,
		pipeline.WithLimits(lim), pipeline.WithLenient(cfg.grd.Lenient))
	if err != nil {
		return false, err
	}
	reportPreparation(out, run.Confidence, run.Diagnostics)

	sections := map[string]bool{}
	for _, s := range strings.Split(cfg.show, ",") {
		sections[strings.TrimSpace(s)] = true
	}
	if sections["all"] {
		for _, s := range []string{"skeleton", "bet", "spots", "breakdown", "path", "dot"} {
			sections[s] = true
		}
	}
	if sections["skeleton"] {
		fmt.Fprintln(out, "## generated code skeleton")
		fmt.Fprintln(out, run.Skeleton.Text)
	}
	if sections["bet"] {
		fmt.Fprintf(out, "## Bayesian execution tree (%d nodes, size ratio %.2f)\n\n",
			run.BET.NumNodes(), run.BET.SizeRatio())
		fmt.Fprintln(out, run.BET.Dump())
	}

	ev, err := pipeline.Evaluate(ctx, run, m, pipeline.WithCriteria(cfg.crit.Resolve()))
	if err != nil {
		return false, err
	}
	for _, d := range ev.Analysis.Diagnostics {
		fmt.Fprintln(os.Stderr, "skope: warning:", d)
	}
	if ev.Degraded() {
		degraded = true
		fmt.Fprintf(out, "## %s\n\n", report.Confidence(ev.Confidence, ev.Diagnostics))
	}

	if sections["spots"] {
		fmt.Fprintf(out, "## projected hot spots on %s (coverage %.1f%%, leanness %.1f%%)\n\n",
			m.Name, 100*ev.Selection.Coverage, 100*ev.Selection.Leanness)
		for i, s := range ev.Selection.Spots {
			bound := "compute-bound"
			if s.MemoryBound {
				bound = "memory-bound"
			}
			fmt.Fprintf(out, "%2d. %-30s %6.2f%%  x%.4g  %s\n",
				i+1, s.BlockID, 100*ev.Analysis.Coverage(s), s.Invocations, bound)
		}
		fmt.Fprintln(out)
	}
	if sections["breakdown"] {
		fmt.Fprintf(out, "## per-spot time breakdown on %s (model)\n\n", m.Name)
		fmt.Fprintf(out, "%-30s %10s %10s %10s\n", "block", "comp-only%", "overlap%", "mem-only%")
		for _, s := range ev.Analysis.TopN(10) {
			if s.T <= 0 {
				continue
			}
			fmt.Fprintf(out, "%-30s %10.1f %10.1f %10.1f\n", s.BlockID,
				100*(s.Tc-s.To)/s.T, 100*s.To/s.T, 100*(s.Tm-s.To)/s.T)
		}
		fmt.Fprintln(out)
	}
	if sections["path"] {
		fmt.Fprintln(out, "## hot path")
		fmt.Fprintln(out, ev.HotPath.Render())
	}
	if sections["dot"] {
		fmt.Fprintln(out, "## hot path (graphviz)")
		fmt.Fprintln(out, ev.HotPath.DOT())
	}
	if cfg.validate {
		fmt.Fprintf(out, "## validation against the %s timing simulator\n\n", m.Name)
		fmt.Fprintln(out, ev.Prof.String())
		fmt.Fprintf(out, "selection quality (top-10): %.3f\n", ev.Quality)
		fmt.Fprintf(out, "selection quality (criteria selection): %.3f\n", ev.SelectionQuality)
	}
	return degraded, nil
}

// sweepOptions assembles the pipeline options shared by the sweep paths.
func sweepOptions(cfg config, lim *guard.Limits) []pipeline.Option {
	return []pipeline.Option{
		pipeline.WithLimits(lim),
		pipeline.WithLenient(cfg.grd.Lenient),
		pipeline.WithCriteria(cfg.crit.Resolve()),
		pipeline.WithWorkers(cfg.sw.Workers),
		pipeline.WithRetry(resilience.DefaultPolicy(cfg.sw.Retries)),
		pipeline.WithVariantTimeout(cfg.sw.VariantTimeout),
		pipeline.WithMinConfidence(cfg.sw.MinConfidence),
	}
}

// openJournal opens the -journal file of a sweep (nil without -journal).
// An existing non-empty journal is refused without -resume before it is
// opened, because opening truncates a torn tail.
func openJournal(cfg config) (*journal.Journal, error) {
	if cfg.sw.Journal == "" {
		if cfg.sw.Resume {
			return nil, fmt.Errorf("-resume needs -journal to resume from")
		}
		return nil, nil
	}
	if !cfg.sw.Resume {
		if fi, err := os.Stat(cfg.sw.Journal); err == nil && fi.Size() > 0 {
			return nil, fmt.Errorf("journal %s already exists; pass -resume to replay it or remove the file", cfg.sw.Journal)
		}
	}
	return journal.Open(cfg.sw.Journal)
}

// tolerable reports whether a failed sweep still left usable results —
// poisoned variants, or a journal or store that stopped accepting writes —
// and warns about what was lost. Any other error voids the sweep.
func tolerable(err error) bool {
	ok := false
	var sweepErr *explore.SweepError
	if errors.As(err, &sweepErr) {
		// Degraded sweep: report the poisoned variants and continue with
		// the healthy ones rather than discarding the whole grid.
		ok = true
		for _, v := range sweepErr.Variants {
			fmt.Fprintln(os.Stderr, "skope: warning:", v)
		}
	}
	if errors.Is(err, explore.ErrJournalDegraded) || errors.Is(err, store.ErrDegraded) {
		ok = true
		fmt.Fprintln(os.Stderr, "skope: warning:", err)
	}
	return ok
}

// reportPreparation prints the preparation's diagnostics table and, when
// the preparation is degraded, its confidence line.
func reportPreparation(out io.Writer, conf float64, diags []guard.Diagnostic) {
	if tbl := report.Diagnostics("preparation diagnostics", diags); tbl != "" {
		fmt.Fprintln(out, tbl)
	}
	if conf < 1 || len(diags) > 0 {
		fmt.Fprintf(out, "preparation %s\n\n", report.Confidence(conf, diags))
	}
}

// sweep runs the design-space exploration mode: a grid of machine variants
// around the base machine, evaluated analytically (no simulation) by
// pipeline.SweepCached — or, with -adaptive, only where
// pipeline.SweepAdaptive's surrogate-guided search chooses — and reported
// as a ranked table plus the time/cost Pareto frontier. The base machine
// rides along as the last variant, so the baseline is evaluated,
// journaled, cached and held to the -min-confidence floor exactly like
// the grid. With -store, warm (workload, variant, settings) triples are
// served bit-identically from earlier runs — a fully warm exhaustive grid
// skips even the preparation — and fresh results are written through for
// the next run.
func sweep(ctx context.Context, out io.Writer, cfg config, w *workloads.Workload, base *hw.Machine, lim *guard.Limits) (degraded bool, err error) {
	axes, err := cfg.sw.Axes.Axes()
	if err != nil {
		return false, err
	}
	grid := explore.Grid{Base: base, Axes: axes}
	variants, err := grid.Variants()
	if err != nil {
		return false, err
	}
	var st *store.Store
	if cfg.sw.Store != "" {
		if st, err = store.Open(cfg.sw.Store); err != nil {
			return false, err
		}
		defer st.Close()
	}

	var last explore.Progress
	opts := append(sweepOptions(cfg, lim),
		pipeline.WithProgress(func(p explore.Progress) { last = p }))
	j, err := openJournal(cfg)
	if err != nil {
		return false, err
	}
	replayable := 0
	if j != nil {
		defer j.Close()
		// Every record found at open is a variant the sweep can replay.
		replayable = j.Len()
		opts = append(opts, pipeline.WithJournal(j))
	}

	all := append(append([]*hw.Machine{}, variants...), base)
	start := time.Now()
	var evals []*pipeline.Eval
	var sum *pipeline.SweepSummary
	if cfg.sw.Adaptive {
		evals, sum, err = pipeline.SweepAdaptive(ctx, w, all, st, axes, explore.AdaptiveOptions{
			Seed:     cfg.sw.AdaptiveSeed,
			MaxEvals: cfg.sw.AdaptiveBudget,
			OnRound: func(tr explore.RoundTrace) {
				fmt.Fprintf(out, "round %2d: %3d evals (%d/%d total)  incumbent %.4g s  surrogate R²=%.3f",
					tr.Round, tr.Evals, tr.TotalEvals, tr.GridSize, tr.IncumbentTime, tr.R2)
				if tr.Converged {
					fmt.Fprint(out, "  converged")
				}
				fmt.Fprintln(out)
			},
		}, opts...)
		fmt.Fprintln(out)
	} else {
		evals, sum, err = pipeline.SweepCached(ctx, w, all, st, opts...)
	}
	if err != nil {
		if !tolerable(err) || evals == nil {
			return false, err
		}
		degraded = true
	}
	wall := time.Since(start)

	if st == nil {
		reportPreparation(out, sum.Confidence, sum.Diagnostics)
	} else if tbl := report.Diagnostics("preparation diagnostics", sum.Diagnostics); tbl != "" {
		// A -store sweep reports a degraded preparation in its footer only.
		fmt.Fprintln(out, tbl)
	}
	baseEval := evals[len(all)-1]
	if baseEval == nil {
		return degraded, fmt.Errorf("baseline %s failed to evaluate", base.Name)
	}
	renderSweep(out, cfg, variants, evals[:len(variants)], baseEval.Analysis, w.Name, base.Name)

	if ad := sum.Adaptive; ad != nil {
		mode := "budget exhausted"
		if ad.Converged {
			mode = "converged"
		}
		fmt.Fprintf(out, "adaptive search: %d of %d evaluations (%.1f%%) in %d rounds (%s), %s wall\n",
			ad.Evals, ad.GridSize, 100*float64(ad.Evals)/float64(ad.GridSize),
			len(ad.Rounds), mode, wall.Round(time.Microsecond))
		fmt.Fprintln(out, "note: exhaustive mode (no -adaptive) remains the golden reference; the adaptive optimum is exact but only the full grid proves it global")
	} else {
		fmt.Fprintf(out, "sweep stats: %d variants in %s", len(variants), wall.Round(time.Microsecond))
		if st != nil {
			stats := st.Stats()
			fmt.Fprintf(out, ", store %s, %.1f%% served from store (%d hits / %d misses)",
				st.Path(), 100*stats.HitRate(), stats.Hits, stats.Misses)
		}
		if sum.SkippedPrepare {
			fmt.Fprint(out, ", preparation skipped (fully warm)")
		} else {
			stats := last.Cache
			fmt.Fprintf(out, ", cache hit rate %.1f%% (%d hits / %d misses)", 100*stats.HitRate(), stats.Hits, stats.Misses)
		}
		if sum.FromJournal > 0 {
			fmt.Fprintf(out, ", %d replayed from journal", sum.FromJournal)
		}
		if last.Retried > 0 {
			fmt.Fprintf(out, ", %d retries", last.Retried)
		}
		fmt.Fprintln(out)
	}
	if j != nil {
		if n, torn := j.Recovered(); n > 0 || torn {
			fmt.Fprintf(out, "journal %s: %d completed variants to replay", cfg.sw.Journal, replayable)
			if torn {
				fmt.Fprint(out, " (torn tail from an interrupted run discarded)")
			}
			fmt.Fprintln(out)
		}
	}
	if sum.Confidence < 1 || len(sum.Diagnostics) > 0 {
		degraded = true
		fmt.Fprintf(out, "sweep %s\n", report.Confidence(sum.Confidence, sum.Diagnostics))
	}
	return degraded, nil
}

// renderSweep prints the ranked variant table, the Pareto frontier, and
// the best variant — shared by the sweep paths. evals are index-aligned
// with variants; failed variants are nil and skipped.
func renderSweep(out io.Writer, cfg config, variants []*hw.Machine, evals []*pipeline.Eval, baseline *hotspot.Analysis, workload, baseName string) {
	analyses := make([]*hotspot.Analysis, len(variants))
	for i, ev := range evals {
		if ev != nil {
			analyses[i] = ev.Analysis
		}
	}
	var order []int
	for i, a := range analyses {
		if a != nil {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return analyses[order[a]].TotalTime < analyses[order[b]].TotalTime
	})
	shown := len(order)
	if cfg.sw.Top > 0 && cfg.sw.Top < shown {
		shown = cfg.sw.Top
	}
	t := &report.Table{
		Title:  fmt.Sprintf("design-space sweep: %d variants of %s on %s", len(variants), workload, baseName),
		Header: []string{"rank", "variant", "time (s)", "speedup", "top spot", "bottleneck"},
	}
	for rank, i := range order[:shown] {
		a := analyses[i]
		top := a.Blocks[0]
		bound := "compute"
		if top.MemoryBound {
			bound = "memory"
		}
		t.AddRow(rank+1, variants[i].Name,
			fmt.Sprintf("%.4g", a.TotalTime),
			fmt.Sprintf("%.2fx", baseline.TotalTime/a.TotalTime),
			top.BlockID, bound)
	}
	fmt.Fprintln(out, t)
	if shown < len(order) {
		fmt.Fprintf(out, "(showing %d of %d variants; -top 0 for all)\n", shown, len(order))
	}

	frontier := explore.Pareto(variants, analyses, explore.RelativeCost)
	fmt.Fprintln(out, "\n## Pareto frontier (projected time vs relative hardware cost)")
	for _, p := range frontier {
		fmt.Fprintf(out, "  cost %7.2f  time %.4g s  %s\n", p.Cost, p.Time, p.Machine.Name)
	}
	if best := explore.Best(analyses); best >= 0 {
		fmt.Fprintf(out, "\nbest variant: %s (%.4g s, %.2fx over %s)\n",
			variants[best].Name, analyses[best].TotalTime,
			baseline.TotalTime/analyses[best].TotalTime, baseName)
	}
}
