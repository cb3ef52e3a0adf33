// Package pipeline wires the full workflow of the paper's Figure 1: the
// application analysis engine (minilang frontend + branch profiler +
// skeleton translator), the performance analysis engine (BET construction
// + roofline characterization), hot-region analysis (hot spots and hot
// paths), and validation against the machine timing simulator.
//
// It is the high-level API used by the command-line tools, the examples,
// and the benchmark harness. Every entry point takes a context.Context and
// stops promptly when it is canceled; configuration beyond the required
// arguments travels through functional Options (WithCriteria,
// WithModelFunc, WithWorkers, WithProgress).
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"skope/internal/bst"
	"skope/internal/core"
	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotpath"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/interp"
	"skope/internal/libmodel"
	"skope/internal/minilang"
	"skope/internal/profile"
	"skope/internal/resilience"
	"skope/internal/sim"
	"skope/internal/store"
	"skope/internal/translate"
	"skope/internal/workloads"
)

// Stage sentinels. Every error the pipeline returns wraps both its
// underlying cause and the sentinel of the stage that failed, so callers
// can errors.Is(err, pipeline.ErrParse) to distinguish, say, a frontend
// rejection from a simulator failure without string matching.
var (
	// ErrParse marks frontend failures (parse or semantic check).
	ErrParse = errors.New("source analysis failed")
	// ErrProfile marks failures of the local profiling run.
	ErrProfile = errors.New("profiling failed")
	// ErrModel marks failures building or projecting the execution model
	// (translation, BST/BET construction, library models, roofline).
	ErrModel = errors.New("performance modeling failed")
	// ErrSimulate marks machine timing simulator failures.
	ErrSimulate = errors.New("simulation failed")
)

// stageError tags an error with a stage sentinel while leaving its message
// untouched; both the sentinel and the cause stay on the %w chain.
type stageError struct {
	stage error
	err   error
}

func (e *stageError) Error() string   { return e.err.Error() }
func (e *stageError) Unwrap() []error { return []error{e.stage, e.err} }

func stage(sentinel error, err error) error {
	return &stageError{stage: sentinel, err: err}
}

// Run is a prepared workload: parsed, profiled once locally (the paper's
// single hardware-independent profiling pass), translated to a skeleton,
// and modeled as a BET. Everything in Run is machine independent; the same
// Run is evaluated against any number of target machines.
type Run struct {
	Workload *workloads.Workload
	Prog     *minilang.Program
	Profile  *interp.Profile
	Skeleton *translate.Result
	Tree     *bst.Tree
	BET      *core.BET
	Libs     *libmodel.Model
	// Diagnostics records the documented degradations the preparation
	// applied — most importantly translate's missing-profile fallbacks
	// (a branch with no profile entry assumes p=0.5, a while loop assumes
	// one iteration), plus every parser recovery and profiling shortfall
	// under WithLenient. Empty on a fully profiled workload; sorted by
	// stage, code, block.
	Diagnostics []guard.Diagnostic
	// Confidence is the measured-vs-assumed coverage of the preparation:
	// the minimum of the parse confidence (statements kept vs dropped by
	// the lenient parser), the translate confidence (profiled vs assumed
	// control-flow sites), and the BET's confidence. Exactly 1.0 for a
	// fully profiled strict preparation.
	Confidence float64

	layoutOnce sync.Once
	layout     *hotspot.Layout
	layoutErr  error
}

// Layout returns the run's machine-independent analysis layout, resolving
// it on first use and memoizing it for the run's lifetime. The layout's
// Fingerprint is the run's identity in the content-addressed result store;
// its Graft re-links store-served analyses to this run's BET.
func (r *Run) Layout() (*hotspot.Layout, error) {
	r.layoutOnce.Do(func() {
		r.layout, r.layoutErr = hotspot.NewLayout(r.BET, r.Libs)
	})
	if r.layoutErr != nil {
		return nil, stage(ErrModel, fmt.Errorf("pipeline: layout %s: %w", r.Workload.Name, r.layoutErr))
	}
	return r.layout, nil
}

// Option configures Evaluate, EvaluateMany, Sweep, and Explorer.
type Option func(*options)

type options struct {
	crit      hotspot.Criteria
	modelFunc func(*hw.Machine) *hw.Model
	// customModel marks a WithModelFunc override: results under a foreign
	// model constructor are not content-addressable (the constructor is
	// not part of any fingerprint), so the store is bypassed.
	customModel bool
	workers     int
	progress    func(explore.Progress)
	lim         *guard.Limits
	retry       resilience.Policy
	st          *store.Store
	lenient     bool
	minConf     float64
	prof        *interp.Profile
}

// modeDigest is the evaluation-mode component of this configuration's
// store keys.
func (o *options) modeDigest() string {
	return store.ModeDigest(o.crit, o.lenient, o.minConf)
}

func buildOptions(opts []Option) options {
	o := options{
		crit:      hotspot.DefaultCriteria(),
		modelFunc: hw.NewModel,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithCriteria overrides the hot-spot selection criteria (default
// hotspot.DefaultCriteria — the paper's 90% coverage within 10% of the
// instructions).
func WithCriteria(crit hotspot.Criteria) Option {
	return func(o *options) { o.crit = crit }
}

// WithModelFunc substitutes the roofline model constructor (default
// hw.NewModel) — e.g. hw.NewDivAwareModel or hw.NewVectorAwareModel for
// the paper's ablation studies.
func WithModelFunc(f func(*hw.Machine) *hw.Model) Option {
	return func(o *options) {
		if f != nil {
			o.modelFunc = f
			o.customModel = true
		}
	}
}

// WithWorkers bounds the worker pools of EvaluateMany and Sweep (default
// runtime.GOMAXPROCS). Values < 1 leave the default in place.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithProgress installs a per-variant progress callback on Sweep.
func WithProgress(f func(explore.Progress)) Option {
	return func(o *options) { o.progress = f }
}

// WithLimits overrides the guard limits Prepare enforces on workload
// sources and model construction (default guard.Default — see the -limits
// flag of cmd/skope). nil leaves the defaults in place.
func WithLimits(l *guard.Limits) Option {
	return func(o *options) { o.lim = l }
}

// WithRetry installs a per-variant attempt budget in Sweep, SweepCached,
// SweepAdaptive and Explorer-built engines (explore.Retry): a variant whose
// evaluation fails, say by a recovered panic, is evaluated again at once,
// but never after a validation rejection. The default is one attempt.
// Evaluate and EvaluateMany ignore it: each machine is evaluated once.
func WithRetry(p resilience.Policy) Option {
	return func(o *options) { o.retry = p }
}

// WithLenient switches Prepare into error-recovering mode: syntax errors
// drop the offending statement instead of aborting, a failed profiling run
// degrades to whatever was measured before the failure, and missing branch
// probabilities or trip counts fall back to paper-motivated priors. Every
// substitution is recorded on Run.Diagnostics and reflected in the
// confidence scores. On intact, fully checkable inputs the lenient
// pipeline produces bit-identical results to the strict one.
func WithLenient(on bool) Option {
	return func(o *options) { o.lenient = on }
}

// WithMinConfidence sets the confidence floor for Sweep and Explorer-built
// engines: variants whose assembled analysis scores below c fail with an
// error wrapping explore.ErrLowConfidence instead of ranking alongside
// trustworthy projections. c <= 0 (the default) disables the filter.
func WithMinConfidence(c float64) Option {
	return func(o *options) { o.minConf = c }
}

// WithProfile substitutes a pre-computed branch/loop profile for Prepare's
// local profiling run — the hook for replaying captured profiles or for
// fault-injection studies that corrupt individual entries. nil leaves the
// default profiling pass in place.
func WithProfile(p *interp.Profile) Option {
	return func(o *options) { o.prof = p }
}

// WithStore attaches a content-addressed result store to Sweep and
// Explorer-built engines; SweepCached and SweepAdaptive take it as an
// argument. Results whose identity — layout, machine and evaluation-mode
// fingerprints — is already stored are served bit-identically with zero
// recomputation, across sessions, processes, restarts and crashes; fresh
// results are durably written through, one fsync'd record per variant.
// WithModelFunc bypasses the store (a foreign model constructor is not
// part of any fingerprint). The caller owns the store.
func WithStore(s *store.Store) Option {
	return func(o *options) { o.st = s }
}

// Prepare runs the machine-independent half of the pipeline on a workload.
// The frontend and model construction run under guard limits (WithLimits,
// default guard.Default) and under ctx; a recovered panic in any stage
// comes back as an error wrapping guard.ErrPanic rather than unwinding
// the caller.
func Prepare(ctx context.Context, w *workloads.Workload, opts ...Option) (run *Run, err error) {
	defer guard.Recover(&err, "pipeline: prepare %s", w.Name)
	o := buildOptions(opts)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: prepare %s: %w", w.Name, err)
	}
	var diags []guard.Diagnostic
	var prog *minilang.Program
	if o.lenient {
		var pd []guard.Diagnostic
		prog, pd = minilang.ParseLenient(w.Name, w.Source, o.lim)
		diags = append(diags, pd...)
	} else {
		p, perr := minilang.ParseWithLimits(w.Name, w.Source, o.lim)
		if perr != nil {
			return nil, stage(ErrParse, fmt.Errorf("pipeline: parse %s: %w", w.Name, perr))
		}
		prog = p
	}
	// Semantic validity is required for modeling in both modes: the
	// translator and interpreter consume the checker's AST annotations,
	// so an uncheckable program (even a lenient partial one) cannot be
	// degraded past this point.
	if err := minilang.Check(prog); err != nil {
		return nil, stage(ErrParse, fmt.Errorf("pipeline: check %s: %w", w.Name, err))
	}

	// Local profiling pass (gcov substitute). One run, reused across all
	// target machines; WithProfile substitutes a captured profile instead.
	prof := o.prof
	if prof == nil {
		profiler := interp.NewProfiler()
		eng, err := interp.New(prog, &interp.Options{Observer: profiler, Seed: w.Seed, Ctx: ctx})
		if err != nil {
			if !o.lenient {
				return nil, stage(ErrProfile, fmt.Errorf("pipeline: profile %s: %w", w.Name, err))
			}
			diags = append(diags, guard.Diagnostic{
				Severity: guard.SevWarn, Stage: "profile", Code: "partial-profile",
				Message: fmt.Sprintf("%s: profiling run unavailable (%v); unprofiled control flow falls back to priors", w.Name, err),
			})
		} else if err := eng.Run(); err != nil {
			if !o.lenient {
				return nil, stage(ErrProfile, fmt.Errorf("pipeline: profile %s: %w", w.Name, err))
			}
			diags = append(diags, guard.Diagnostic{
				Severity: guard.SevWarn, Stage: "profile", Code: "partial-profile",
				Message: fmt.Sprintf("%s: profiling run failed (%v); keeping measurements up to the failure", w.Name, err),
			})
		}
		prof = profiler.P
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: prepare %s: %w", w.Name, err)
	}

	// Source-to-source translation into the code skeleton.
	sk, err := translate.Translate(prog, prof)
	if err != nil {
		return nil, stage(ErrModel, fmt.Errorf("pipeline: translate %s: %w", w.Name, err))
	}

	// Execution-flow model.
	tree, err := bst.Build(sk.Prog)
	if err != nil {
		return nil, stage(ErrModel, fmt.Errorf("pipeline: bst %s: %w", w.Name, err))
	}
	lim := o.lim.Or()
	bet, err := core.Build(ctx, tree, sk.Input, &core.Options{
		MaxContexts: lim.MaxContexts, MaxNodes: lim.MaxBETNodes,
		Lenient: o.lenient,
	})
	if err != nil {
		return nil, stage(ErrModel, fmt.Errorf("pipeline: bet %s: %w", w.Name, err))
	}
	libs, err := libmodel.Default()
	if err != nil {
		return nil, stage(ErrModel, fmt.Errorf("pipeline: %w", err))
	}
	diags = append(diags, translateDiagnostics(w.Name, sk.Warnings)...)
	guard.SortDiagnostics(diags)
	return &Run{
		Workload: w, Prog: prog, Profile: prof,
		Skeleton: sk, Tree: tree, BET: bet, Libs: libs,
		Diagnostics: diags,
		Confidence:  runConfidence(prog, prof, diags, bet.Confidence),
	}, nil
}

// runConfidence composes the preparation's per-stage confidence scores by
// their minimum (the chain is only as trustworthy as its weakest stage):
//
//   - parse: statements kept over statements seen, where each "parse/syntax"
//     diagnostic accounts for one dropped statement or declaration;
//   - translate: profiled control-flow sites over all sites, where each
//     "translate/missing-profile" diagnostic accounts for one site that fell
//     back to a prior;
//   - model: the BET's ENR-weighted measured-vs-assumed coverage.
func runConfidence(prog *minilang.Program, prof *interp.Profile, diags []guard.Diagnostic, betConf float64) float64 {
	conf := betConf
	dropped, missing := 0, 0
	for _, d := range diags {
		switch {
		case d.Stage == "parse" && d.Code == "syntax":
			dropped++
		case d.Stage == "translate" && d.Code == "missing-profile":
			missing++
		}
	}
	if dropped > 0 {
		kept := minilang.StmtCount(prog)
		if pc := float64(kept) / float64(kept+dropped); pc < conf {
			conf = pc
		}
	}
	if missing > 0 {
		sites := len(prof.Branches) + len(prof.Loops)
		if tc := float64(sites) / float64(sites+missing); tc < conf {
			conf = tc
		}
	}
	return conf
}

// translateDiagnostics converts translate's free-text warnings into
// structured diagnostics, classifying the documented missing-profile
// fallbacks separately from other lossy translations.
func translateDiagnostics(workload string, warnings []string) []guard.Diagnostic {
	if len(warnings) == 0 {
		return nil
	}
	ds := make([]guard.Diagnostic, 0, len(warnings))
	for _, w := range warnings {
		code := "lossy-translation"
		if strings.Contains(w, "no profile entry") {
			code = "missing-profile"
		}
		ds = append(ds, guard.Diagnostic{
			Stage: "translate", Code: code, BlockID: workload, Message: w,
		})
	}
	guard.SortDiagnostics(ds)
	return ds
}

// PrepareByName prepares a named benchmark at the given scale.
func PrepareByName(ctx context.Context, name string, s workloads.Scale, opts ...Option) (*Run, error) {
	w, err := workloads.Get(name, s)
	if err != nil {
		return nil, err
	}
	return Prepare(ctx, w, opts...)
}

// Provenance records where an evaluation's analysis came from. Every
// source is bit-identical by construction — provenance is attribution
// (what work was skipped), never a quality grade.
type Provenance int

const (
	// Computed marks a freshly computed analysis.
	Computed Provenance = iota
	// FromStore marks an analysis served from the content-addressed
	// result store — possibly computed by another session or process.
	FromStore
)

// String names the provenance for logs and wire encodings.
func (p Provenance) String() string {
	if p == FromStore {
		return "store"
	}
	return "computed"
}

// Eval is one machine-specific evaluation — the unified result type of
// Evaluate, EvaluateMany and every sweep, and the wire type the skoped
// daemon serves. The analytical fields (Analysis, Selection, Diagnostics,
// Confidence) are always present; the measured fields (Modl, Prof, Sim,
// the quality metrics, HotPath) are populated only by the simulating
// entry points (Evaluate, EvaluateMany) — purely analytical sweeps leave
// them zero so that cached and computed sweep results are interchangeable.
type Eval struct {
	Machine *hw.Machine
	// Analysis is the per-block roofline projection over the BET.
	Analysis *hotspot.Analysis
	// Selection is the hot-spot set under the given criteria.
	Selection *hotspot.Selection
	// Modl and Prof are the projected and measured ranked profiles.
	Modl, Prof *profile.Ranked
	// Sim is the raw measured result.
	Sim *sim.Result
	// Quality is the paper's selection-quality metric evaluated over the
	// top-10 ranked views its tables and figures use: the measured
	// coverage of the model's first ten blocks relative to the measured
	// coverage of the measured-best ten.
	Quality float64
	// SelectionQuality is the same metric for the criteria-driven
	// Selection (greedy knapsack under leanness), which on these scaled
	// sources is dominated by budget granularity.
	SelectionQuality float64
	// HotPath is the merged hot path for the selection.
	HotPath *hotpath.Path
	// Diagnostics merges the preparation's diagnostics (parser recoveries,
	// profiling shortfalls, translation fallbacks) with the analysis's
	// (prior substitutions, non-finite projections), sorted by stage,
	// code, block. Empty on a clean strict evaluation.
	Diagnostics []guard.Diagnostic
	// Confidence is the end-to-end measured-vs-assumed coverage: the
	// minimum of the preparation's and the analysis's scores.
	Confidence float64
	// Provenance records whether the analysis was computed or served from
	// the result store.
	Provenance Provenance
}

// Degraded reports whether any part of the evaluation rests on recovered
// parses, fallback priors, incomplete profiles, or non-finite arithmetic.
func (e *Eval) Degraded() bool {
	return e.Confidence < 1 || len(e.Diagnostics) > 0
}

// Evaluate projects the prepared workload onto machine m, simulates the
// measured baseline on the same machine, and computes the selection
// quality. Criteria default to hotspot.DefaultCriteria and the roofline
// model to hw.NewModel; override with WithCriteria and WithModelFunc.
func Evaluate(ctx context.Context, run *Run, m *hw.Machine, opts ...Option) (ev *Eval, err error) {
	defer guard.Recover(&err, "pipeline: evaluate %s on %s", run.Workload.Name, m.Name)
	o := buildOptions(opts)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: evaluate %s on %s: %w", run.Workload.Name, m.Name, err)
	}
	if err := m.Validate(); err != nil {
		return nil, stage(ErrModel, fmt.Errorf("pipeline: analyze %s on %s: %w", run.Workload.Name, m.Name, err))
	}
	l, err := run.Layout()
	if err != nil {
		return nil, err
	}
	analysis := l.Analyze(o.modelFunc(m))
	sel := hotspot.Select(analysis, o.crit)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: evaluate %s on %s: %w", run.Workload.Name, m.Name, err)
	}
	simRes, err := sim.Run(ctx, run.Prog, m, &sim.Options{Seed: run.Workload.Seed})
	if err != nil {
		return nil, stage(ErrSimulate, fmt.Errorf("pipeline: simulate %s on %s: %w", run.Workload.Name, m.Name, err))
	}

	modl := profile.FromAnalysis(analysis)
	prof := profile.FromSim(simRes)
	// Run and analysis diagnostics are disjoint sets (preparation stages
	// vs bet/roofline), so a straight merge never duplicates.
	evDiags := make([]guard.Diagnostic, 0, len(run.Diagnostics)+len(analysis.Diagnostics))
	evDiags = append(evDiags, run.Diagnostics...)
	evDiags = append(evDiags, analysis.Diagnostics...)
	guard.SortDiagnostics(evDiags)
	conf := run.Confidence
	if analysis.Confidence < conf {
		conf = analysis.Confidence
	}
	return &Eval{
		Machine:          m,
		Analysis:         analysis,
		Selection:        sel,
		Modl:             modl,
		Prof:             prof,
		Sim:              simRes,
		Quality:          profile.SelectionQuality(prof, modl.TopIDs(10)),
		SelectionQuality: profile.SelectionQuality(prof, spotIDs(sel.Spots)),
		HotPath:          hotpath.Extract(run.BET.Root, sel.Spots),
		Diagnostics:      evDiags,
		Confidence:       conf,
	}, nil
}

// spotIDs extracts the block IDs of a selection in rank order.
func spotIDs(spots []*hotspot.Block) []string {
	ids := make([]string, len(spots))
	for i, s := range spots {
		ids[i] = s.BlockID
	}
	return ids
}
