package pipeline

import (
	"context"
	"fmt"

	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hw"
	"skope/internal/store"
	"skope/internal/workloads"
)

// SweepSummary reports how a SweepCached or SweepAdaptive run was served.
type SweepSummary struct {
	// Workload and LayoutFingerprint identify what was swept. The
	// fingerprint is the store identity of the workload's prepared model —
	// from the prep record on a warm run, from the fresh preparation
	// otherwise.
	Workload          string
	LayoutFingerprint string
	// Total counts variants; Computed and FromStore partition the
	// successful ones by provenance (failed variants are in neither).
	Total, Computed, FromStore int
	// SkippedPrepare marks a fully warm run: every variant was served from
	// the store and the workload was never parsed, profiled, or modeled —
	// zero core.Build calls.
	SkippedPrepare bool
	// Confidence and Diagnostics describe the preparation (replayed from
	// the prep record on a warm run, identical to a cold run's by
	// construction). Per-variant analysis diagnostics live on the Evals.
	Confidence  float64
	Diagnostics []guard.Diagnostic
	// Adaptive is SweepAdaptive's search outcome: the evaluation spend
	// and the round trace. nil on exhaustive sweeps.
	Adaptive *explore.AdaptiveResult
}

// tally partitions the successful evals by provenance.
func (s *SweepSummary) tally(evals []*Eval) {
	for _, ev := range evals {
		switch {
		case ev == nil:
		case ev.Provenance == FromStore:
			s.FromStore++
		default:
			s.Computed++
		}
	}
}

// SweepCached is Sweep with the preparation itself behind the store: it
// sweeps workload w over the variants, serving every piece of work that is
// already content-addressed in st.
//
// On a fully warm run — the store has this workload's prep record and
// every (variant, mode) eval record — the workload is never prepared:
// no parsing, no profiling run, no BET construction (zero core.Build
// calls). The Evals are decoded bit-identically from the store and carry
// the cold run's confidence and diagnostics, replayed from the prep
// record. Anything less than fully warm falls back to Prepare + Sweep with
// the store attached, which serves warm variants individually and writes
// the preparation and fresh results through for the next run.
//
// Configurations the store cannot address (WithModelFunc, WithProfile — a
// foreign model constructor or substituted profile is not part of any
// fingerprint) and nil stores skip the cache entirely and behave like
// Prepare + Sweep.
func SweepCached(ctx context.Context, w *workloads.Workload, variants []*hw.Machine, st *store.Store, opts ...Option) ([]*Eval, *SweepSummary, error) {
	o := buildOptions(opts)
	if o.cacheable(st) {
		if evals, sum := sweepFromStore(w, variants, st, &o); evals != nil {
			return evals, sum, nil
		}
	}
	run, sum, opts, err := prepareSweep(ctx, w, len(variants), st, opts)
	if err != nil {
		return nil, nil, err
	}
	evals, err := Sweep(ctx, run, variants, opts...)
	if evals == nil {
		return nil, nil, err
	}
	sum.tally(evals)
	return evals, sum, err
}

// SweepAdaptive is SweepCached's surrogate-guided sibling. variants are
// the grid of axes in explore.Grid.Variants order followed by the base
// machine. It prepares as SweepCached's cold path does, then drives an
// explore.AdaptivePlanner: each round's batch of grid indices is collected
// like an exhaustive sweep's variants and fed back to the planner in
// ascending grid order, and the base machine is collected last, on the
// same engine — stored and held to WithMinConfidence like an exhaustive
// sweep's. Round traces arrive on aopt.OnRound; progress
// snapshots count across all batches, so Done ends at the search's
// evaluations plus one. Evals are nil where the search never evaluated;
// the search outcome is on SweepSummary.Adaptive. Errors come back as
// from SweepCached, which stays the golden reference: only the full grid
// proves the adaptive optimum global.
func SweepAdaptive(ctx context.Context, w *workloads.Workload, variants []*hw.Machine, st *store.Store, axes []explore.Axis, aopt explore.AdaptiveOptions, opts ...Option) ([]*Eval, *SweepSummary, error) {
	run, sum, opts, err := prepareSweep(ctx, w, len(variants), st, opts)
	if err != nil {
		return nil, nil, err
	}
	var before, last explore.Progress // the collected batches' counts; the latest snapshot
	if report := buildOptions(opts).progress; report != nil {
		opts = append(opts, WithProgress(func(p explore.Progress) {
			p.Done += before.Done
			p.Stored += before.Stored
			p.Retried += before.Retried
			last = p
			report(p)
		}))
	}
	collect, err := collector(run, variants, opts)
	if err != nil {
		return nil, nil, err
	}
	base := len(variants) - 1
	planner, err := explore.NewAdaptivePlanner(variants[:base], axes, aopt)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: adaptive sweep %s: %w", w.Name, err)
	}
	var evals []*Eval
	for batch := planner.NextRound(); batch != nil; batch = planner.NextRound() {
		if evals, err = collect(ctx, batch); evals == nil {
			return nil, nil, fmt.Errorf("pipeline: adaptive sweep %s: %w", w.Name, err)
		}
		before = last
		// Batches are ascending, so the fit, and every later round with
		// it, does not depend on the order the workers finished in.
		for _, g := range batch {
			if ev := evals[g]; ev != nil {
				planner.Observe(g, ev.Analysis.TotalTime, ev.Analysis.Confidence)
			} else {
				planner.ObserveFailure(g)
			}
		}
		if tr := planner.EndRound(); aopt.OnRound != nil {
			aopt.OnRound(tr)
		}
	}
	// The base machine's collect reports every failure and degradation of
	// the sweep, the search's included.
	if evals, err = collect(ctx, []int{base}); err != nil {
		err = fmt.Errorf("pipeline: adaptive sweep %s: %w", w.Name, err)
	}
	if evals == nil {
		return nil, nil, err
	}
	sum.tally(evals)
	sum.Adaptive = planner.Result()
	return evals, sum, err
}

// cacheable reports whether st can address results under these options:
// a foreign model constructor or profile is not part of any fingerprint.
func (o *options) cacheable(st *store.Store) bool {
	return st != nil && !o.customModel && o.prof == nil
}

// prepareSweep is the cold start of SweepCached and SweepAdaptive: it
// prepares w and returns the run, its summary, and the options with a
// cacheable st attached, after recording the preparation in st so the
// next identical sweep can skip it.
func prepareSweep(ctx context.Context, w *workloads.Workload, total int, st *store.Store, opts []Option) (*Run, *SweepSummary, []Option, error) {
	o := buildOptions(opts)
	run, err := Prepare(ctx, w, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	sum := &SweepSummary{
		Workload:    w.Name,
		Total:       total,
		Confidence:  run.Confidence,
		Diagnostics: run.Diagnostics,
	}
	if l, lerr := run.Layout(); lerr == nil {
		sum.LayoutFingerprint = l.Fingerprint()
	}
	if o.cacheable(st) {
		if sum.LayoutFingerprint != "" {
			// Best-effort: a store failure costs cache coverage only.
			_ = st.PutPrep(store.PrepDigest(w, o.lenient, o.lim), store.Prep{
				LayoutFingerprint: sum.LayoutFingerprint,
				Confidence:        run.Confidence,
				Diagnostics:       run.Diagnostics,
			})
		}
		opts = append(opts, WithStore(st))
	}
	return run, sum, opts, nil
}

// sweepFromStore attempts the fully warm path: prep record plus every eval
// record present. Any miss — or any decode trouble — returns nil and the
// caller prepares normally; a warm run never degrades below a cold one.
func sweepFromStore(w *workloads.Workload, variants []*hw.Machine, st *store.Store, o *options) ([]*Eval, *SweepSummary) {
	prep, ok, err := st.GetPrep(store.PrepDigest(w, o.lenient, o.lim))
	if err != nil || !ok {
		return nil, nil
	}
	mode := o.modeDigest()
	evals := make([]*Eval, len(variants))
	slab := make([]Eval, len(variants))
	for i, m := range variants {
		a, ok, err := st.GetEval(prep.LayoutFingerprint, m.Fingerprint(), mode)
		if err != nil || !ok {
			return nil, nil
		}
		if o.minConf > 0 && a.Confidence < o.minConf {
			// The cold run would have failed this variant at the
			// confidence gate; a warm run must not resurrect it. Punt to
			// the cold path so the failure surfaces identically.
			return nil, nil
		}
		slab[i] = sweepEval(prep.Diagnostics, prep.Confidence, explore.Result{Machine: m, Analysis: a, Stored: true}, o.crit)
		evals[i] = &slab[i]
	}
	return evals, &SweepSummary{
		Workload:          w.Name,
		LayoutFingerprint: prep.LayoutFingerprint,
		Total:             len(variants),
		FromStore:         len(variants),
		SkippedPrepare:    true,
		Confidence:        prep.Confidence,
		Diagnostics:       prep.Diagnostics,
	}
}
