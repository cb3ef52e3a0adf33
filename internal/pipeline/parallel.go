package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
)

// EvaluateMany projects a prepared workload onto several machines on the
// sweeps' worker pool, explore.Pool (WithWorkers, default GOMAXPROCS).
// Preparation (the profiling run) is shared and machine independent; each
// evaluation touches only its own analysis and simulator state, so the
// fan-out is embarrassingly parallel. Results are returned in the order of
// machines.
//
// Machine failures are isolated: a machine that fails validation, modeling,
// simulation — or panics — leaves a nil at its index, and the failures come
// back joined into one error naming each machine, alongside the healthy
// evaluations. Each machine is evaluated once: retries (WithRetry) belong
// to the exploration engine behind Sweep. Only canceling ctx discards
// results, returning ctx's error wrapped.
func EvaluateMany(ctx context.Context, run *Run, machines []*hw.Machine, opts ...Option) ([]*Eval, error) {
	o := buildOptions(opts)
	evals := make([]*Eval, len(machines))
	errs := make([]error, len(machines))
	explore.Pool(ctx, len(machines), o.workers, func(i int) {
		ev, err := Evaluate(ctx, run, machines[i], opts...)
		if err != nil {
			if ctx.Err() == nil || !errors.Is(err, context.Canceled) {
				// Not sweep-level cancellation: a machine failure.
				errs[i] = fmt.Errorf("pipeline: machine %s: %w", machines[i].Name, err)
			}
			return
		}
		evals[i] = ev
	})()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: evaluate many %s: %w", run.Workload.Name, err)
	}
	return evals, errors.Join(errs...)
}

// Explorer builds a design-space exploration engine over the prepared
// workload's layout (Run.Layout) — the entry point for co-design studies
// that need the engine's Each or Stream directly.
// WithModelFunc, WithWorkers, WithProgress, WithRetry, WithMinConfidence
// and WithStore carry over (the store is keyed under this configuration's
// criteria, lenient flag, and confidence floor).
func Explorer(run *Run, opts ...Option) (*explore.Engine, error) {
	o := buildOptions(opts)
	eopts := []explore.Option{
		explore.ModelFunc(o.modelFunc),
		explore.Workers(o.workers),
		explore.Retry(o.retry),
	}
	if o.progress != nil {
		eopts = append(eopts, explore.OnProgress(o.progress))
	}
	if o.minConf > 0 {
		eopts = append(eopts, explore.MinConfidence(o.minConf))
	}
	if o.st != nil && !o.customModel {
		eopts = append(eopts, explore.CAS(o.st, o.modeDigest()))
	}
	l, err := run.Layout()
	if err != nil {
		return nil, err
	}
	return explore.New(l, eopts...), nil
}

// Sweep projects a prepared workload over a set of machine variants purely
// analytically (no simulation) — the co-design design-space exploration
// loop. It runs on the exploration engine: a bounded worker pool that
// projects every variant onto the run's one layout, plus the
// content-addressed store (WithStore) as a zero-recompute source.
//
// It returns the unified Eval type: per variant, the analysis, the hot-spot
// selection under this configuration's criteria, the merged diagnostics,
// the end-to-end confidence, and the provenance (computed or store).
// The measured fields (Sim, Modl/Prof, quality, HotPath) stay zero — sweeps
// never simulate — so cached and computed sweep results are interchangeable.
// Evals are index-aligned with the variants; failed variants (see
// explore.SweepError) leave nils behind and come back as a wrapped
// aggregate error alongside the healthy evaluations. Cancellation (the only
// way to lose healthy results) returns nil evaluations and the wrapped
// context error.
func Sweep(ctx context.Context, run *Run, variants []*hw.Machine, opts ...Option) ([]*Eval, error) {
	collect, err := collector(run, variants, opts)
	if err != nil {
		return nil, err
	}
	evals, err := collect(ctx, nil)
	if err != nil {
		return evals, fmt.Errorf("pipeline: sweep %s: %w", run.Workload.Name, err)
	}
	return evals, nil
}

// collector builds the engine for run under opts and returns the one
// collection loop every sweep path runs on it. Each call of collect
// evaluates the variants at the indices idx (all of them when idx is nil)
// and builds their Evals on the workers that produced them, into one slab
// per call, index-aligned with variants. It returns every Eval collected
// so far, with every failure so far as a *VariantError at its variant
// index, sorted in one *explore.SweepError and joined with any store
// degradation; on cancellation, nil Evals and the context's error.
func collector(run *Run, variants []*hw.Machine, opts []Option) (collect func(ctx context.Context, idx []int) ([]*Eval, error), err error) {
	eng, err := Explorer(run, opts...)
	if err != nil {
		return nil, err
	}
	crit := buildOptions(opts).crit
	evals := make([]*Eval, len(variants))
	var (
		failsMu sync.Mutex
		fails   []*explore.VariantError
	)
	return func(ctx context.Context, idx []int) ([]*Eval, error) {
		batch := variants
		if idx != nil {
			batch = make([]*hw.Machine, len(idx))
			for k, i := range idx {
				batch[k] = variants[i]
			}
		}
		slab := make([]Eval, len(batch))
		werr := eng.Each(ctx, batch, func(r explore.Result) {
			i := r.Index
			if idx != nil {
				i = idx[i]
			}
			if r.Err != nil {
				var ve *explore.VariantError
				if !errors.As(r.Err, &ve) {
					ve = &explore.VariantError{Machine: r.Machine, MachineName: r.Machine.Name, Err: r.Err}
				}
				ve.Index = i
				failsMu.Lock()
				fails = append(fails, ve)
				failsMu.Unlock()
				return
			}
			// Each result has its own index, so its slab entry and its
			// slot in evals are written by its worker alone.
			slab[r.Index] = sweepEval(run.Diagnostics, run.Confidence, r, crit)
			evals[i] = &slab[r.Index]
		})
		if werr != nil && (errors.Is(werr, context.Canceled) || errors.Is(werr, context.DeadlineExceeded)) {
			return nil, werr
		}
		var errs []error
		if len(fails) > 0 {
			sort.Slice(fails, func(i, j int) bool { return fails[i].Index < fails[j].Index })
			errs = append(errs, &explore.SweepError{Variants: fails})
		}
		if werr != nil {
			// Store degradation: results are complete, only cache
			// coverage is partial.
			errs = append(errs, werr)
		}
		return evals, errors.Join(errs...)
	}, nil
}

// sweepEval assembles the unified Eval for one analytical sweep result:
// selection under the configured criteria, preparation + analysis
// diagnostics merged, end-to-end confidence, provenance from the result's
// source flags. Shared by every sweep path.
func sweepEval(prepDiags []guard.Diagnostic, prepConf float64, r explore.Result, crit hotspot.Criteria) Eval {
	a := r.Analysis
	diags := make([]guard.Diagnostic, 0, len(prepDiags)+len(a.Diagnostics))
	diags = append(diags, prepDiags...)
	diags = append(diags, a.Diagnostics...)
	guard.SortDiagnostics(diags)
	conf := prepConf
	if a.Confidence < conf {
		conf = a.Confidence
	}
	prov := Computed
	if r.Stored {
		prov = FromStore
	}
	return Eval{
		Machine:     r.Machine,
		Analysis:    a,
		Selection:   hotspot.Select(a, crit),
		Diagnostics: diags,
		Confidence:  conf,
		Provenance:  prov,
	}
}
