package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
)

// EvaluateMany projects a prepared workload onto several machines through
// a bounded worker pool (WithWorkers, default runtime.GOMAXPROCS).
// Preparation (the profiling run) is shared and machine independent; each
// evaluation touches only its own analysis and simulator state, so the
// fan-out is embarrassingly parallel. Results are returned in the order of
// machines.
//
// Machine failures are isolated: a machine that fails validation, modeling,
// simulation — or panics — leaves a nil at its index, and the failures come
// back joined into one error naming each machine, alongside the healthy
// evaluations. Each machine is evaluated once: retries and per-attempt
// deadlines (WithRetry, WithVariantTimeout) belong to the exploration
// engine behind Sweep. Only canceling ctx discards results, returning
// ctx's error wrapped.
func EvaluateMany(ctx context.Context, run *Run, machines []*hw.Machine, opts ...Option) ([]*Eval, error) {
	o := buildOptions(opts)
	workers := o.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(machines) {
		workers = len(machines)
	}
	if workers < 1 {
		workers = 1
	}

	evals := make([]*Eval, len(machines))
	errs := make([]error, len(machines))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				ev, err := Evaluate(ctx, run, machines[i], opts...)
				if err != nil {
					if ctx.Err() != nil && errors.Is(err, context.Canceled) {
						// Sweep-level cancellation, not a machine failure.
						return
					}
					errs[i] = fmt.Errorf("pipeline: machine %s: %w", machines[i].Name, err)
					continue
				}
				evals[i] = ev
			}
		}()
	}
feed:
	for i := range machines {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: evaluate many %s: %w", run.Workload.Name, err)
	}
	return evals, errors.Join(errs...)
}

// Explorer builds a design-space exploration engine over the prepared
// workload's BET and library model — the entry point for co-design studies
// that need the engine's streaming or cache-statistics API directly.
// WithModelFunc, WithWorkers, WithProgress, WithRetry, WithVariantTimeout,
// WithJournal and WithStore carry over (the store is keyed under this
// configuration's criteria, lenient flag, and confidence floor).
func Explorer(run *Run, opts ...Option) (*explore.Engine, error) {
	o := buildOptions(opts)
	eopts := []explore.Option{
		explore.ModelFunc(o.modelFunc),
		explore.Workers(o.workers),
		explore.Retry(o.retry),
		explore.VariantTimeout(o.timeout),
	}
	if o.progress != nil {
		eopts = append(eopts, explore.OnProgress(o.progress))
	}
	if o.minConf > 0 {
		eopts = append(eopts, explore.MinConfidence(o.minConf))
	}
	if o.jnl != nil {
		eopts = append(eopts, explore.Journal(o.jnl))
	}
	if o.st != nil && !o.customModel {
		eopts = append(eopts, explore.CAS(o.st, o.modeDigest()))
	}
	eng, err := explore.New(run.BET, run.Libs, eopts...)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", run.Workload.Name, err)
	}
	return eng, nil
}

// Sweep projects a prepared workload over a set of machine variants purely
// analytically (no simulation) — the co-design design-space exploration
// loop. It runs on the exploration engine: a bounded worker pool with
// memoized per-block characterization, plus the sweep journal (WithJournal)
// and the content-addressed store (WithStore) as zero-recompute sources.
//
// It returns the unified Eval type: per variant, the analysis, the hot-spot
// selection under this configuration's criteria, the merged diagnostics,
// the end-to-end confidence, and the provenance (computed, journal, store).
// The measured fields (Sim, Modl/Prof, quality, HotPath) stay zero — sweeps
// never simulate — so cached and computed sweep results are interchangeable.
// Evals are index-aligned with the variants; failed variants (see
// explore.SweepError) leave nils behind and come back as a wrapped
// aggregate error alongside the healthy evaluations. Cancellation (the only
// way to lose healthy results) returns nil evaluations and the wrapped
// context error.
func Sweep(ctx context.Context, run *Run, variants []*hw.Machine, opts ...Option) ([]*Eval, error) {
	o := buildOptions(opts)
	eng, err := Explorer(run, opts...)
	if err != nil {
		return nil, err
	}
	evals, err := collect(ctx, eng, run, o.crit, variants, make([]*Eval, len(variants)), 0, nil)
	if err != nil {
		return evals, fmt.Errorf("pipeline: sweep %s: %w", run.Workload.Name, err)
	}
	return evals, nil
}

// collect streams variants through eng into evals[off:], appending
// failures to fails as *VariantErrors indexed into evals. It returns them
// sorted in one *explore.SweepError joined with any journal or store
// degradation, or nil evals on cancellation. Shared by every sweep path.
func collect(ctx context.Context, eng *explore.Engine, run *Run, crit hotspot.Criteria, variants []*hw.Machine, evals []*Eval, off int, fails []*explore.VariantError) ([]*Eval, error) {
	results, wait := eng.Stream(ctx, variants)
	for r := range results {
		if r.Err != nil {
			var ve *explore.VariantError
			if !errors.As(r.Err, &ve) {
				ve = &explore.VariantError{Machine: r.Machine, MachineName: r.Machine.Name, Err: r.Err}
			}
			ve.Index = off + r.Index
			fails = append(fails, ve)
			continue
		}
		evals[off+r.Index] = sweepEval(run.Diagnostics, run.Confidence, r, crit)
	}
	werr := wait()
	if werr != nil && (errors.Is(werr, context.Canceled) || errors.Is(werr, context.DeadlineExceeded)) {
		return nil, werr
	}
	var errs []error
	if len(fails) > 0 {
		sort.Slice(fails, func(i, j int) bool { return fails[i].Index < fails[j].Index })
		errs = append(errs, &explore.SweepError{Variants: fails})
	}
	if werr != nil {
		// Journal or store degradation: results are complete, only
		// durability/cache coverage is partial.
		errs = append(errs, werr)
	}
	return evals, errors.Join(errs...)
}

// sweepEval assembles the unified Eval for one analytical sweep result:
// selection under the configured criteria, preparation + analysis
// diagnostics merged, end-to-end confidence, provenance from the result's
// source flags. Shared by every sweep path.
func sweepEval(prepDiags []guard.Diagnostic, prepConf float64, r explore.Result, crit hotspot.Criteria) *Eval {
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
	switch {
	case r.Replayed:
		prov = FromJournal
	case r.Stored:
		prov = FromStore
	}
	return &Eval{
		Machine:     r.Machine,
		Analysis:    a,
		Selection:   hotspot.Select(a, crit),
		Diagnostics: diags,
		Confidence:  conf,
		Provenance:  prov,
	}
}
