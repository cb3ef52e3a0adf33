package pipeline

import (
	"context"

	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/store"
	"skope/internal/workloads"
)

// SweepSummary reports how a SweepCached run was served.
type SweepSummary struct {
	// Workload and LayoutFingerprint identify what was swept. The
	// fingerprint is the store identity of the workload's prepared model —
	// from the prep record on a warm run, from the fresh preparation
	// otherwise.
	Workload          string
	LayoutFingerprint string
	// Total counts variants; Computed, FromJournal and FromStore partition
	// the successful ones by provenance (failed variants are in none).
	Total, Computed, FromJournal, FromStore int
	// SkippedPrepare marks a fully warm run: every variant was served from
	// the store and the workload was never parsed, profiled, or modeled —
	// zero core.Build calls.
	SkippedPrepare bool
	// Confidence and Diagnostics describe the preparation (replayed from
	// the prep record on a warm run, identical to a cold run's by
	// construction). Per-variant analysis diagnostics live on the Evals.
	Confidence  float64
	Diagnostics []guard.Diagnostic
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
	cacheable := st != nil && !o.customModel && o.prof == nil
	if cacheable {
		if evals, sum := sweepFromStore(w, variants, st, &o); evals != nil {
			return evals, sum, nil
		}
	}

	run, err := Prepare(ctx, w, opts...)
	if err != nil {
		return nil, nil, err
	}
	sum := &SweepSummary{
		Workload:    w.Name,
		Total:       len(variants),
		Confidence:  run.Confidence,
		Diagnostics: run.Diagnostics,
	}
	if l, lerr := run.Layout(); lerr == nil {
		sum.LayoutFingerprint = l.Fingerprint()
		if cacheable {
			// Record the preparation so the next identical sweep can skip
			// it. Best-effort: a store failure costs cache coverage, not
			// the sweep.
			_ = st.PutPrep(store.PrepDigest(w, o.lenient, o.lim), store.Prep{
				LayoutFingerprint: sum.LayoutFingerprint,
				Confidence:        run.Confidence,
				Diagnostics:       run.Diagnostics,
			})
		}
	}
	if cacheable {
		opts = append(opts, WithStore(st))
	}
	evals, err := Sweep(ctx, run, variants, opts...)
	if evals == nil {
		return nil, nil, err
	}
	for _, ev := range evals {
		switch {
		case ev == nil:
		case ev.Provenance == FromJournal:
			sum.FromJournal++
		case ev.Provenance == FromStore:
			sum.FromStore++
		default:
			sum.Computed++
		}
	}
	return evals, sum, err
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
	for i, m := range variants {
		a, ok, err := st.GetEval(prep.LayoutFingerprint, m.Fingerprint(), mode)
		if err != nil || !ok {
			return nil, nil
		}
		conf := prep.Confidence
		if a.Confidence < conf {
			conf = a.Confidence
		}
		if o.minConf > 0 && a.Confidence < o.minConf {
			// The cold run would have failed this variant at the
			// confidence gate; a warm run must not resurrect it. Punt to
			// the cold path so the failure surfaces identically.
			return nil, nil
		}
		diags := make([]guard.Diagnostic, 0, len(prep.Diagnostics)+len(a.Diagnostics))
		diags = append(diags, prep.Diagnostics...)
		diags = append(diags, a.Diagnostics...)
		guard.SortDiagnostics(diags)
		evals[i] = &Eval{
			Machine:     m,
			Analysis:    a,
			Selection:   hotspot.Select(a, o.crit),
			Diagnostics: diags,
			Confidence:  conf,
			Provenance:  FromStore,
		}
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
