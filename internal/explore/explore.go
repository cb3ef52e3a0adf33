// Package explore is the design-space exploration engine: it drives the
// analytical model of packages core/hw/hotspot over large grids of machine
// variants — the software-hardware co-design loop the paper motivates in
// §VI–§VII, where purely analytical projection makes sweeping thousands of
// hypothetical architectures cheap.
//
// The engine adds two things over calling hotspot.Layout.Analyze in a loop:
//
//   - a bounded worker pool (default runtime.GOMAXPROCS) with
//     context.Context cancellation and per-variant fault isolation: a
//     variant that fails validation — or panics — yields a Result carrying
//     a *VariantError while the rest of the sweep completes, so one
//     poisoned variant never voids a thousand healthy ones;
//   - each result handed to the caller on the worker that produced it
//     (Each; Stream puts them on a channel instead), with progress
//     counters (variants done, served from the store, retried), plus
//     selection helpers (best variant, Pareto frontier over projected time
//     versus a cost metric).
//
// Every variant is projected afresh onto the one layout the engine was
// built with: a projection costs a few microseconds, and keeping per-block
// times for reuse cost more than it saved (DESIGN.md §5). A projection is
// a pure function of the layout and the machine, so it takes no context
// and no deadline; a failed one is re-run at once, up to the Retry
// budget, and never waited on.
package explore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/resilience"
	"skope/internal/store"
)

// CacheStats counts the engine's evaluation attempts as Misses. The engine
// keeps no cache of per-block times, so Hits is always 0; variants the
// result store serves count as neither.
type CacheStats struct {
	Hits, Misses int
}

// Progress is a sweep-level snapshot delivered to the OnProgress callback
// after each completed variant of an Each or Stream call. A driver that
// runs a sweep in several batches, as an adaptive search does, offsets
// the counts so that they run across all of them.
type Progress struct {
	// Done counts completed variants.
	Done int
	// Stored counts variants served from the content-addressed result
	// store (a subset of Done): computed by some earlier sweep —
	// possibly another session or process — and not recomputed.
	Stored int
	// Retried counts evaluation attempts beyond each variant's first
	// (see Retry).
	Retried int
}

// Result is one evaluated variant, delivered as soon as it completes.
// Index is the variant's position in the input slice (results arrive in
// completion order, not input order). Exactly one of Analysis and Err is
// set: a failed variant carries its *VariantError instead of an analysis.
type Result struct {
	Index    int
	Machine  *hw.Machine
	Analysis *hotspot.Analysis
	// Stored marks an analysis served from the content-addressed result
	// store: decoded bit-identically from an earlier sweep's record, not
	// recomputed.
	Stored bool
	// Attempts is the number of evaluation attempts the variant consumed
	// (0 when served from the store, 1 on a first-try success or without
	// retries).
	Attempts int
	// Err is the variant's failure (validation, the confidence floor, or
	// a recovered panic), nil on success.
	Err error
}

// Engine evaluates machine variants over one fixed prepared workload's
// layout. It is safe for concurrent use.
type Engine struct {
	layout   *hotspot.Layout
	newModel func(*hw.Machine) *hw.Model
	workers  int
	progress func(Progress)

	// retry is the per-variant attempt budget (see Retry).
	retry resilience.Policy

	// minConf is the confidence floor (see MinConfidence); 0 disables it.
	minConf float64

	// Content-addressed store state (see CAS in cas.go): cas serves and
	// receives results under the casMode digest.
	cas     *store.Store
	casMode string

	mu     sync.Mutex
	casErr error

	// evals counts evaluation attempts, for CacheStats.
	evals atomic.Int64
}

// Option configures an Engine.
type Option func(*Engine)

// Workers bounds the evaluation pool at n concurrent workers. Values < 1
// mean the default, runtime.GOMAXPROCS.
func Workers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// ModelFunc substitutes the roofline model constructor (default
// hw.NewModel) — e.g. hw.NewVectorAwareModel or hw.NewDivAwareModel for
// the ablation variants. The store addresses results by layout, machine and
// mode, never by constructor, so an engine with a substitute constructor
// must not be given CAS; pipeline.Explorer never does both.
func ModelFunc(f func(*hw.Machine) *hw.Model) Option {
	return func(e *Engine) {
		if f != nil {
			e.newModel = f
		}
	}
}

// OnProgress installs a callback invoked (serially) after each completed
// variant with a sweep-level snapshot.
func OnProgress(f func(Progress)) Option {
	return func(e *Engine) { e.progress = f }
}

// Retry installs a per-variant attempt budget: a variant whose evaluation
// fails is evaluated again at once, up to p.MaxAttempts times in all,
// unless the failure is a validation rejection or another error
// resilience.Retryable refuses. The default is one attempt per variant.
func Retry(p resilience.Policy) Option {
	return func(e *Engine) { e.retry = p }
}

// MinConfidence sets the confidence floor for the engine's sweeps:
// variants whose assembled analysis carries Confidence below c fail with
// an error wrapping ErrLowConfidence instead of ranking alongside
// trustworthy projections. The filter applies identically to fresh
// evaluations and store hits, so a rerun over the store flags the same
// variants an uninterrupted one would. c <= 0 (the default) disables the
// floor.
func MinConfidence(c float64) Option {
	return func(e *Engine) { e.minConf = c }
}

// New builds an exploration engine for one modeled workload's
// machine-independent layout (pipeline.Run.Layout); per-variant work is
// projection only.
func New(l *hotspot.Layout, opts ...Option) *Engine {
	e := &Engine{
		layout:   l,
		newModel: hw.NewModel,
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// CacheStats returns the engine's cumulative evaluation attempts.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{Misses: int(e.evals.Load())}
}

// evaluate projects one variant onto the engine's layout. A panic anywhere
// below (a poisoned model constructor, say) is recovered into an error
// wrapping guard.ErrPanic — the worker pool stays alive. The message is a
// constant: the *VariantError that carries the error names the machine.
// The guard.Hit call is a fault-injection point (no-op unless a test arms
// "explore.evaluate"). Validation rejections come back marked
// resilience.Permanent: re-running an invalid machine cannot help.
func (e *Engine) evaluate(m *hw.Machine) (a *hotspot.Analysis, err error) {
	defer guard.Recover(&err, "evaluate")
	e.evals.Add(1)
	guard.Hit("explore.evaluate", m.Name)
	if verr := m.Validate(); verr != nil {
		return nil, resilience.Permanent(verr)
	}
	return e.layout.Analyze(e.newModel(m)), nil
}

// Pool calls fn(i) for each i in [0, n) on up to workers goroutines
// (runtime.GOMAXPROCS when workers < 1), each claiming the next unclaimed
// index. Once ctx is canceled no further index is claimed. The returned
// wait blocks until every worker has exited.
func Pool(ctx context.Context, n, workers int, fn func(i int)) (wait func()) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	return wg.Wait
}

// Each evaluates the variants on Pool, bounded by Workers, and calls fn
// with each variant's Result on the worker that produced it, as soon as it
// completes. fn runs on up to Workers goroutines at once, so it must
// synchronize whatever its calls share; results indexed by Result.Index
// need no lock. Variant failures are isolated: a variant that fails
// validation, modeling, or panics yields a Result whose Err is a
// *VariantError, and the remaining variants keep going. Only context
// cancellation stops the sweep early. Each returns once every worker has
// exited, reporting the sweep's outcome: nil, or the context's error —
// always wrapped, so callers can errors.Is against context.Canceled and
// friends — joined with any store degradation. Per-variant errors travel
// on the Results, not through the returned error.
func (e *Engine) Each(ctx context.Context, variants []*hw.Machine, fn func(Result)) error {
	var (
		progressMu sync.Mutex
		progress   Progress
	)
	Pool(ctx, len(variants), e.workers, func(i int) {
		r := e.result(i, variants[i])
		fn(r)
		if e.progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		progress.Done++
		if r.Stored {
			progress.Stored++
		}
		if r.Attempts > 1 {
			progress.Retried += r.Attempts - 1
		}
		e.progress(progress)
	})()
	return e.outcome(ctx)
}

// Stream is Each with the Results sent on the returned channel instead of
// to a callback. The channel closes when every variant is done or the
// context is canceled. The returned wait function blocks until all workers
// have exited and reports Each's outcome as of when it is called.
func (e *Engine) Stream(ctx context.Context, variants []*hw.Machine) (<-chan Result, func() error) {
	// Sized to its number of sends: no worker ever waits on the consumer,
	// so a canceled sweep stops without draining and an abandoned channel
	// strands no sender.
	out := make(chan Result, len(variants))
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		defer close(out)
		// wait reads the outcome itself, so that a cancellation after the
		// last result still reports.
		_ = e.Each(ctx, variants, func(r Result) { out <- r })
	}()
	wait := func() error {
		<-finished
		return e.outcome(ctx)
	}
	return out, wait
}

// result evaluates variant i, m: served from the store or evaluated
// within the Retry budget, then held to the confidence floor.
func (e *Engine) result(i int, m *hw.Machine) Result {
	r := Result{Index: i, Machine: m}
	if a, ok := e.casGet(m); ok {
		// Stored by an earlier sweep — possibly another session or
		// process — under the same (layout, machine, mode) identity:
		// decoded bit-identically, zero recomputation. The confidence
		// gate still applies (the stored score is the computed one).
		if lcErr := e.confidenceErr(a); lcErr != nil {
			r.Err = e.variantError(i, m, 0, lcErr)
		} else {
			r.Analysis = a
			r.Stored = true
		}
		return r
	}
	var a *hotspot.Analysis
	attempts, err := e.retry.Do(func() (err error) {
		a, err = e.evaluate(m)
		return err
	})
	r.Attempts = attempts
	if err != nil {
		r.Err = e.variantError(i, m, attempts, err)
		return r
	}
	// Store before the confidence gate: the result is valid either way,
	// and a rerun gates the stored score the same way.
	e.casPut(m, a)
	if lcErr := e.confidenceErr(a); lcErr != nil {
		r.Err = e.variantError(i, m, attempts, lcErr)
	} else {
		r.Analysis = a
	}
	return r
}

// outcome is a sweep's error once its workers have exited: the context's
// error, wrapped, joined with any store degradation; nil for neither.
func (e *Engine) outcome(ctx context.Context) error {
	var errs []error
	if err := ctx.Err(); err != nil {
		errs = append(errs, fmt.Errorf("explore: sweep canceled: %w", err))
	}
	if cerr := e.casError(); cerr != nil {
		errs = append(errs, cerr)
	}
	return errors.Join(errs...)
}

// confidenceErr applies the MinConfidence floor to a successfully
// assembled analysis: nil when the floor is disabled or met, an error
// wrapping ErrLowConfidence (and marked permanent — re-evaluating cannot
// raise the score) otherwise.
func (e *Engine) confidenceErr(a *hotspot.Analysis) error {
	if e.minConf <= 0 || a.Confidence >= e.minConf {
		return nil
	}
	return resilience.Permanent(fmt.Errorf("%w: confidence %.4g below floor %.4g (%d diagnostics)",
		ErrLowConfidence, a.Confidence, e.minConf, len(a.Diagnostics)))
}

// variantError builds the enriched attribution for one failed variant.
func (e *Engine) variantError(i int, m *hw.Machine, attempts int, err error) *VariantError {
	return &VariantError{
		Index: i, Machine: m,
		MachineName: m.Name, Fingerprint: m.Fingerprint(),
		Attempts: attempts, Err: err,
	}
}
