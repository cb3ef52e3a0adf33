package main

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"skope/internal/cliflags"
	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/pipeline"
	"skope/internal/resilience"
	"skope/internal/store"
	"skope/internal/workloads"
)

// sessionRequest is the POST /v1/sessions body. Everything except the
// sweep axes is optional; omitted knobs inherit the daemon's defaults.
type sessionRequest struct {
	// Bench names a built-in benchmark; Source submits minilang text
	// instead. Exactly one must be set.
	Bench  string  `json:"bench,omitempty"`
	Source string  `json:"source,omitempty"`
	Scale  float64 `json:"scale,omitempty"`

	// Machine is the base preset the sweep axes vary around.
	Machine string `json:"machine,omitempty"`
	// Sweep lists the grid axes, e.g. "mem-bandwidth=16,32,64".
	Sweep []string `json:"sweep"`

	// Mode selects the sweep strategy: "" or "exact" evaluates the full
	// grid (the golden reference); "adaptive" runs the surrogate-guided
	// search, evaluating only the variants the acquisition loop chooses
	// and streaming a round trace alongside the results.
	Mode string `json:"mode,omitempty"`
	// AdaptiveBudget caps the adaptive search's evaluations (0 = converge
	// on patience alone); AdaptiveSeed keys its deterministic bootstrap
	// sample.
	AdaptiveBudget int    `json:"adaptive_budget,omitempty"`
	AdaptiveSeed   uint64 `json:"adaptive_seed,omitempty"`

	// Workers is the session's worker budget — tokens it holds from the
	// daemon's global semaphore while running (default 1).
	Workers int `json:"workers,omitempty"`

	// Limits and Lenient override the daemon's guard defaults.
	Limits  string `json:"limits,omitempty"`
	Lenient *bool  `json:"lenient,omitempty"`

	// Coverage, Leanness and Spots override the hot-spot criteria.
	Coverage float64 `json:"coverage,omitempty"`
	Leanness float64 `json:"leanness,omitempty"`
	Spots    *int    `json:"spots,omitempty"`

	// MinConfidence and Retries are the sweep's quality floor and its
	// per-variant retry budget (immediate re-evaluations).
	MinConfidence float64 `json:"min_confidence,omitempty"`
	Retries       int     `json:"retries,omitempty"`
}

// Session states.
const (
	stateQueued   = "queued" // waiting for worker-budget tokens
	stateRunning  = "running"
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// Session sweep modes.
const (
	modeExact    = "exact"
	modeAdaptive = "adaptive"
)

// session is one submitted sweep and its lifecycle. All mutable fields are
// behind mu; done closes when the terminal state is reached.
type session struct {
	id      string
	req     sessionRequest
	created time.Time

	workload *workloads.Workload
	base     *hw.Machine
	variants []*hw.Machine
	axes     []explore.Axis
	workers  int
	opts     []pipeline.Option

	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	state    string
	finished time.Time // when the terminal state was reached (GC clock)
	errMsg   string
	degraded bool
	progress explore.Progress
	evals    []*pipeline.Eval // index-aligned with variants
	baseEval *pipeline.Eval
	summary  *pipeline.SweepSummary
	// rounds is an adaptive session's round trace, grown as rounds
	// complete (the result stream tails it live); the final search
	// outcome is summary.Adaptive.
	rounds []explore.RoundTrace
}

func (s *session) setState(state string) {
	s.mu.Lock()
	s.state = state
	s.mu.Unlock()
}

// newSession validates the request against the daemon defaults and
// assembles everything the runner needs. Validation failures surface as
// *requestError (HTTP 400); nothing is computed yet.
func (srv *server) newSession(id string, req sessionRequest) (*session, error) {
	if (req.Bench == "") == (req.Source == "") {
		return nil, badRequest("exactly one of bench or source is required")
	}
	if len(req.Sweep) == 0 {
		return nil, badRequest("sweep axes are required")
	}
	scale := req.Scale
	if scale == 0 {
		scale = 1
	}
	var w *workloads.Workload
	var err error
	if req.Source != "" {
		w = &workloads.Workload{
			Name:        "session-" + id,
			Description: "submitted source (session " + id + ")",
			Source:      req.Source,
			Seed:        1,
		}
	} else if w, err = workloads.Get(req.Bench, workloads.Scale(scale)); err != nil {
		return nil, badRequest(err.Error())
	}

	preset := req.Machine
	if preset == "" {
		preset = srv.cfg.machine
	}
	base, err := hw.Preset(preset)
	if err != nil {
		return nil, badRequest(err.Error())
	}
	var sw cliflags.Sweep
	for _, spec := range req.Sweep {
		if err := sw.Axes.Set(spec); err != nil {
			return nil, badRequest("sweep: " + err.Error())
		}
	}
	axes, err := sw.Axes.Axes()
	if err != nil {
		return nil, badRequest("sweep: " + err.Error())
	}
	variants, err := sw.Variants(base)
	if err != nil {
		return nil, badRequest("sweep: " + err.Error())
	}
	switch req.Mode {
	case "", modeExact, modeAdaptive:
	default:
		return nil, badRequest(`mode must be "exact" or "adaptive"`)
	}

	limSrc := srv.cfg.grd.Limits
	if req.Limits != "" {
		limSrc = req.Limits
	}
	lim, err := guard.ParseLimits(limSrc)
	if err != nil {
		return nil, badRequest("limits: " + err.Error())
	}
	lenient := srv.cfg.grd.Lenient
	if req.Lenient != nil {
		lenient = *req.Lenient
	}
	crit := srv.cfg.crit.Resolve()
	if req.Coverage != 0 {
		crit.TimeCoverage = req.Coverage
	}
	if req.Leanness != 0 {
		crit.CodeLeanness = req.Leanness
	}
	if req.Spots != nil {
		crit.MaxSpots = *req.Spots
	}
	workers := req.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > cap(srv.sem) {
		workers = cap(srv.sem)
	}

	sess := &session{
		id:       id,
		req:      req,
		created:  time.Now(),
		workload: w,
		base:     base,
		variants: variants,
		axes:     axes,
		workers:  workers,
		state:    stateQueued,
		done:     make(chan struct{}),
	}
	sess.opts = []pipeline.Option{
		pipeline.WithLimits(lim),
		pipeline.WithLenient(lenient),
		pipeline.WithCriteria(crit),
		pipeline.WithWorkers(workers),
		pipeline.WithRetry(resilience.DefaultPolicy(req.Retries)),
		pipeline.WithMinConfidence(req.MinConfidence),
		pipeline.WithProgress(func(p explore.Progress) {
			sess.mu.Lock()
			sess.progress = p
			sess.mu.Unlock()
		}),
	}
	return sess, nil
}

// run executes the session: acquire the worker budget, run the sweep —
// exhaustive or adaptive — through the shared store, record the outcome.
// The base machine is swept as the last variant, so a baseline below the
// confidence floor fails the session in either mode. run owns the
// session's terminal state.
func (srv *server) run(ctx context.Context, sess *session) {
	defer func() {
		// Terminal bookkeeping: stamp the finish time (the -session-ttl GC
		// clock), release the admission-control slot, then wake waiters.
		sess.mu.Lock()
		sess.finished = time.Now()
		sess.mu.Unlock()
		srv.mu.Lock()
		srv.active--
		srv.mu.Unlock()
		close(sess.done)
	}()

	// Hold `workers` tokens of the daemon's global budget for the whole
	// sweep. Tokens are acquired one at a time so several queued sessions
	// make progress as budget frees up; cancellation while queued releases
	// whatever was acquired.
	held := 0
	defer func() {
		for ; held > 0; held-- {
			<-srv.sem
		}
	}()
	for ; held < sess.workers; held++ {
		select {
		case srv.sem <- struct{}{}:
		case <-ctx.Done():
			sess.setState(stateCanceled)
			return
		}
	}
	sess.setState(stateRunning)

	all := append(append([]*hw.Machine{}, sess.variants...), sess.base)
	var evals []*pipeline.Eval
	var sum *pipeline.SweepSummary
	var err error
	if sess.req.Mode == modeAdaptive {
		evals, sum, err = pipeline.SweepAdaptive(ctx, sess.workload, all, srv.store, sess.axes, explore.AdaptiveOptions{
			Seed:     sess.req.AdaptiveSeed,
			MaxEvals: sess.req.AdaptiveBudget,
			OnRound: func(tr explore.RoundTrace) {
				sess.mu.Lock()
				sess.rounds = append(sess.rounds, tr)
				sess.mu.Unlock()
			},
		}, sess.opts...)
	} else {
		evals, sum, err = pipeline.SweepCached(ctx, sess.workload, all, srv.store, sess.opts...)
	}
	if err != nil && !tolerable(err) || evals == nil {
		if ctx.Err() != nil {
			sess.setState(stateCanceled)
			return
		}
		sess.fail(err)
		return
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.baseEval = evals[len(all)-1]
	sess.evals = evals[:len(sess.variants)]
	sess.summary = sum
	sess.degraded = err != nil || sum.Confidence < 1 || len(sum.Diagnostics) > 0
	if err != nil {
		sess.errMsg = err.Error()
	}
	// A fully warm run never invoked the engine, so synthesize the final
	// progress from the summary. Like every count skoped reports, it
	// includes the base machine: an adaptive session evaluated the
	// search's spend plus the base.
	done := sum.Total
	if ad := sum.Adaptive; ad != nil {
		done = ad.Evals + 1
	}
	sess.progress = explore.Progress{
		Done: done, Stored: sum.FromStore, Retried: sess.progress.Retried,
	}
	if sess.baseEval == nil {
		sess.state = stateFailed
		sess.errMsg = "baseline " + sess.base.Name + " failed to evaluate"
		return
	}
	sess.state = stateDone
}

func (s *session) fail(err error) {
	s.mu.Lock()
	s.state = stateFailed
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// tolerable reports whether a sweep error leaves usable results: poisoned
// variants (reported per-variant), or store degradation (results
// complete, cache coverage partial).
func tolerable(err error) bool {
	var sweepErr *explore.SweepError
	return errors.As(err, &sweepErr) || errors.Is(err, store.ErrDegraded)
}

// ranked returns the indices of the session's healthy evals in ascending
// projected-time order, NaN and infinite totals last.
func (s *session) ranked() []int {
	var order []int
	for i, ev := range s.evals {
		if ev != nil {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return explore.RanksAhead(s.evals[order[a]].Analysis.TotalTime, s.evals[order[b]].Analysis.TotalTime)
	})
	return order
}

// analyses returns the session's analyses index-aligned with its variants
// (nil for failed variants) — the shape explore.Pareto consumes.
func (s *session) analyses() []*hotspot.Analysis {
	out := make([]*hotspot.Analysis, len(s.evals))
	for i, ev := range s.evals {
		if ev != nil {
			out[i] = ev.Analysis
		}
	}
	return out
}

// badRequest marks a client error (HTTP 400).
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

func badRequest(msg string) error { return &requestError{msg: msg} }
