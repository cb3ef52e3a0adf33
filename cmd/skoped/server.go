package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/store"
	"skope/internal/workloads"
)

// server holds the daemon's shared state: the content-addressed store,
// the global worker-budget semaphore, and the session table.
type server struct {
	cfg   daemonConfig
	store *store.Store  // nil when -store is empty
	sem   chan struct{} // counting semaphore: one token per busy worker

	// draining flips on SIGTERM/SIGINT: new sessions are refused with 503
	// while in-flight work finishes.
	draining atomic.Bool

	// stop ends the maintenance loops (session GC, store scrub); loops
	// tracks them so Close can wait.
	stop     chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*session
	order    []string
	nextID   int
	active   int // sessions queued or running — the -max-sessions gauge
}

func newServer(cfg daemonConfig) (*server, error) {
	if _, err := guard.ParseLimits(cfg.grd.Limits); err != nil {
		return nil, fmt.Errorf("-limits: %w", err)
	}
	budget := cfg.maxWorkers
	if budget < 1 {
		budget = defaultBudget()
	}
	srv := &server{
		cfg:      cfg,
		sem:      make(chan struct{}, budget),
		sessions: make(map[string]*session),
		stop:     make(chan struct{}),
	}
	if cfg.storePath != "" {
		st, err := store.Open(cfg.storePath)
		if err != nil {
			return nil, err
		}
		srv.store = st
	}
	if cfg.serve.SessionTTL > 0 {
		srv.loops.Add(1)
		go srv.gcLoop()
	}
	if srv.store != nil && cfg.serve.ScrubInterval > 0 {
		srv.loops.Add(1)
		go srv.scrubLoop()
	}
	return srv, nil
}

// Close stops the maintenance loops, cancels every running session, and
// closes the store.
func (srv *server) Close() {
	srv.stopOnce.Do(func() { close(srv.stop) })
	srv.loops.Wait()
	srv.mu.Lock()
	for _, sess := range srv.sessions {
		if sess.cancel != nil {
			sess.cancel()
		}
	}
	sessions := make([]*session, 0, len(srv.sessions))
	for _, sess := range srv.sessions {
		sessions = append(sessions, sess)
	}
	srv.mu.Unlock()
	for _, sess := range sessions {
		<-sess.done
	}
	if srv.store != nil {
		srv.store.Close()
	}
}

// Handler builds the daemon's route table.
func (srv *server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", srv.handleHealthz)
	mux.HandleFunc("GET /v1/params", srv.handleParams)
	mux.HandleFunc("POST /v1/sessions", srv.handleSubmit)
	mux.HandleFunc("GET /v1/sessions", srv.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", srv.handleInspect)
	mux.HandleFunc("GET /v1/sessions/{id}/results", srv.handleResults)
	mux.HandleFunc("POST /v1/sessions/{id}/cancel", srv.handleCancel)
	return mux
}

// beginDrain flips the server into drain mode: healthz reports it, and
// new session submissions are refused with 503. Running sessions and
// result streams keep serving.
func (srv *server) beginDrain() { srv.draining.Store(true) }

// awaitSessions blocks until every session has reached a terminal state
// or ctx expires; it reports whether all of them finished.
func (srv *server) awaitSessions(ctx context.Context) bool {
	srv.mu.Lock()
	sessions := make([]*session, 0, len(srv.sessions))
	for _, sess := range srv.sessions {
		sessions = append(sessions, sess)
	}
	srv.mu.Unlock()
	for _, sess := range sessions {
		select {
		case <-sess.done:
		case <-ctx.Done():
			return false
		}
	}
	return true
}

// gcLoop periodically drops sessions that reached a terminal state more
// than -session-ttl ago, keeping the session table bounded on a daemon
// that serves submissions indefinitely.
func (srv *server) gcLoop() {
	defer srv.loops.Done()
	interval := srv.cfg.serve.SessionTTL / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-srv.stop:
			return
		case <-t.C:
			srv.gcSessions(time.Now())
		}
	}
}

// gcSessions removes sessions whose terminal state is older than the TTL
// and reports how many it dropped. Queued and running sessions (finished
// is zero) are never touched.
func (srv *server) gcSessions(now time.Time) (removed int) {
	ttl := srv.cfg.serve.SessionTTL
	if ttl <= 0 {
		return 0
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	kept := srv.order[:0]
	for _, id := range srv.order {
		sess := srv.sessions[id]
		sess.mu.Lock()
		fin := sess.finished
		sess.mu.Unlock()
		if !fin.IsZero() && now.Sub(fin) >= ttl {
			delete(srv.sessions, id)
			removed++
			continue
		}
		kept = append(kept, id)
	}
	srv.order = kept
	return removed
}

// scrubLoop periodically re-verifies every store record, quarantining
// corrupt ones so the next matching evaluation recomputes and replaces
// them. One pass runs at startup — a store damaged while the daemon was
// down should not wait a full interval to be noticed.
func (srv *server) scrubLoop() {
	defer srv.loops.Done()
	srv.store.Scrub()
	t := time.NewTicker(srv.cfg.serve.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-srv.stop:
			return
		case <-t.C:
			srv.store.Scrub()
		}
	}
}

// writeUnavailable refuses work with 503 and a Retry-After hint — the
// load-shedding contract: the daemon is healthy, the client should back
// off and retry rather than fail over.
func writeUnavailable(w http.ResponseWriter, retryAfter time.Duration, msg string) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusServiceUnavailable, msg)
}

// capacityRetryAfter is the Retry-After hint for -max-sessions refusals:
// long enough to thin a thundering herd, short enough that capacity freed
// by a finishing session is found quickly.
const capacityRetryAfter = 5 * time.Second

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (srv *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	srv.mu.Lock()
	n := len(srv.sessions)
	active := srv.active
	srv.mu.Unlock()
	status := "ok"
	if srv.draining.Load() {
		status = "draining"
	}
	resp := map[string]any{
		"status":          status,
		"sessions":        n,
		"active_sessions": active,
		"worker_budget":   cap(srv.sem),
		"busy_workers":    len(srv.sem),
	}
	if max := srv.cfg.serve.MaxSessions; max > 0 {
		resp["max_sessions"] = max
	}
	if srv.store != nil {
		stats := srv.store.Stats()
		storeMap := map[string]any{
			"path":        srv.store.Path(),
			"records":     srv.store.Len(),
			"hits":        stats.Hits,
			"misses":      stats.Misses,
			"quarantined": len(srv.store.Quarantined()),
		}
		if runs, last := srv.store.ScrubStats(); runs > 0 {
			storeMap["scrub"] = map[string]any{
				"runs":     runs,
				"checked":  last.Checked,
				"bad":      last.Bad,
				"healed":   last.Healed,
				"problems": last.Problems,
			}
		}
		resp["store"] = storeMap
	}
	writeJSON(w, http.StatusOK, resp)
}

func (srv *server) handleParams(w http.ResponseWriter, r *http.Request) {
	type benchInfo struct {
		Name        string `json:"Name"`
		Description string `json:"Description"`
	}
	var benches []benchInfo
	for _, n := range workloads.Names() {
		wl, _ := workloads.Get(n, 1)
		benches = append(benches, benchInfo{Name: n, Description: wl.Description})
	}
	var machines []string
	for n := range hw.Presets() {
		machines = append(machines, n)
	}
	sort.Strings(machines)
	writeJSON(w, http.StatusOK, map[string]any{
		"benchmarks":       benches,
		"machines":         machines,
		"sweep_parameters": explore.ParamHelp(),
		"limit_keys":       guard.LimitKeys(),
	})
}

func (srv *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if srv.draining.Load() {
		writeUnavailable(w, srv.cfg.drainTimeout, "draining: not accepting new sessions")
		return
	}
	var req sessionRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "body: "+err.Error())
		return
	}
	srv.mu.Lock()
	srv.nextID++
	id := fmt.Sprintf("s-%06d", srv.nextID)
	srv.mu.Unlock()

	sess, err := srv.newSession(id, req)
	if err != nil {
		var reqErr *requestError
		if errors.As(err, &reqErr) {
			writeError(w, http.StatusBadRequest, reqErr.msg)
		} else {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	sess.cancel = cancel
	// Admission control: the capacity check and the table insert share one
	// critical section, so concurrent submissions cannot both slip under
	// the cap. Validation ran first — a malformed request gets its 400
	// even at capacity.
	srv.mu.Lock()
	if max := srv.cfg.serve.MaxSessions; max > 0 && srv.active >= max {
		srv.mu.Unlock()
		cancel()
		writeUnavailable(w, capacityRetryAfter,
			fmt.Sprintf("at capacity: %d sessions queued or running (-max-sessions)", max))
		return
	}
	srv.active++
	srv.sessions[id] = sess
	srv.order = append(srv.order, id)
	srv.mu.Unlock()
	go srv.run(ctx, sess)
	writeJSON(w, http.StatusCreated, srv.sessionInfo(sess))
}

func (srv *server) handleList(w http.ResponseWriter, r *http.Request) {
	srv.mu.Lock()
	infos := make([]*wireSession, 0, len(srv.order))
	for _, id := range srv.order {
		infos = append(infos, srv.sessionInfo(srv.sessions[id]))
	}
	srv.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

// lookup resolves the {id} path segment; nil means the response was
// already written.
func (srv *server) lookup(w http.ResponseWriter, r *http.Request) *session {
	srv.mu.Lock()
	sess := srv.sessions[r.PathValue("id")]
	srv.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, "no session "+r.PathValue("id"))
	}
	return sess
}

func (srv *server) handleInspect(w http.ResponseWriter, r *http.Request) {
	if sess := srv.lookup(w, r); sess != nil {
		writeJSON(w, http.StatusOK, srv.sessionInfo(sess))
	}
}

func (srv *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sess := srv.lookup(w, r)
	if sess == nil {
		return
	}
	sess.cancel()
	<-sess.done
	writeJSON(w, http.StatusOK, srv.sessionInfo(sess))
}

// wireSession is a session snapshot: GET /v1/sessions and the submit
// response.
type wireSession struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	Variants int    `json:"variants"`
	Mode     string `json:"mode,omitempty"` // "adaptive" for surrogate-guided sessions
	Workers  int    `json:"workers"`
	Created  string `json:"created"`

	Done    int `json:"done"`
	Stored  int `json:"stored,omitempty"`
	Retried int `json:"retried,omitempty"`

	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
}

func (srv *server) sessionInfo(sess *session) *wireSession {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return &wireSession{
		ID:       sess.id,
		State:    sess.state,
		Workload: sess.workload.Name,
		Machine:  sess.base.Name,
		Variants: len(sess.variants) + 1,
		Mode:     sess.req.Mode,
		Workers:  sess.workers,
		Created:  sess.created.UTC().Format(time.RFC3339),
		Done:     sess.progress.Done,
		Stored:   sess.progress.Stored,
		Retried:  sess.progress.Retried,
		Degraded: sess.degraded,
		Error:    sess.errMsg,
	}
}

// Result-stream wire types. The stream is JSON lines (chunked transfer):
// zero or more progress lines while the session runs, one result line per
// healthy variant in rank order, and a summary trailer carrying the
// Pareto frontier.
type wireProgress struct {
	Type   string `json:"type"` // "progress"
	State  string `json:"state"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Stored int    `json:"stored,omitempty"`
}

// wireFloat is a float64 on the wire. encoding/json refuses NaN and ±Inf,
// which a variant's projected times can be, so a non-finite value is
// spelled null; a finite one encodes exactly as a float64 does.
type wireFloat float64

func (f wireFloat) MarshalJSON() ([]byte, error) {
	if v := float64(f); !math.IsNaN(v) && !math.IsInf(v, 0) {
		return json.Marshal(v)
	}
	return []byte("null"), nil
}

// wireResult is one ranked variant — the session's pipeline.Eval on the
// wire. Analysis carries the store's canonical encoding (hotspot.
// EncodeAnalysis), so daemon clients read the exact bytes the store
// serves and the full per-block breakdown; the scalar fields beside it
// are conveniences lifted from the Eval.
type wireResult struct {
	Type        string          `json:"type"` // "result"
	Rank        int             `json:"rank"`
	Variant     string          `json:"variant"`
	Fingerprint string          `json:"machine_fingerprint"`
	TotalTimeS  wireFloat       `json:"total_time_s"`
	Speedup     wireFloat       `json:"speedup"`
	Confidence  float64         `json:"confidence"`
	Provenance  string          `json:"provenance"`
	Degraded    bool            `json:"degraded,omitempty"`
	Spots       []wireSpot      `json:"spots"`
	Diagnostics []string        `json:"diagnostics,omitempty"`
	Analysis    json.RawMessage `json:"analysis,omitempty"`
}

type wireSpot struct {
	Block       string    `json:"block"`
	Coverage    wireFloat `json:"coverage"`
	MemoryBound bool      `json:"memory_bound,omitempty"`
}

// wireRound is one adaptive acquisition round on the stream: the
// explore.RoundTrace fields inlined under a "round" type tag. Rounds are
// emitted live while an adaptive session runs and backfilled before the
// results for clients that connect late.
type wireRound struct {
	Type string `json:"type"` // "round"
	explore.RoundTrace
}

type wirePareto struct {
	Variant string    `json:"variant"`
	Cost    float64   `json:"cost"`
	TimeS   wireFloat `json:"time_s"`
}

type wireSummary struct {
	Type              string       `json:"type"` // "summary"
	State             string       `json:"state"`
	Workload          string       `json:"workload"`
	LayoutFingerprint string       `json:"layout_fingerprint,omitempty"`
	Total             int          `json:"total"`
	Computed          int          `json:"computed"`
	FromStore         int          `json:"from_store"`
	SkippedPrepare    bool         `json:"skipped_prepare"`
	Confidence        float64      `json:"confidence"`
	Degraded          bool         `json:"degraded,omitempty"`
	Error             string       `json:"error,omitempty"`
	Baseline          string       `json:"baseline"`
	BaselineTimeS     wireFloat    `json:"baseline_time_s"`
	Best              string       `json:"best,omitempty"`
	Pareto            []wirePareto `json:"pareto"`

	// Adaptive-mode trailer fields: the evaluation spend against the full
	// grid, the round count, and whether the search converged on patience
	// (false: budget or grid exhausted). The per-round detail is on the
	// "round" stream lines.
	Mode      string `json:"mode,omitempty"`
	Evals     int    `json:"evals,omitempty"`
	GridSize  int    `json:"grid_size,omitempty"`
	Rounds    int    `json:"rounds,omitempty"`
	Converged bool   `json:"converged,omitempty"`
}

// handleResults streams the session's outcome as chunked JSON lines. While
// the session runs it emits progress lines (flushed, so clients see live
// state); once the session reaches a terminal state it streams the ranked
// results and the summary trailer. ?full=1 embeds each variant's canonical
// analysis encoding in its result line.
func (srv *server) handleResults(w http.ResponseWriter, r *http.Request) {
	sess := srv.lookup(w, r)
	if sess == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Session-ID", sess.id)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	deadline := srv.cfg.serve.StreamWriteTimeout
	// send emits one NDJSON line under the per-write deadline. A false
	// return means the client stalled past -stream-write-timeout or went
	// away — the stream must stop, not keep ticking into a dead socket.
	send := func(v any) bool {
		if deadline > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(deadline))
		}
		return enc.Encode(v) == nil
	}
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	// roundsSent tracks how many adaptive round lines this stream has
	// emitted; new rounds are flushed live on each tick and the remainder
	// backfilled after the session completes, so every stream carries the
	// full trace regardless of when the client connected.
	roundsSent := 0
	emitRounds := func(rounds []explore.RoundTrace) bool {
		for ; roundsSent < len(rounds); roundsSent++ {
			if !send(wireRound{Type: "round", RoundTrace: rounds[roundsSent]}) {
				return false
			}
		}
		return true
	}

	ticker := time.NewTicker(200 * time.Millisecond)
	defer ticker.Stop()
wait:
	for {
		select {
		case <-sess.done:
			break wait
		case <-r.Context().Done():
			return
		case <-ticker.C:
			sess.mu.Lock()
			p := sess.progress
			state := sess.state
			rounds := sess.rounds
			sess.mu.Unlock()
			if !emitRounds(rounds) {
				return
			}
			if !send(wireProgress{
				Type: "progress", State: state,
				Done: p.Done, Total: len(sess.variants) + 1, Stored: p.Stored,
			}) {
				return
			}
			flush()
		}
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if !emitRounds(sess.rounds) {
		return
	}
	if sess.state != stateDone {
		_ = send(wireSummary{
			Type: "summary", State: sess.state, Workload: sess.workload.Name,
			Error: sess.errMsg,
		})
		return
	}

	full := r.URL.Query().Get("full") != ""
	baseline := sess.baseEval.Analysis.TotalTime
	for rank, i := range sess.ranked() {
		ev := sess.evals[i]
		line := wireResult{
			Type: "result", Rank: rank + 1,
			Variant:     ev.Machine.Name,
			Fingerprint: ev.Machine.Fingerprint(),
			TotalTimeS:  wireFloat(ev.Analysis.TotalTime),
			Speedup:     wireFloat(baseline / ev.Analysis.TotalTime),
			Confidence:  ev.Confidence,
			Provenance:  ev.Provenance.String(),
			Degraded:    ev.Degraded(),
		}
		for _, s := range ev.Selection.Spots {
			line.Spots = append(line.Spots, wireSpot{
				Block:       s.BlockID,
				Coverage:    wireFloat(ev.Analysis.Coverage(s)),
				MemoryBound: s.MemoryBound,
			})
		}
		for _, d := range ev.Diagnostics {
			line.Diagnostics = append(line.Diagnostics, d.String())
		}
		if full {
			if data, err := hotspot.EncodeAnalysis(ev.Analysis); err == nil {
				line.Analysis = data
			}
		}
		if !send(line) {
			return
		}
		flush()
	}

	sum := wireSummary{
		Type: "summary", State: sess.state,
		Workload:          sess.summary.Workload,
		LayoutFingerprint: sess.summary.LayoutFingerprint,
		Total:             sess.summary.Total,
		Computed:          sess.summary.Computed,
		FromStore:         sess.summary.FromStore,
		SkippedPrepare:    sess.summary.SkippedPrepare,
		Confidence:        sess.summary.Confidence,
		Degraded:          sess.degraded,
		Error:             sess.errMsg,
		Baseline:          sess.base.Name,
		BaselineTimeS:     wireFloat(baseline),
	}
	if ad := sess.summary.Adaptive; ad != nil {
		sum.Mode = modeAdaptive
		sum.Evals = ad.Evals
		sum.GridSize = ad.GridSize
		sum.Rounds = len(ad.Rounds)
		sum.Converged = ad.Converged
	}
	analyses := sess.analyses()
	if best := explore.Best(analyses); best >= 0 {
		sum.Best = sess.variants[best].Name
	}
	for _, p := range explore.Pareto(sess.variants, analyses, explore.RelativeCost) {
		sum.Pareto = append(sum.Pareto, wirePareto{
			Variant: p.Machine.Name, Cost: p.Cost, TimeS: wireFloat(p.Time),
		})
	}
	_ = send(sum)
}

// defaultBudget mirrors pipeline.WithWorkers(0): GOMAXPROCS.
func defaultBudget() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}
