package main

// Robustness suite: the daemon under overload, slow consumers, session-table
// growth, and store corruption. The contracts under test are the ones
// DESIGN.md's fault model documents — load shedding answers 503 with a
// Retry-After hint while existing work keeps serving, a stalled NDJSON
// reader is disconnected instead of pinning a handler forever, finished
// sessions are garbage-collected after -session-ttl (running ones never),
// and the scrubber quarantines corrupt store records so the next matching
// sweep transparently recomputes and replaces them.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"skope/internal/guard"
	"skope/internal/journal"
)

// robustServer is testServer with a config hook for the -max-sessions /
// -session-ttl / -scrub-interval / -stream-write-timeout knobs.
func robustServer(t *testing.T, storePath string, budget int, mutate func(*daemonConfig)) (*server, *httptest.Server) {
	t.Helper()
	cfg := daemonConfig{
		addr:       "unused",
		storePath:  storePath,
		machine:    "bgq",
		maxWorkers: budget,
	}
	cfg.crit.Coverage, cfg.crit.Leanness, cfg.crit.MaxSpots = 0.90, 0.50, 10
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// blockEvaluations arms the explore.evaluate fault point so every variant
// evaluation parks until the returned release is called (idempotent via
// t.Cleanup) — a deterministic way to hold sessions in the running state.
func blockEvaluations(t *testing.T) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(ch) }) }
	disarm := guard.Arm("explore.evaluate", func(string) { <-ch })
	t.Cleanup(func() { release(); disarm() })
	return release
}

// retryAfterSeconds parses the Retry-After header, failing on absence.
func retryAfterSeconds(t *testing.T, resp *http.Response) int {
	t.Helper()
	v := resp.Header.Get("Retry-After")
	if v == "" {
		t.Fatal("503 without a Retry-After header")
	}
	secs, err := strconv.Atoi(v)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer second count: %v", v, err)
	}
	return secs
}

// TestOverloadShedding: with -max-sessions saturated, new submissions get
// 503 + Retry-After while healthz and the existing session keep serving;
// once the session finishes, capacity frees and submissions succeed again.
func TestOverloadShedding(t *testing.T) {
	release := blockEvaluations(t)
	_, ts := robustServer(t, "", 1, func(cfg *daemonConfig) {
		cfg.serve.MaxSessions = 1
	})

	id := submit(t, ts.URL, sradSession())

	// Saturated: the next submission is shed, not queued.
	resp, out := postJSON(t, ts.URL+"/v1/sessions", sradSession())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit at capacity: status %d (%v)", resp.StatusCode, out)
	}
	if secs := retryAfterSeconds(t, resp); secs < 1 {
		t.Errorf("Retry-After = %d, want >= 1", secs)
	}

	// Shedding load is not being unhealthy: healthz answers 200/ok and
	// reports the gauge, and the running session stays inspectable.
	h := getJSON(t, ts.URL+"/v1/healthz")
	if h["status"] != "ok" {
		t.Errorf("healthz under overload = %v", h["status"])
	}
	if int(h["max_sessions"].(float64)) != 1 || int(h["active_sessions"].(float64)) != 1 {
		t.Errorf("healthz gauges = max %v active %v, want 1/1", h["max_sessions"], h["active_sessions"])
	}
	if info := getJSON(t, ts.URL+"/v1/sessions/"+id); info["id"] != id {
		t.Errorf("running session not inspectable under overload: %v", info)
	}

	// A malformed request is still a 400, even at capacity.
	if resp, _ := postJSON(t, ts.URL+"/v1/sessions", sessionRequest{Bench: "srad"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed submit at capacity: status %d, want 400", resp.StatusCode)
	}

	// Capacity frees when the session reaches a terminal state.
	release()
	if info := waitState(t, ts.URL, id); info["state"] != stateDone {
		t.Fatalf("blocked session ended %v (%v)", info["state"], info["error"])
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, out := postJSON(t, ts.URL+"/v1/sessions", sradSession())
		if resp.StatusCode == http.StatusCreated {
			waitState(t, ts.URL, out["id"].(string))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("capacity never freed after session completion: %d (%v)", resp.StatusCode, out)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionGC: finished sessions older than -session-ttl are dropped so
// the table stays bounded on a long-lived daemon; queued and running
// sessions are immune regardless of age.
func TestSessionGC(t *testing.T) {
	_, ts := robustServer(t, "", 4, func(cfg *daemonConfig) {
		cfg.serve.SessionTTL = 400 * time.Millisecond
	})
	small := sessionRequest{Bench: "sord", Sweep: []string{"mem-bandwidth=16,32"}}

	// Soak: a burst of sessions completes, and the table drains to empty
	// within a bounded window instead of growing forever.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		id := submit(t, ts.URL, small)
		wg.Add(1)
		go func() {
			defer wg.Done()
			waitState(t, ts.URL, id)
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if n := len(getJSON(t, ts.URL+"/v1/sessions")["sessions"].([]any)); n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session table not drained: %v", getJSON(t, ts.URL+"/v1/sessions"))
		}
		time.Sleep(25 * time.Millisecond)
	}
	if h := getJSON(t, ts.URL+"/v1/healthz"); int(h["sessions"].(float64)) != 0 {
		t.Errorf("healthz sessions = %v after GC", h["sessions"])
	}

	// Immunity: a session still running well past the TTL is never
	// collected.
	release := blockEvaluations(t)
	id := submit(t, ts.URL, small)
	time.Sleep(3 * 400 * time.Millisecond)
	if info := getJSON(t, ts.URL+"/v1/sessions/"+id); info["id"] != id {
		t.Fatalf("running session was garbage-collected: %v", info)
	}
	release()
	if info := waitState(t, ts.URL, id); info["state"] != stateDone {
		t.Fatalf("session ended %v (%v)", info["state"], info["error"])
	}
}

// stalledWriter simulates an NDJSON consumer that stops reading: the first
// write succeeds, every later write parks until the handler's write
// deadline and then fails the way a kernel send on a full socket does. It
// implements SetWriteDeadline so http.NewResponseController finds it.
type stalledWriter struct {
	mu       sync.Mutex
	header   http.Header
	deadline time.Time
	writes   int
}

func (w *stalledWriter) Header() http.Header {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *stalledWriter) WriteHeader(int) {}

func (w *stalledWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	n := w.writes
	w.writes++
	d := w.deadline
	w.mu.Unlock()
	if n == 0 {
		return len(p), nil
	}
	if d.IsZero() {
		// Without a deadline this handler would block forever on a dead
		// socket; the test fails fast instead of hanging.
		return 0, os.ErrDeadlineExceeded
	}
	time.Sleep(time.Until(d))
	return 0, os.ErrDeadlineExceeded
}

func (w *stalledWriter) SetWriteDeadline(d time.Time) error {
	w.mu.Lock()
	w.deadline = d
	w.mu.Unlock()
	return nil
}

// TestStalledStreamReader: a results stream whose client stops consuming
// is cut off after -stream-write-timeout instead of ticking progress lines
// into a dead socket for the lifetime of the session.
func TestStalledStreamReader(t *testing.T) {
	release := blockEvaluations(t)
	srv, ts := robustServer(t, "", 1, func(cfg *daemonConfig) {
		cfg.serve.StreamWriteTimeout = 100 * time.Millisecond
	})
	id := submit(t, ts.URL, sradSession())

	w := &stalledWriter{}
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id+"/results", nil)
	req.SetPathValue("id", id)
	done := make(chan struct{})
	go func() {
		srv.handleResults(w, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler kept streaming to a stalled reader")
	}
	w.mu.Lock()
	writes, deadline := w.writes, w.deadline
	w.mu.Unlock()
	if writes < 2 {
		t.Errorf("handler returned after %d writes; the stall was never exercised", writes)
	}
	if deadline.IsZero() {
		t.Error("handler never set a write deadline on the stream")
	}

	// The session itself is untouched by its consumer's death.
	release()
	if info := waitState(t, ts.URL, id); info["state"] != stateDone {
		t.Fatalf("session ended %v (%v) after its stream consumer stalled", info["state"], info["error"])
	}
}

// TestScrubberQuarantinesAndHeals is the self-healing-store acceptance: a
// record corrupted while the daemon is down is quarantined by the startup
// scrub (visible in healthz), the next matching sweep recomputes exactly
// that key — results bit-identical to the pre-corruption run — and the
// healing write lifts the quarantine.
func TestScrubberQuarantinesAndHeals(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "cas")
	req := sradSession()

	// Daemon A populates the store.
	srvA, tsA := robustServer(t, storePath, 4, nil)
	cold := submit(t, tsA.URL, req)
	if info := waitState(t, tsA.URL, cold); info["state"] != stateDone {
		t.Fatalf("cold session ended %v (%v)", info["state"], info["error"])
	}
	coldResults, _ := streamLines(t, tsA.URL, cold, "?full=1")
	tsA.Close()
	srvA.Close() // daemon "down"

	// A foreign writer (or version skew) corrupts the top-ranked variant's
	// eval record: a valid journal frame whose payload is not an analysis.
	// (The store also holds the baseline machine's eval; keying on the
	// result's fingerprint pins the corruption to a ranked variant.)
	topFP := coldResults[0]["machine_fingerprint"].(string)
	j, err := journal.OpenFS(nil, storePath)
	if err != nil {
		t.Fatal(err)
	}
	var corruptKey string
	for _, e := range j.Entries() {
		if len(e.Key) > 2 && e.Key[:2] == "e/" && strings.Contains(e.Key, "/"+topFP+"/") {
			corruptKey = e.Key
			break
		}
	}
	if corruptKey == "" {
		t.Fatalf("no eval record for fingerprint %s", topFP)
	}
	if err := j.Append(corruptKey, []byte("not an analysis")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Daemon B scrubs on startup and keeps scrubbing on a short interval.
	_, tsB := robustServer(t, storePath, 4, func(cfg *daemonConfig) {
		cfg.serve.ScrubInterval = 20 * time.Millisecond
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getJSON(t, tsB.URL+"/v1/healthz")["store"].(map[string]any)
		if q, _ := st["quarantined"].(float64); q >= 1 {
			scrub, ok := st["scrub"].(map[string]any)
			if !ok || scrub["runs"].(float64) < 1 || scrub["bad"].(float64) < 1 {
				t.Fatalf("quarantine without scrub stats in healthz: %v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrubber never quarantined the corrupt record: %v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The same sweep transparently recomputes the quarantined key and is
	// served the rest from the store — bit-identical to the cold run.
	warm := submit(t, tsB.URL, req)
	if info := waitState(t, tsB.URL, warm); info["state"] != stateDone {
		t.Fatalf("warm session ended %v (%v)", info["state"], info["error"])
	}
	warmResults, warmSummary := streamLines(t, tsB.URL, warm, "?full=1")
	// The session evaluates the baseline machine too, so a fully warm run
	// serves len(results)+1 evals; exactly the quarantined one recomputes.
	if got, want := int(warmSummary["from_store"].(float64)), len(coldResults); got != want {
		t.Errorf("warm session served %d from store, want %d (all but the quarantined key)", got, want)
	}
	if got := int(warmSummary["computed"].(float64)); got != 1 {
		t.Errorf("warm session computed %d variants, want exactly the quarantined one", got)
	}
	if len(warmResults) != len(coldResults) {
		t.Fatalf("result counts differ: %d vs %d", len(warmResults), len(coldResults))
	}
	recomputed := 0
	for i := range coldResults {
		c, w := coldResults[i], warmResults[i]
		for _, key := range []string{"variant", "total_time_s", "speedup", "confidence"} {
			if c[key] != w[key] {
				t.Errorf("result %d field %s drifted after heal: %v vs %v", i, key, c[key], w[key])
			}
		}
		ca, _ := json.Marshal(c["analysis"])
		wa, _ := json.Marshal(w["analysis"])
		if !bytes.Equal(ca, wa) {
			t.Errorf("result %d analysis not bit-identical after heal", i)
		}
		if w["provenance"] == "computed" {
			recomputed++
		}
	}
	if recomputed != 1 {
		t.Errorf("%d results recomputed, want exactly the quarantined key", recomputed)
	}

	// The healing Put lifted the quarantine.
	st := getJSON(t, tsB.URL+"/v1/healthz")["store"].(map[string]any)
	if q, _ := st["quarantined"].(float64); q != 0 {
		t.Errorf("quarantine survived the healing recompute: %v", st)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	srv, ts := testServer(t, "", 1)

	// A fabricated in-flight session: drain must wait for its done signal.
	hang := &session{id: "s-hang", state: stateRunning, done: make(chan struct{})}
	srv.mu.Lock()
	srv.sessions[hang.id] = hang
	srv.mu.Unlock()

	srv.beginDrain()
	if h := getJSON(t, ts.URL+"/v1/healthz"); h["status"] != "draining" {
		t.Errorf("healthz during drain = %v", h["status"])
	}
	// New submissions are refused with 503...
	resp, _ := postJSON(t, ts.URL+"/v1/sessions", sradSession())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("session submit during drain: status %d, want 503", resp.StatusCode)
	}
	// ...while reads keep serving.
	if p := getJSON(t, ts.URL+"/v1/params"); p["benchmarks"] == nil {
		t.Error("params stopped serving during drain")
	}

	// awaitSessions times out while the session runs, succeeds once done.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if srv.awaitSessions(ctx) {
		t.Error("awaitSessions reported drained with a session in flight")
	}
	close(hang.done)
	if !srv.awaitSessions(context.Background()) {
		t.Error("awaitSessions failed with all sessions done")
	}

	// Clean up the fabricated session so the shared Close path (which
	// waits on done and calls cancel) stays happy.
	srv.mu.Lock()
	delete(srv.sessions, hang.id)
	srv.mu.Unlock()
}
