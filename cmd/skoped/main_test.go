package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"skope/internal/guard"
)

// testServer builds a daemon over the store at storePath; storePath == ""
// runs without the shared store.
func testServer(t *testing.T, storePath string, budget int) (*server, *httptest.Server) {
	t.Helper()
	cfg := daemonConfig{
		addr:       "unused",
		storePath:  storePath,
		machine:    "bgq",
		maxWorkers: budget,
	}
	cfg.crit.Coverage, cfg.crit.Leanness, cfg.crit.MaxSpots = 0.90, 0.50, 10
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// submit posts a session and returns its ID.
func submit(t *testing.T, base string, req sessionRequest) string {
	t.Helper()
	resp, out := postJSON(t, base+"/v1/sessions", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d: %v", resp.StatusCode, out)
	}
	return out["id"].(string)
}

// waitState polls the session until it reaches a terminal state.
func waitState(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		info := getJSON(t, base+"/v1/sessions/"+id)
		switch info["state"] {
		case stateDone, stateFailed, stateCanceled:
			return info
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("session %s did not finish", id)
	return nil
}

// streamLines fetches the session's result stream and splits it into
// result lines and the summary trailer (progress lines are dropped).
func streamLines(t *testing.T, base, id, query string) ([]map[string]any, map[string]any) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id + "/results" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var results []map[string]any
	var summary map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch line["type"] {
		case "result":
			results = append(results, line)
		case "summary":
			summary = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if summary == nil {
		t.Fatal("stream ended without a summary trailer")
	}
	return results, summary
}

// checkCounts holds a finished session's snapshot and summary trailer to
// skoped's count rule: every count includes the base machine, so no done
// exceeds its total, and a clean exhaustive session computed or served
// every variant it counts.
func checkCounts(t *testing.T, info, summary map[string]any, exhaustive bool) {
	t.Helper()
	count := func(m map[string]any, key string) int {
		v, _ := m[key].(float64)
		return int(v)
	}
	total := count(summary, "total")
	if v := count(info, "variants"); v != total {
		t.Errorf("snapshot counts %d variants, trailer total %d", v, total)
	}
	if d := count(info, "done"); d > total {
		t.Errorf("snapshot done %d exceeds total %d", d, total)
	}
	served := count(summary, "computed") + count(summary, "from_store")
	if served > total || exhaustive && served != total {
		t.Errorf("trailer computed+from_store = %d, total %d", served, total)
	}
}

func sradSession() sessionRequest {
	return sessionRequest{
		Bench: "srad",
		Sweep: []string{"mem-bandwidth=16,32,64", "freq-ghz=1.6,2.4"},
	}
}

func TestHealthzAndParams(t *testing.T) {
	_, ts := testServer(t, filepath.Join(t.TempDir(), "cas"), 2)
	h := getJSON(t, ts.URL+"/v1/healthz")
	if h["status"] != "ok" {
		t.Errorf("healthz = %v", h)
	}
	if h["store"] == nil {
		t.Error("healthz missing store stats")
	}
	p := getJSON(t, ts.URL+"/v1/params")
	for _, key := range []string{"benchmarks", "machines", "sweep_parameters", "limit_keys"} {
		if p[key] == nil {
			t.Errorf("params missing %s", key)
		}
	}
	// Exactly the axes a session body is refused for say so.
	var refused []string
	lines, _ := p["sweep_parameters"].([]any)
	for _, l := range lines {
		if line, _ := l.(string); strings.Contains(line, " [refused: ") {
			refused = append(refused, strings.Fields(line)[0])
		}
	}
	if got, want := strings.Join(refused, " "), "issue-width vector-width div-latency l1-size-kb llc-size-mb"; got != want {
		t.Errorf("sweep parameters marked refused: %q, want %q", got, want)
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := testServer(t, "", 2)
	id := submit(t, ts.URL, sradSession())
	info := waitState(t, ts.URL, id)
	if info["state"] != stateDone {
		t.Fatalf("session ended %v (%v)", info["state"], info["error"])
	}
	results, summary := streamLines(t, ts.URL, id, "?full=1")
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	prev := 0.0
	for i, r := range results {
		if int(r["rank"].(float64)) != i+1 {
			t.Errorf("rank %v at position %d", r["rank"], i)
		}
		tt := r["total_time_s"].(float64)
		if tt < prev {
			t.Errorf("results not ranked: %g after %g", tt, prev)
		}
		prev = tt
		if r["speedup"].(float64) <= 0 {
			t.Errorf("bad speedup %v", r["speedup"])
		}
		if r["analysis"] == nil {
			t.Errorf("?full=1 line %d missing analysis payload", i)
		}
		if r["provenance"] != "computed" {
			t.Errorf("provenance %v, want computed", r["provenance"])
		}
	}
	if summary["pareto"] == nil || summary["baseline"] != "BlueGene/Q" && summary["baseline"] == "" {
		t.Errorf("summary incomplete: %v", summary)
	}
	// Six grid variants plus the base machine, swept as the last one.
	if int(summary["total"].(float64)) != 7 {
		t.Errorf("summary total %v", summary["total"])
	}
	checkCounts(t, info, summary, true)
	// The session list knows it too.
	l := getJSON(t, ts.URL+"/v1/sessions")
	if n := len(l["sessions"].([]any)); n != 1 {
		t.Errorf("list has %d sessions", n)
	}
}

// TestSessionNonFiniteVariant: a clock of 1e-320 GHz passes validation but
// projects a NaN total. Its result line spells the non-finite numbers
// null, so the stream goes on past it to the summary trailer, which names
// the finite variant best.
func TestSessionNonFiniteVariant(t *testing.T) {
	_, ts := testServer(t, "", 2)
	id := submit(t, ts.URL, sessionRequest{Bench: "sord", Sweep: []string{"freq-ghz=1e-320,1.6"}})
	if info := waitState(t, ts.URL, id); info["state"] != stateDone {
		t.Fatalf("session ended %v (%v)", info["state"], info["error"])
	}
	results, summary := streamLines(t, ts.URL, id, "")
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	r := results[1]
	if r["rank"] != 2.0 || r["variant"] != "BG/Q[freq-ghz=1e-320]" || r["degraded"] != true {
		t.Errorf("rank 2 is %v %v, degraded %v; want the 1e-320 GHz variant, degraded", r["rank"], r["variant"], r["degraded"])
	}
	for _, key := range []string{"total_time_s", "speedup"} {
		if v, ok := r[key]; !ok || v != nil {
			t.Errorf("rank 2 %s = %v, want null", key, v)
		}
	}
	if summary["best"] != "BG/Q[freq-ghz=1.6]" {
		t.Errorf("summary best %v, want BG/Q[freq-ghz=1.6]", summary["best"])
	}
}

// TestAdaptiveSession drives the "adaptive" session mode end to end:
// the surrogate-guided search runs instead of the exhaustive sweep, the
// NDJSON stream carries the round trace, and the summary reports the
// evaluation savings against the grid size.
func TestAdaptiveSession(t *testing.T) {
	_, ts := testServer(t, "", 2)
	id := submit(t, ts.URL, sessionRequest{
		Bench: "sord",
		Sweep: []string{"freq-ghz=1.2,1.6,2.0,2.4", "mem-latency=80,110,150", "hit-l1=0.9,0.95,0.99"},
		Mode:  "adaptive", AdaptiveSeed: 13,
	})
	info := waitState(t, ts.URL, id)
	if info["state"] != stateDone {
		t.Fatalf("adaptive session ended %v (%v)", info["state"], info["error"])
	}
	if info["mode"] != "adaptive" {
		t.Errorf("session mode = %v", info["mode"])
	}

	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var results, rounds []map[string]any
	var summary map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch line["type"] {
		case "result":
			results = append(results, line)
		case "round":
			rounds = append(rounds, line)
		case "summary":
			summary = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if summary == nil {
		t.Fatal("stream ended without a summary trailer")
	}

	if summary["mode"] != "adaptive" {
		t.Errorf("summary mode = %v", summary["mode"])
	}
	evals := int(summary["evals"].(float64))
	gridSize := int(summary["grid_size"].(float64))
	if gridSize != 36 {
		t.Errorf("grid_size = %d, want 36", gridSize)
	}
	if evals <= 0 || evals >= gridSize {
		t.Errorf("evals = %d of %d: adaptive session did not save evaluations", evals, gridSize)
	}
	if len(results) != evals {
		t.Errorf("stream carried %d results for %d evaluations", len(results), evals)
	}
	checkCounts(t, info, summary, false)
	if got := int(info["done"].(float64)); got != evals+1 {
		t.Errorf("snapshot done %d, want the %d evaluations plus the base", got, evals)
	}
	if len(rounds) == 0 {
		t.Fatal("no round lines on the adaptive stream")
	}
	if len(rounds) != int(summary["rounds"].(float64)) {
		t.Errorf("%d round lines, summary says %v", len(rounds), summary["rounds"])
	}
	for i, r := range rounds {
		if int(r["round"].(float64)) != i+1 {
			t.Errorf("round line %d has round %v", i, r["round"])
		}
		if int(r["grid_size"].(float64)) != gridSize {
			t.Errorf("round %d grid_size = %v", i, r["grid_size"])
		}
	}
	last := rounds[len(rounds)-1]
	if int(last["total_evals"].(float64)) != evals {
		t.Errorf("final round total_evals %v != summary evals %d", last["total_evals"], evals)
	}
	// The ranked top result is the incumbent the trace converged on.
	if results[0]["machine_fingerprint"] != last["incumbent_fp"] {
		t.Errorf("top result %v != final incumbent %v", results[0]["machine_fingerprint"], last["incumbent_fp"])
	}

	// Unknown modes are rejected up front.
	resp2, out := postJSON(t, ts.URL+"/v1/sessions", sessionRequest{
		Bench: "sord", Sweep: []string{"freq-ghz=1.6,2.4"}, Mode: "exhaustive-ish",
	})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode accepted: %d (%v)", resp2.StatusCode, out)
	}
}

// TestAdaptiveSessionBaselineBelowFloor: an adaptive session sweeps the
// base machine as its last variant and holds it to min_confidence, so a
// source whose lenient analysis confidence is 0.9922 fails at a 0.995
// floor instead of reporting speedups against a rejected baseline. At
// 0.99 it completes: the baseline is evaluated by the engine, never by
// the simulator, which cannot run this source to completion.
func TestAdaptiveSessionBaselineBelowFloor(t *testing.T) {
	_, ts := testServer(t, filepath.Join(t.TempDir(), "cas"), 2)
	lenient := true
	session := func(minConf float64) string {
		return submit(t, ts.URL, sessionRequest{
			Source: `
global n: int = 64;
global z: int = 0;
global a: [n]float;
func main() {
  for i = 0 .. n { a[i] = exp(a[i]) * 0.5; }
  for k = 0 .. n / z { a[0] = a[0] * 2.0; }
}
`,
			Sweep:   []string{"freq-ghz=1.2,1.6,2.0,2.4", "mem-latency=80,110,150", "hit-l1=0.9,0.95,0.99"},
			Mode:    modeAdaptive,
			Lenient: &lenient, MinConfidence: minConf, AdaptiveSeed: 13,
		})
	}
	id := session(0.995)
	info := waitState(t, ts.URL, id)
	if info["state"] != stateFailed || info["error"] != "baseline BG/Q failed to evaluate" {
		t.Fatalf("session ended %v (%v), want failed on the baseline", info["state"], info["error"])
	}
	results, summary := streamLines(t, ts.URL, id, "")
	if len(results) != 0 || summary["state"] != stateFailed {
		t.Errorf("%d result lines, summary %v", len(results), summary)
	}

	id = session(0.99)
	if info := waitState(t, ts.URL, id); info["state"] != stateDone {
		t.Fatalf("session at floor 0.99 ended %v (%v)", info["state"], info["error"])
	}
	results, summary = streamLines(t, ts.URL, id, "")
	if len(results) == 0 || summary["baseline_time_s"] == 0.0 {
		t.Errorf("%d result lines, baseline time %v", len(results), summary["baseline_time_s"])
	}
}

func TestSessionValidation(t *testing.T) {
	_, ts := testServer(t, "", 1)
	bad := []sessionRequest{
		{},              // no workload
		{Bench: "srad"}, // no axes
		{Bench: "nosuch", Sweep: []string{"mem-bandwidth=1,2"}},
		{Bench: "srad", Source: "x", Sweep: []string{"mem-bandwidth=1,2"}},
		{Bench: "srad", Sweep: []string{"nosuch-param=1,2"}},
		{Bench: "srad", Sweep: []string{"mem-bandwidth=1,2"}, Machine: "vax"},
		{Bench: "srad", Sweep: []string{"mem-bandwidth=1,2"}, Limits: "nosuch=1"},
	}
	for i, req := range bad {
		resp, out := postJSON(t, ts.URL+"/v1/sessions", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("request %d: status %d (%v)", i, resp.StatusCode, out)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"bogus": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d", resp.StatusCode)
	}
	// Axes the paper's model never reads are refused, naming the axis and,
	// for a cache size, the hit ratio to sweep instead.
	for spec, hint := range map[string]string{
		"l1-size-kb=8,16,64,256": "sweep hit-l1",
		"llc-size-mb=1,32":       "sweep hit-llc",
		"issue-width=1,2,4,8":    "ablation",
		"vector-width=1,4":       "ablation",
		"div-latency=10,40":      "ablation",
	} {
		resp, out := postJSON(t, ts.URL+"/v1/sessions", sessionRequest{Bench: "sord", Sweep: []string{"freq-ghz=1.6,2.4", spec}})
		name, _, _ := strings.Cut(spec, "=")
		msg, _ := out["error"].(string)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, name) || !strings.Contains(msg, hint) {
			t.Errorf("sweep %s: status %d, error %q; want 400 naming %s and %q", spec, resp.StatusCode, msg, name, hint)
		}
	}
	// A request for a removed feature — a journaled session, an attempt
	// deadline — is refused, not run without what it asked for.
	for field, value := range map[string]string{"journal_id": "run1", "variant_timeout": "30s"} {
		resp, out := postJSON(t, ts.URL+"/v1/sessions", map[string]any{
			"bench": "srad", "sweep": []string{"mem-bandwidth=16,32"}, field: value,
		})
		if want := `body: json: unknown field "` + field + `"`; resp.StatusCode != http.StatusBadRequest || out["error"] != want {
			t.Errorf("%s request: status %d, error %v; want 400, %q", field, resp.StatusCode, out["error"], want)
		}
	}
	if r, err := http.Get(ts.URL + "/v1/sessions/s-999999"); err != nil || r.StatusCode != http.StatusNotFound {
		t.Errorf("missing session lookup: %v %v", r.StatusCode, err)
	} else {
		r.Body.Close()
	}
}

// TestConcurrentSessions is the scale acceptance: four sessions submitted
// back-to-back run under the shared worker budget — with per-session guard
// limits isolating one deliberately broken session — and all reach a
// terminal state with correct results.
func TestConcurrentSessions(t *testing.T) {
	_, ts := testServer(t, filepath.Join(t.TempDir(), "cas"), 8)
	reqs := []sessionRequest{
		{Bench: "srad", Sweep: []string{"mem-bandwidth=16,32,64"}, Workers: 2},
		{Bench: "sord", Sweep: []string{"net-latency-us=1,2,4"}, Workers: 2},
		{Bench: "cfd", Sweep: []string{"freq-ghz=1.6,2.4"}, Workers: 2},
		// Per-session limits: this one is strangled and must fail alone.
		{Bench: "chargei", Sweep: []string{"mem-bandwidth=16,32"}, Workers: 2, Limits: "bet-nodes=2"},
	}
	ids := make([]string, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		ids[i] = submit(t, ts.URL, req)
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			waitState(t, ts.URL, id)
		}(ids[i])
	}
	wg.Wait()
	for i, id := range ids {
		info := getJSON(t, ts.URL+"/v1/sessions/"+id)
		if i == 3 {
			if info["state"] != stateFailed {
				t.Errorf("limited session ended %v, want failed", info["state"])
			} else if msg, _ := info["error"].(string); !strings.Contains(msg, "limit") {
				t.Errorf("limited session error %q does not name the limit", msg)
			}
			continue
		}
		if info["state"] != stateDone {
			t.Errorf("session %s ended %v (%v)", id, info["state"], info["error"])
		}
	}
	h := getJSON(t, ts.URL+"/v1/healthz")
	if int(h["busy_workers"].(float64)) != 0 {
		t.Errorf("worker tokens leaked: %v", h["busy_workers"])
	}
}

// TestCancelQueuedSession: a session waiting on the worker budget can be
// canceled before it ever runs.
func TestCancelQueuedSession(t *testing.T) {
	_, ts := testServer(t, "", 1)
	// Occupy the whole budget with a real sweep...
	first := submit(t, ts.URL, sessionRequest{
		Bench: "srad", Sweep: []string{"mem-bandwidth=8,12,16,24,32,48,64,96"},
	})
	// ...then cancel a queued session before the budget frees up.
	queued := submit(t, ts.URL, sradSession())
	resp, out := postJSON(t, ts.URL+"/v1/sessions/"+queued+"/cancel", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %v", resp.StatusCode, out)
	}
	if out["state"] != stateCanceled {
		t.Errorf("canceled session state %v", out["state"])
	}
	_, summary := streamLines(t, ts.URL, queued, "")
	if summary["state"] != stateCanceled {
		t.Errorf("stream summary state %v", summary["state"])
	}
	if info := waitState(t, ts.URL, first); info["state"] != stateDone {
		t.Errorf("first session ended %v", info["state"])
	}
}

// TestSharedStoreAcrossSessions: a second identical session is served
// entirely from the store the first one populated — preparation skipped,
// zero model builds, bit-identical result lines.
func TestSharedStoreAcrossSessions(t *testing.T) {
	_, ts := testServer(t, filepath.Join(t.TempDir(), "cas"), 4)
	req := sradSession()

	cold := submit(t, ts.URL, req)
	if info := waitState(t, ts.URL, cold); info["state"] != stateDone {
		t.Fatalf("cold session ended %v (%v)", info["state"], info["error"])
	}
	coldResults, coldSummary := streamLines(t, ts.URL, cold, "?full=1")
	if coldSummary["skipped_prepare"] != false {
		t.Errorf("cold session skipped preparation")
	}

	disarm := guard.Arm("core.body", func(detail string) {
		t.Errorf("warm session built a BET (at %s)", detail)
	})
	defer disarm()
	warm := submit(t, ts.URL, req)
	if info := waitState(t, ts.URL, warm); info["state"] != stateDone {
		t.Fatalf("warm session ended %v (%v)", info["state"], info["error"])
	}
	warmResults, warmSummary := streamLines(t, ts.URL, warm, "?full=1")
	if warmSummary["skipped_prepare"] != true {
		t.Errorf("warm session did not skip preparation: %v", warmSummary)
	}
	if warmSummary["from_store"].(float64) == 0 {
		t.Errorf("warm session not served from store: %v", warmSummary)
	}
	if len(warmResults) != len(coldResults) {
		t.Fatalf("result counts differ: %d vs %d", len(warmResults), len(coldResults))
	}
	for i := range coldResults {
		c, w := coldResults[i], warmResults[i]
		if w["provenance"] != "store" {
			t.Errorf("warm result %d provenance %v", i, w["provenance"])
		}
		// Identical content, different provenance.
		for _, key := range []string{"variant", "total_time_s", "speedup", "confidence"} {
			if c[key] != w[key] {
				t.Errorf("result %d field %s drifted: %v vs %v", i, key, c[key], w[key])
			}
		}
		ca, _ := json.Marshal(c["analysis"])
		wa, _ := json.Marshal(w["analysis"])
		if !bytes.Equal(ca, wa) {
			t.Errorf("result %d analysis not identical", i)
		}
	}
}

// TestSessionRetriesTransientPanics: a session's retries re-evaluate, at
// once, a variant whose first evaluation panics, and the session
// snapshot counts the retries.
func TestSessionRetriesTransientPanics(t *testing.T) {
	_, ts := testServer(t, "", 1)
	var mu sync.Mutex
	seen := map[string]bool{}
	disarm := guard.Arm("explore.evaluate", func(name string) {
		mu.Lock()
		first := !seen[name]
		seen[name] = true
		mu.Unlock()
		if first {
			panic("injected transient fault")
		}
	})
	defer disarm()
	id := submit(t, ts.URL, sessionRequest{Bench: "srad", Sweep: []string{"mem-bandwidth=16,32"}, Retries: 1})
	info := waitState(t, ts.URL, id)
	// Two grid variants and the base machine, each retried once.
	if info["state"] != stateDone || info["degraded"] == true || info["retried"] != 3.0 {
		t.Errorf("session = %v; want done, not degraded, 3 retries", info)
	}
}

// TestSubmittedSource: sessions can carry minilang source instead of a
// named benchmark.
func TestSubmittedSource(t *testing.T) {
	_, ts := testServer(t, "", 2)
	id := submit(t, ts.URL, sessionRequest{
		Source: `
global n: int = 64;
global a: [n]float;
func main() {
  for i = 0 .. n {
    a[i] = exp(a[i]) * 0.5;
  }
}
`,
		Sweep: []string{"mem-bandwidth=16,32"},
	})
	if info := waitState(t, ts.URL, id); info["state"] != stateDone {
		t.Fatalf("source session ended %v (%v)", info["state"], info["error"])
	}
	results, _ := streamLines(t, ts.URL, id, "")
	if len(results) != 2 {
		t.Errorf("got %d results, want 2", len(results))
	}
}
