package main

// Tests of the sharded-job surface and the drain behavior. Workers here
// are in-process shard.Worker instances speaking real HTTP to the
// daemon's handler — the same protocol `skoped -worker` speaks.

import (
	"context"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"skope/internal/guard"
	"skope/internal/journal"
	"skope/internal/shard"
)

func TestShardJobLifecycle(t *testing.T) {
	dataDir := t.TempDir()
	srv, ts := testServer(t, dataDir, filepath.Join(t.TempDir(), "cas"), 2)

	resp, out := postJSON(t, ts.URL+"/v1/shards", shardRequest{
		Bench:     "sord",
		Sweep:     []string{"mem-bandwidth=16,32"},
		ShardSize: 1,
		Lease:     "5s",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d: %v", resp.StatusCode, out)
	}
	status := out["status"].(map[string]any)
	jobID := status["job"].(string)
	spec := out["spec"].(map[string]any)
	if spec["layout"] == "" || spec["layout"] == nil {
		t.Fatal("job spec missing layout fingerprint")
	}
	if n := len(out["shards"].([]any)); n != 2 {
		t.Fatalf("got %d shards, want 2", n)
	}

	// The job is listed, and harvesting before completion is refused.
	l := getJSON(t, ts.URL+"/v1/shards")
	if n := len(l["jobs"].([]any)); n != 1 {
		t.Fatalf("job list has %d jobs", n)
	}
	hresp, _ := postJSON(t, ts.URL+"/v1/shards/"+jobID+"/harvest", struct{}{})
	if hresp.StatusCode != http.StatusConflict {
		t.Fatalf("harvest before done: status %d", hresp.StatusCode)
	}

	// One in-process worker over real HTTP — what `skoped -worker` runs.
	w := &shard.Worker{
		Client:  &shard.Client{BaseURL: ts.URL},
		JobID:   jobID,
		ID:      "w1",
		DataDir: t.TempDir(),
		Poll:    10 * time.Millisecond,
	}
	stats, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Variants != 2 {
		t.Fatalf("worker stats = %+v, want 2 variants", stats)
	}
	detail := getJSON(t, ts.URL+"/v1/shards/"+jobID)
	if done := detail["status"].(map[string]any)["done"]; done != true {
		t.Fatalf("job not done: %v", detail["status"])
	}

	// Harvest: merged journal under -data-dir, results replayed into the
	// shared store. Harvesting twice returns the same (cached) outcome.
	hresp, hout := postJSON(t, ts.URL+"/v1/shards/"+jobID+"/harvest", struct{}{})
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("harvest: status %d: %v", hresp.StatusCode, hout)
	}
	if int(hout["records"].(float64)) != 2 || int(hout["from_journal"].(float64)) != 2 {
		t.Fatalf("harvest = %v, want 2 records all from journal", hout)
	}
	mergedPath := filepath.Join(dataDir, jobID+".journal")
	var n int
	if _, err := journal.Scan(mergedPath, func(string, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("merged journal has %d records, want 2", n)
	}
	if _, again := postJSON(t, ts.URL+"/v1/shards/"+jobID+"/harvest", struct{}{}); again["records"].(float64) != 2 {
		t.Fatalf("second harvest = %v", again)
	}
	if srv.store.Len() == 0 {
		t.Fatal("harvest stored nothing in the shared store")
	}

	// The store is now warm for sessions: the same sweep is served from
	// the sharded job's results with zero recomputation.
	req := sessionRequest{Bench: "sord", Sweep: []string{"mem-bandwidth=16,32"}}
	id := submit(t, ts.URL, req)
	info := waitState(t, ts.URL, id)
	if info["state"] != stateDone {
		t.Fatalf("session ended %v (%v)", info["state"], info["error"])
	}
	harvested, summary := streamLines(t, ts.URL, id, "")
	if int(summary["from_store"].(float64)) < 2 {
		t.Errorf("session not served from harvested store: %v", summary)
	}

	// Sharded == single-process: a daemon with an empty store computes the
	// same sweep itself and must rank the same variants with bit-identical
	// projected times.
	_, fresh := testServer(t, t.TempDir(), filepath.Join(t.TempDir(), "cas"), 2)
	fid := submit(t, fresh.URL, req)
	if info := waitState(t, fresh.URL, fid); info["state"] != stateDone {
		t.Fatalf("fresh session ended %v (%v)", info["state"], info["error"])
	}
	computed, fsummary := streamLines(t, fresh.URL, fid, "")
	if fsummary["from_store"].(float64) != 0 || fsummary["from_journal"].(float64) != 0 {
		t.Errorf("fresh daemon did not compute the sweep: %v", fsummary)
	}
	if len(harvested) != len(computed) {
		t.Fatalf("harvested session ranked %d variants, fresh one %d", len(harvested), len(computed))
	}
	for i := range computed {
		h, c := harvested[i], computed[i]
		if h["rank"] != c["rank"] || h["variant"] != c["variant"] ||
			math.Float64bits(h["total_time_s"].(float64)) != math.Float64bits(c["total_time_s"].(float64)) {
			t.Errorf("rank %d: harvested %v %v %v, fresh %v %v %v", i+1,
				h["rank"], h["variant"], h["total_time_s"], c["rank"], c["variant"], c["total_time_s"])
		}
	}
}

// TestShardJobRecoveryAcrossRestart kills the daemon mid-job and builds a
// fresh one on the same -data-dir: the coordinator log rebuilds the job,
// healthz reports the recovery, the same worker reconnects and finishes
// without re-evaluating anything it journaled, and harvest — which must
// re-prepare the workload lazily, since the recovered job has none —
// produces the full merged journal and retires the coordinator log.
func TestShardJobRecoveryAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sharded sweep across a daemon restart")
	}
	dataDir := t.TempDir()
	workerDir := t.TempDir()
	_, ts1 := testServer(t, dataDir, "", 2)

	// Slow evaluations down enough that the kill lands mid-job.
	disarm := guard.Arm("explore.evaluate", func(string) { time.Sleep(50 * time.Millisecond) })
	defer disarm()

	resp, out := postJSON(t, ts1.URL+"/v1/shards", shardRequest{
		Bench:     "sord",
		Sweep:     []string{"mem-bandwidth=16,32,64,96"},
		ShardSize: 1,
		Lease:     "2s",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d: %v", resp.StatusCode, out)
	}
	jobID := out["status"].(map[string]any)["job"].(string)
	logPath := filepath.Join(dataDir, jobID+".coordlog")
	if _, err := os.Stat(logPath); err != nil {
		t.Fatalf("no coordinator log after submit: %v", err)
	}

	// The worker runs until at least one shard is durably complete, then
	// its context is cut — standing in for the whole machine pausing while
	// the daemon dies.
	wctx, stop := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		w := &shard.Worker{
			Client:  &shard.Client{BaseURL: ts1.URL, Timeout: 5 * time.Second},
			JobID:   jobID,
			ID:      "w1",
			DataDir: workerDir,
			Poll:    10 * time.Millisecond,
		}
		_, _ = w.Run(wctx)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		detail := getJSON(t, ts1.URL+"/v1/shards/"+jobID)
		st := detail["status"].(map[string]any)
		if st["completed"].(float64) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no shard completed in time: %v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop()
	<-workerDone
	ts1.Close() // the daemon dies; its t.Cleanup close becomes a no-op

	// The restart: a fresh daemon on the same -data-dir recovers the job.
	srv2, ts2 := testServer(t, dataDir, "", 2)
	if srv2.recoveredJobs != 1 {
		t.Fatalf("recovered %d jobs, want 1", srv2.recoveredJobs)
	}
	h := getJSON(t, ts2.URL+"/v1/healthz")
	shardsInfo, ok := h["shards"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no shards section: %v", h)
	}
	if shardsInfo["recovered_jobs"].(float64) != 1 || shardsInfo["recovered_records"].(float64) < 1 {
		t.Fatalf("healthz shards = %v, want a recovered job with records", shardsInfo)
	}

	// The same worker reconnects to the new daemon and finishes. Replaying
	// its own journal covers anything it evaluated before the cut; the
	// recovered coordinator serves completed shards from the log.
	w2 := &shard.Worker{
		Client:  &shard.Client{BaseURL: ts2.URL, Timeout: 5 * time.Second},
		JobID:   jobID,
		ID:      "w1",
		DataDir: workerDir,
		Poll:    10 * time.Millisecond,
	}
	stats, err := w2.Run(context.Background())
	if err != nil {
		t.Fatalf("worker after restart: %v (stats %+v)", err, stats)
	}

	// Harvest on the recovered daemon: lazy re-prepare, full merge, log
	// retired.
	hresp, hout := postJSON(t, ts2.URL+"/v1/shards/"+jobID+"/harvest", struct{}{})
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("harvest: status %d: %v", hresp.StatusCode, hout)
	}
	if int(hout["records"].(float64)) != 4 {
		t.Fatalf("harvest = %v, want 4 records", hout)
	}
	var n int
	if _, err := journal.Scan(filepath.Join(dataDir, jobID+".journal"), func(string, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("merged journal has %d records, want 4", n)
	}
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Fatalf("coordinator log not retired after harvest: %v", err)
	}
}

func TestShardSubmitValidation(t *testing.T) {
	_, ts := testServer(t, t.TempDir(), "", 1)
	cases := []shardRequest{
		{Sweep: []string{"mem-bandwidth=16,32"}},                                     // no workload
		{Bench: "sord"},                                                              // no sweep
		{Bench: "sord", Sweep: []string{"bogus-param=1"}},                            // unknown axis
		{Bench: "nosuch", Sweep: []string{"mem-bandwidth=16,32"}},                    // unknown bench
		{Bench: "sord", Sweep: []string{"mem-bandwidth=16,32"}, Lease: "oops"},       // bad lease
		{Bench: "sord", Sweep: []string{"mem-bandwidth=16,32"}, Lease: "10ms"},       // lease too short
		{Bench: "sord", Sweep: []string{"mem-bandwidth=16,32"}, Machine: "vax"},      // unknown machine
		{Bench: "sord", Source: "x", Sweep: []string{"mem-bandwidth=16,32"}},         // both workloads
		{Bench: "sord", Sweep: []string{"mem-bandwidth=16,32"}, VariantTimeout: "z"}, // bad timeout
	}
	for i, req := range cases {
		resp, out := postJSON(t, ts.URL+"/v1/shards", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%v), want 400", i, resp.StatusCode, out)
		}
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	srv, ts := testServer(t, t.TempDir(), "", 1)

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
	resp, _ = postJSON(t, ts.URL+"/v1/shards", shardRequest{Bench: "sord", Sweep: []string{"mem-bandwidth=16,32"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("shard submit during drain: status %d, want 503", resp.StatusCode)
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
