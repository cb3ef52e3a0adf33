package shard_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"skope/internal/explore"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/journal"
	"skope/internal/pipeline"
	"skope/internal/shard"
	"skope/internal/workloads"
)

// preparedRun caches the test workload's preparation (it includes a full
// profiling execution).
var (
	prepOnce sync.Once
	prepRun  *pipeline.Run
	prepErr  error
)

func preparedSord(t testing.TB) *pipeline.Run {
	t.Helper()
	prepOnce.Do(func() {
		prepRun, prepErr = pipeline.PrepareByName(context.Background(), "sord", workloads.ScaleTest)
	})
	if prepErr != nil {
		t.Fatalf("prepare sord: %v", prepErr)
	}
	return prepRun
}

// sordSpec builds a real 6-variant job spec for the sord benchmark, bound
// to its actual layout fingerprint.
func sordSpec(t testing.TB) (shard.JobSpec, *pipeline.Run) {
	t.Helper()
	run := preparedSord(t)
	layout, err := run.Layout()
	if err != nil {
		t.Fatal(err)
	}
	return shard.JobSpec{
		Bench: "sord",
		Scale: float64(workloads.ScaleTest),
		Base:  hw.BGQ().Wire(),
		Axes: []explore.Axis{
			{Param: "mem-bandwidth", Values: []float64{16, 32, 64}},
			{Param: "net-latency-us", Values: []float64{1, 2}},
		},
		LayoutFP:  layout.Fingerprint(),
		ShardSize: 2,
	}, run
}

// serveJob mounts a coordinator for spec on a test server and returns the
// coordinator, a client, and the job ID.
func serveJob(t *testing.T, spec shard.JobSpec, cfg shard.Config) (*shard.Coordinator, *shard.Client, string) {
	t.Helper()
	cfg.Spec = spec
	if cfg.JobID == "" {
		cfg.JobID = "j-worker-test"
	}
	coord, err := shard.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := shard.NewService()
	svc.Add(coord)
	mux := http.NewServeMux()
	svc.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return coord, &shard.Client{BaseURL: srv.URL, Transport: srv.Client().Transport}, cfg.JobID
}

// directSweep evaluates the spec's variants in-process with no journal —
// the reference result set for bit-identity assertions.
func directSweep(t *testing.T, run *pipeline.Run, spec shard.JobSpec) []*pipeline.Eval {
	t.Helper()
	variants, err := spec.Variants()
	if err != nil {
		t.Fatal(err)
	}
	evals, err := pipeline.Sweep(context.Background(), run, variants, spec.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	return evals
}

// assertMergedMatchesDirect replays the merged journal and checks every
// analysis is byte-identical to the direct sweep's.
func assertMergedMatchesDirect(t *testing.T, coord *shard.Coordinator, run *pipeline.Run, spec shard.JobSpec, mergedPath string) {
	t.Helper()
	n, err := coord.WriteMerged(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	variants, err := spec.Variants()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(variants) {
		t.Fatalf("merged journal has %d records, want %d", n, len(variants))
	}
	jnl, err := journal.Open(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	replayed, err := pipeline.Sweep(context.Background(), run, variants,
		append(spec.Options(), pipeline.WithJournal(jnl))...)
	if err != nil {
		t.Fatal(err)
	}
	want := directSweep(t, run, spec)
	for i := range want {
		if replayed[i].Provenance != pipeline.FromJournal {
			t.Errorf("variant %d: provenance %v, want FromJournal", i, replayed[i].Provenance)
		}
		a, err := hotspot.EncodeAnalysis(replayed[i].Analysis)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hotspot.EncodeAnalysis(want[i].Analysis)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("variant %d: merged result differs from direct sweep", i)
		}
	}
}

func runWorker(t *testing.T, client *shard.Client, jobID, id, dataDir string) (shard.WorkerStats, error) {
	t.Helper()
	w := &shard.Worker{
		Client:  client,
		JobID:   jobID,
		ID:      id,
		DataDir: dataDir,
		Poll:    10 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return w.Run(ctx)
}

func TestWorkersCompleteJobOverHTTP(t *testing.T) {
	spec, run := sordSpec(t)
	coord, client, jobID := serveJob(t, spec, shard.Config{Lease: 30 * time.Second})
	dir := t.TempDir()

	var wg sync.WaitGroup
	stats := make([]shard.WorkerStats, 2)
	errs := make([]error, 2)
	for i, id := range []string{"w0", "w1"} {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			stats[i], errs[i] = runWorker(t, client, jobID, id, dir)
		}(i, id)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !coord.Done() {
		t.Fatal("job not done")
	}
	totalShards := stats[0].Shards + stats[1].Shards
	if totalShards != 3 {
		t.Fatalf("workers completed %d shards, want 3", totalShards)
	}
	if got := stats[0].Variants + stats[1].Variants; got != 6 {
		t.Fatalf("workers reported %d variants, want 6", got)
	}
	st := coord.Status()
	if st.Merged != 6 || st.Failed != 0 || len(st.Workers) != 2 {
		t.Fatalf("status = %+v", st)
	}
	if st.FrontierSize == 0 {
		t.Fatal("frontier empty")
	}
	assertMergedMatchesDirect(t, coord, run, spec, dir+"/merged.journal")
}

func TestWorkerResumesFromJournalsReplayOnly(t *testing.T) {
	spec, run := sordSpec(t)
	dir := t.TempDir()

	// First pass: one worker completes the whole job, leaving per-shard
	// journals behind.
	_, client1, job1 := serveJob(t, spec, shard.Config{JobID: "j-pass1", Lease: 30 * time.Second})
	if _, err := runWorker(t, client1, job1, "w0", dir); err != nil {
		t.Fatal(err)
	}

	// Second pass: a fresh coordinator for the same job ID (the crash-
	// and-restart scenario) and a replay-only worker — it refuses to
	// evaluate, so completing proves every variant came from the journals.
	coord2, client2, job2 := serveJob(t, spec, shard.Config{JobID: "j-pass1", Lease: 30 * time.Second})
	w := &shard.Worker{
		Client: client2, JobID: job2, ID: "w-replay", DataDir: dir,
		Poll: 10 * time.Millisecond, ReplayOnly: true,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 3 || st.Variants != 6 {
		t.Fatalf("replay worker stats = %+v", st)
	}
	if st.Replayed != 6 {
		t.Fatalf("replayed %d of 6 variants — resumed work was recomputed", st.Replayed)
	}
	assertMergedMatchesDirect(t, coord2, run, spec, dir+"/merged2.journal")
}

func TestWorkerRejectsSkewedLayout(t *testing.T) {
	spec, _ := sordSpec(t)
	spec.LayoutFP = "0000000000000000" // not what preparation will produce
	_, client, jobID := serveJob(t, spec, shard.Config{Lease: 30 * time.Second})
	w := &shard.Worker{
		Client: client, JobID: jobID, ID: "w-skew", DataDir: t.TempDir(),
		Poll: 10 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err := w.Run(ctx)
	if !errors.Is(err, shard.ErrSkew) {
		t.Fatalf("skewed worker: %v, want ErrSkew", err)
	}
}

func TestWorkerQuarantineDoesNotVoidJob(t *testing.T) {
	spec, run := sordSpec(t)
	coord, client, jobID := serveJob(t, spec, shard.Config{
		Lease:            30 * time.Second,
		BreakerThreshold: 2,
	})
	goodDir := t.TempDir()

	// The bad worker's data dir is a regular file, so every journal open
	// fails: it reports Fail on each leased shard until the breaker
	// quarantines it.
	badDir := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(badDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Let the bad worker run alone until the breaker quarantines it, so
	// the assertions don't race the good worker finishing first.
	var badStats shard.WorkerStats
	var badErr error
	badDone := make(chan struct{})
	go func() {
		defer close(badDone)
		badStats, badErr = runWorker(t, client, jobID, "bad", badDir)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for len(coord.Status().Quarantined) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("bad worker never quarantined: %+v", coord.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	goodStats, goodErr := runWorker(t, client, jobID, "good", goodDir)
	<-badDone
	if goodErr != nil {
		t.Fatalf("good worker: %v", goodErr)
	}
	if badErr != nil {
		t.Fatalf("bad worker should idle out, not error: %v", badErr)
	}
	if !coord.Done() {
		t.Fatal("job not done")
	}
	st := coord.Status()
	if st.Merged != 6 {
		t.Fatalf("merged %d variants, want 6", st.Merged)
	}
	if goodStats.Shards != 3 || goodStats.Variants != 6 {
		t.Fatalf("good worker stats = %+v", goodStats)
	}
	if badStats.Shards != 0 || badStats.Quarantines == 0 {
		t.Fatalf("bad worker stats = %+v, want 0 shards and some quarantine polls", badStats)
	}
	if q := st.Quarantined; len(q) != 1 || q[0] != "bad" {
		t.Fatalf("Quarantined = %v, want [bad]", q)
	}
	if st.Workers["bad"].Failed < 2 {
		t.Fatalf("bad worker failures = %d, want >= 2", st.Workers["bad"].Failed)
	}
	_ = run
}

func TestServiceListAndDetail(t *testing.T) {
	spec, _ := sordSpec(t)
	coord, client, jobID := serveJob(t, spec, shard.Config{Lease: 30 * time.Second})

	detail, err := client.Detail(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	if detail.Spec.LayoutFP != spec.LayoutFP {
		t.Fatalf("detail spec layout = %q, want %q", detail.Spec.LayoutFP, spec.LayoutFP)
	}
	if len(detail.Shards) != len(coord.Shards()) {
		t.Fatalf("detail has %d shards, want %d", len(detail.Shards), len(coord.Shards()))
	}
	// The spec survives the wire bit-exactly: a client-side partition from
	// the decoded spec matches the coordinator's.
	variants, err := detail.Spec.Variants()
	if err != nil {
		t.Fatal(err)
	}
	local := shard.Partition(detail.Spec.LayoutFP, variants, detail.Spec.ShardSize)
	for i := range local {
		if local[i].Fingerprint != detail.Shards[i].Fingerprint {
			t.Fatalf("shard %d fingerprint drifted across the wire", i)
		}
	}
	// Unknown jobs 404 with a typed error.
	if _, err := client.Lease(context.Background(), "no-such-job", "w"); err == nil {
		t.Fatal("lease against unknown job succeeded")
	}
}
