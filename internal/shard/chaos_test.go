package shard_test

// The chaos test: run a sharded sweep with real worker subprocesses,
// SIGKILL half of them mid-flight, resume with replacements, and assert
// the headline property — the merged result set is bit-identical to a
// single-process exhaustive sweep, with zero re-evaluation of variants
// that had already reached a shard journal when the workers died.
//
// The test binary doubles as the worker executable: TestMain checks
// SHARD_TEST_WORKER and, when set, runs chaosWorkerMain instead of the
// test suite (the standard helper-process pattern). The worker arms the
// explore.evaluate fault point to (a) append one line per *evaluation* to
// a shared log — replays from a journal never hit the point, which is
// exactly what makes the zero-re-evaluation assertion checkable — and
// (b) model per-variant latency, so kills land mid-shard.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hw"
	"skope/internal/journal"
	"skope/internal/shard"
	"skope/internal/workloads"
)

func TestMain(m *testing.M) {
	if os.Getenv("SHARD_TEST_WORKER") != "" {
		os.Exit(chaosWorkerMain())
	}
	os.Exit(m.Run())
}

// chaosWorkerMain is the subprocess entry point.
func chaosWorkerMain() int {
	var (
		url   = os.Getenv("SHARD_TEST_URL")
		job   = os.Getenv("SHARD_TEST_JOB")
		dir   = os.Getenv("SHARD_TEST_DIR")
		id    = os.Getenv("SHARD_TEST_ID")
		evlog = os.Getenv("SHARD_TEST_EVLOG")
	)
	slowMs, _ := strconv.Atoi(os.Getenv("SHARD_TEST_SLOW_MS"))
	var (
		logMu sync.Mutex
		logF  *os.File
	)
	if evlog != "" {
		f, err := os.OpenFile(evlog, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			return 1
		}
		defer f.Close()
		logF = f
	}
	disarm := guard.Arm("explore.evaluate", func(detail string) {
		if logF != nil {
			logMu.Lock()
			fmt.Fprintf(logF, "%s\t%s\n", id, detail)
			logF.Sync()
			logMu.Unlock()
		}
		if slowMs > 0 {
			time.Sleep(time.Duration(slowMs) * time.Millisecond)
		}
	})
	defer disarm()

	w := &shard.Worker{
		Client:     &shard.Client{BaseURL: url},
		JobID:      job,
		ID:         id,
		DataDir:    dir,
		Poll:       50 * time.Millisecond,
		ReplayOnly: os.Getenv("SHARD_TEST_REPLAY_ONLY") != "",
	}
	if _, err := w.Run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "worker", id+":", err)
		return 1
	}
	return 0
}

// chaosSpec is a 24-variant, 12-shard job — enough shards that four
// workers are all mid-flight when the kills land.
func chaosSpec(t testing.TB) shard.JobSpec {
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
			{Param: "mem-bandwidth", Values: []float64{16, 24, 32, 48}},
			{Param: "net-latency-us", Values: []float64{1, 2, 4}},
			{Param: "freq-ghz", Values: []float64{1.6, 2.0}},
		},
		LayoutFP:  layout.Fingerprint(),
		ShardSize: 2,
	}
}

type chaosWorker struct {
	id  string
	cmd *exec.Cmd
	out bytes.Buffer
}

func spawnWorker(t *testing.T, url, job, dir, evlog, id string, slowMs int) *chaosWorker {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	w := &chaosWorker{id: id}
	w.cmd = exec.Command(exe)
	w.cmd.Env = append(os.Environ(),
		"SHARD_TEST_WORKER=1",
		"SHARD_TEST_URL="+url,
		"SHARD_TEST_JOB="+job,
		"SHARD_TEST_DIR="+dir,
		"SHARD_TEST_ID="+id,
		"SHARD_TEST_EVLOG="+evlog,
		"SHARD_TEST_SLOW_MS="+strconv.Itoa(slowMs),
	)
	w.cmd.Stdout = &w.out
	w.cmd.Stderr = &w.out
	if err := w.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return w
}

// evalLines reads the shared evaluation log: one "worker\tvariant" line
// per evaluation that actually ran.
func evalLines(t *testing.T, evlog string) []string {
	t.Helper()
	raw, err := os.ReadFile(evlog)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		return nil
	}
	return lines
}

// journaledNames scans every shard journal and returns the variant names
// (the evaluation log's vocabulary) whose records are already durable.
func journaledNames(t *testing.T, dir, jobID string, variants []*hw.Machine) map[string]bool {
	t.Helper()
	fpToName := make(map[string]string, len(variants))
	for _, m := range variants {
		fpToName[m.Fingerprint()] = m.Name
	}
	paths, err := filepath.Glob(filepath.Join(dir, jobID+"-*.journal"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, p := range paths {
		// Scan tolerates torn tails — a SIGKILL mid-append leaves one.
		_, err := journal.Scan(p, func(key string, _ []byte) error {
			if name, ok := fpToName[key]; ok {
				names[name] = true
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan %s: %v", p, err)
		}
	}
	return names
}

func TestChaosKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	spec := chaosSpec(t)
	run := preparedSord(t)
	variants, err := spec.Variants()
	if err != nil {
		t.Fatal(err)
	}

	coord, client, jobID := serveJob(t, spec, shard.Config{
		JobID: "j-chaos",
		Lease: 1500 * time.Millisecond,
	})
	dir := t.TempDir()
	evlog := filepath.Join(dir, "evlog")
	const slowMs = 150

	// Four workers, then kill two once all four provably hold a lease.
	var workers []*chaosWorker
	for i := 0; i < 4; i++ {
		workers = append(workers, spawnWorker(t, client.BaseURL, jobID, dir, evlog, fmt.Sprintf("w%d", i), slowMs))
	}
	// The kill window: all four workers hold a lease (so the two victims
	// die mid-shard) and some variants are already durable (so the
	// zero-re-evaluation assertion has teeth).
	deadline := time.Now().Add(90 * time.Second)
	for {
		st := coord.Status()
		if st.Leased == 4 && len(journaledNames(t, dir, jobID, variants)) >= 4 {
			break
		}
		if st.Done {
			t.Fatal("job finished before the kill window")
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for steady state: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// SIGKILL: no defers run, no journal close, no lease release. Every
	// one of the four held a lease a moment ago, so (short of a photo-
	// finish completion) the dead workers' shards must be stolen.
	for _, w := range workers[:2] {
		if err := w.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		_ = w.cmd.Wait()
	}

	// Snapshot journals FIRST, the evaluation log second: an evaluation's
	// log line lands before its journal record, so any post-snapshot log
	// line naming a snapshotted variant is a genuine re-evaluation.
	durable := journaledNames(t, dir, jobID, variants)
	evalsAtSnapshot := len(evalLines(t, evlog))
	if len(durable) == 0 {
		t.Fatal("no variants journaled before the kill — the test lost its premise")
	}

	// Two replacement workers join the survivors; the dead workers never
	// come back (the permanently-dead case rides on the same run).
	for i := 4; i < 6; i++ {
		workers = append(workers, spawnWorker(t, client.BaseURL, jobID, dir, evlog, fmt.Sprintf("w%d", i), slowMs))
	}
	for _, w := range workers[2:] {
		if err := w.cmd.Wait(); err != nil {
			t.Fatalf("worker %s: %v\n%s", w.id, err, w.out.String())
		}
	}

	if !coord.Done() {
		t.Fatal("job not done after workers exited")
	}
	st := coord.Status()
	if st.Merged != len(variants) {
		t.Fatalf("merged %d of %d variants", st.Merged, len(variants))
	}
	if st.Failed != 0 {
		t.Fatalf("status reports %d failed variants: %+v", st.Failed, coord.Failures())
	}
	if st.Steals == 0 {
		t.Error("no leases were stolen — the kill landed between leases?")
	}

	// Zero re-evaluation: nothing that was durable at the kill was
	// evaluated again by the survivors or replacements.
	after := evalLines(t, evlog)[evalsAtSnapshot:]
	for _, line := range after {
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) == 2 && durable[parts[1]] {
			t.Errorf("variant %q re-evaluated by %s after it was journaled", parts[1], parts[0])
		}
	}
	// (A variant evaluated by a dead worker whose record never reached
	// disk is legitimately re-evaluated by the thief — only durability
	// makes re-evaluation a bug, so the assertion is scoped to durable.)

	// The headline: merged results are bit-identical to a single-process
	// exhaustive sweep.
	assertMergedMatchesDirect(t, coord, run, spec, filepath.Join(dir, "merged.journal"))
}
