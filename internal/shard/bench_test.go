package shard_test

// Scaling benchmark for the sharded sweep: the same 24-variant job run by
// one worker process versus four. The container this is pinned on has a
// single CPU, so raw analytical evaluation cannot speed up by adding
// processes; instead each worker arms the explore.evaluate fault point to
// model a fixed per-evaluation latency (as a remote profiler or a slower
// machine would impose), and the benchmark measures how well the
// coordinator overlaps that latency across workers. BENCH_shard.json pins
// the numbers; regenerate with `make bench-shard`.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"skope/internal/shard"
)

// benchSlowMs is the modeled per-evaluation latency. At 24 variants the
// serial floor is 14.4s; four workers overlapping it have a 3.6s floor.
// The latency must dominate each worker's startup preparation (~0.4s of
// CPU, which serializes across processes on a single-CPU host) for the
// benchmark to measure coordination overlap rather than prepare cost.
const benchSlowMs = 600

func benchmarkShardedSweep(b *testing.B, workers int) {
	spec := chaosSpec(b)
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		coord, err := shard.NewCoordinator(shard.Config{
			JobID: "bench",
			Spec:  spec,
			Lease: 10 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		svc := shard.NewService()
		svc.Add(coord)
		mux := http.NewServeMux()
		svc.Mount(mux)
		srv := httptest.NewServer(mux)
		dir := b.TempDir()
		b.StartTimer()

		procs := make([]*exec.Cmd, workers)
		for w := 0; w < workers; w++ {
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(),
				"SHARD_TEST_WORKER=1",
				"SHARD_TEST_URL="+srv.URL,
				"SHARD_TEST_JOB=bench",
				"SHARD_TEST_DIR="+dir,
				fmt.Sprintf("SHARD_TEST_ID=w%d", w),
				"SHARD_TEST_SLOW_MS="+strconv.Itoa(benchSlowMs),
			)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				b.Fatal(err)
			}
			procs[w] = cmd
		}
		for _, p := range procs {
			if err := p.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if !coord.Done() {
			b.Fatalf("job not done: %+v", coord.Status())
		}
		srv.Close()
		b.StartTimer()
	}
}

func BenchmarkShardedSweepWorkers1(b *testing.B) { benchmarkShardedSweep(b, 1) }
func BenchmarkShardedSweepWorkers4(b *testing.B) { benchmarkShardedSweep(b, 4) }
