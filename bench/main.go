// Command bench is the repository's end-to-end and per-layer benchmark.
//
// It measures what co-design researchers and daemon operators wait for,
// on four workloads that stress different layers:
//
//	cold-prepare    preparing a workload from source, then a small sweep
//	grid-sweep      2048-variant sweeps of prepared workloads
//	store-mixed     sweeps mixing store hits with never-seen variants
//	serve-sessions  skoped sessions from two HTTP connections
//
// Every request's output is checked against references computed with the
// uncached analysis path. Run it from the repository root:
//
//	bash bench/run.sh --workload grid-sweep --seed 1 --seconds 30 --trace 0
//	cd bench && go run . -seed 1          # all four, one child process each
//
// With -trace 1 a run reports per-layer metrics from a traced pass instead
// of the end-to-end metrics. The last line printed is a JSON object with
// the keys correct, attempted, failed and metrics. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// report is the -out file.
type report struct {
	Host    host               `json:"host"`
	Seed    uint64             `json:"seed"`
	Seconds int                `json:"seconds"`
	Trace   bool               `json:"trace"`
	Results map[string]*result `json:"results"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: cold-prepare, grid-sweep, store-mixed or serve-sessions (default: all four, each in a child process)")
	seed := fs.Uint64("seed", 1, "seed the request sequences are drawn from")
	seconds := fs.Int("seconds", 30, "time limit for the measured requests; a run that reaches it stops early")
	trace := fs.Int("trace", 0, "1: run the traced pass and report per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	out := fs.String("out", "", "write the results and host metadata to this file as JSON")
	smoke := fs.Bool("smoke", false, "a handful of requests on small grids")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1, -seconds a positive number, and there are no arguments")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds,
		trace: *trace == 1, smoke: *smoke,
		root: root, binDir: filepath.Join(root, ".bench_build"),
	}
	if err := os.MkdirAll(cfg.binDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep := &report{
		Host: hostInfo(root, cfg.binDir), Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Results: make(map[string]*result),
	}
	fmt.Fprintf(stdout, "host: %s\n", rep.Host)

	var res *result
	if cfg.workload == "" {
		res, err = runAll(ctx, cfg, *spans, rep, stdout, stderr)
	} else {
		res, err = runOne(ctx, &cfg, *spans, stdout)
		rep.Results[cfg.workload] = res
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if cfg.workload != "" {
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// findRoot locates the repository root: the working directory, or its
// parent when run from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, d := range []string{dir, filepath.Dir(dir)} {
		if _, err := os.Stat(filepath.Join(d, "cmd", "skoped")); err == nil {
			return d, nil
		}
	}
	return "", errors.New("run from the repository root: no cmd/skoped found")
}

// runOne runs one workload in this process, in a scratch directory that
// is removed afterwards.
func runOne(ctx context.Context, cfg *config, spans string, stdout io.Writer) (*result, error) {
	dir, err := os.MkdirTemp(cfg.binDir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	start := time.Now()
	res, err := runWorkload(ctx, cfg, tr, stdout)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "run took %.1f s\n", time.Since(start).Seconds())
	if tr != nil && spans != "" {
		if err := tr.write(spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runAll runs every workload in a child process of its own, so one
// workload's heap cannot change the collector's pacing for the next. It
// returns the combined verdict; each child prints its own report.
func runAll(ctx context.Context, cfg config, spans string, rep *report, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	total := &result{Correct: true}
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		if spans != "" {
			args = append(args, "-spans", spans+"."+name)
		}
		var buf bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		cmd.SysProcAttr = childAttr()
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 30 * time.Second
		runErr := cmd.Run()
		var res result
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s: no result (%v)", name, runErr)
		}
		rep.Results[name] = &res
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
	}
	fmt.Fprintf(stdout, "all workloads: %d requests, %d failed\n", total.Attempted, total.Failed)
	return total, nil
}
