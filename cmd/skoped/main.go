// Command skoped is the long-running analysis service: the skope pipeline
// behind an HTTP/JSON API, with a content-addressed result store shared by
// every session, process, and the skope CLI.
//
// A session is one design-space sweep: a workload (built-in benchmark or
// submitted minilang source), a machine grid around a base preset, and the
// evaluation settings (criteria, guard limits, lenient mode, confidence
// floor). Sessions run concurrently under a global worker budget — each
// session holds its requested workers as tokens of a counting semaphore —
// and their results are served as a chunked JSON-lines stream: progress
// while running, then the ranked variants, then a summary trailer with the
// Pareto frontier. A session sweeps the full grid, or with mode
// "adaptive" only the variants a surrogate-guided search chooses; in both
// modes the base machine is swept as the last variant — journaled, stored
// and held to the confidence floor like the grid — so a baseline below
// the floor fails the session.
//
// Every result the daemon computes is written through to the
// content-addressed store (-store). Results are keyed by what they are —
// workload model fingerprint x machine fingerprint x evaluation settings —
// so a session repeating a sweep any other session, process, or CLI run
// has done is served with zero recomputation: the workload is not even
// re-prepared, and the streamed results are bit-identical.
//
// Sessions that name a journal_id additionally append every completed
// variant to a crash-safe journal under -data-dir. After a daemon kill, a
// new session with the same journal_id resumes the sweep: journaled
// variants are replayed bit-identically in their original completion
// order, and only the remainder is computed.
//
// The daemon sheds load instead of falling over: -max-sessions bounds the
// sessions queued or running at once (excess submissions get 503 with a
// Retry-After hint, same contract as draining), -session-ttl
// garbage-collects finished sessions so the table stays bounded, and
// NDJSON result streams carry a per-write deadline (-stream-write-timeout)
// so a stalled reader is disconnected rather than pinning the stream. A
// background scrubber (-scrub-interval) re-verifies every store record,
// quarantines corrupt ones — visible in /v1/healthz — and lets the next
// matching evaluation transparently recompute and replace them.
//
// On SIGTERM or SIGINT the daemon drains: new session submissions are
// refused with 503 while running sessions get up to -drain-timeout to
// finish (result streams keep serving); whatever is still running after
// the timeout is canceled and the daemon exits 1 instead of 0.
//
// Usage:
//
//	skoped -addr :8080 -store skoped.cas -data-dir /var/lib/skoped \
//	       [-max-workers 16] [-max-sessions 64] [-session-ttl 1h] \
//	       [-scrub-interval 10m] [-stream-write-timeout 30s] \
//	       [-limits ...] [-lenient] \
//	       [-coverage 0.9] [-leanness 0.5] [-spots 10] [-drain-timeout 30s]
//
// Endpoints:
//
//	GET  /v1/healthz               liveness + session count (+ draining)
//	GET  /v1/params                benchmarks, machine presets, sweep axes, limit keys
//	POST /v1/sessions              submit a sweep session
//	GET  /v1/sessions              list sessions
//	GET  /v1/sessions/{id}         inspect one session
//	GET  /v1/sessions/{id}/results stream results (chunked JSON lines)
//	POST /v1/sessions/{id}/cancel  cancel a running session
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skope/internal/cliflags"
)

func main() {
	var cfg daemonConfig
	cfg.register(flag.CommandLine)
	flag.Parse()
	srv, err := newServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skoped:", err)
		os.Exit(1)
	}
	fmt.Printf("skoped: listening on %s (store %s, data dir %s, worker budget %d)\n",
		cfg.addr, cfg.storePath, cfg.dataDir, cfg.maxWorkers)

	// Header/read/idle timeouts bound what a slow or hostile client can
	// pin (slowloris, abandoned keep-alives). WriteTimeout deliberately
	// stays zero: NDJSON result streams are long-lived by design and get
	// per-write deadlines in handleResults (-stream-write-timeout) instead
	// of a whole-response budget.
	hsrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hsrv.ListenAndServe() }()

	select {
	case err := <-errc:
		srv.Close()
		fmt.Fprintln(os.Stderr, "skoped:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	// Drain: refuse new submissions, let in-flight sessions finish within
	// the timeout, then shut the listener down and cancel the rest. A
	// second signal aborts immediately via the restored default handler.
	stop()
	srv.beginDrain()
	fmt.Printf("skoped: draining: refusing new submissions, waiting up to %s for running sessions\n",
		cfg.drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	drained := srv.awaitSessions(dctx)
	_ = hsrv.Shutdown(dctx)
	srv.Close()
	if !drained {
		fmt.Fprintln(os.Stderr, "skoped: drain timeout: canceled remaining sessions")
		os.Exit(1)
	}
	fmt.Println("skoped: drained cleanly")
}

// daemonConfig is the daemon's command line. The guard and criteria
// surfaces are the shared cliflags definitions — identical to cmd/skope
// and cmd/skopec — and act as per-session defaults that a session request
// can override.
type daemonConfig struct {
	grd   cliflags.Guard
	crit  cliflags.Criteria
	serve cliflags.Serve

	addr         string
	storePath    string
	dataDir      string
	machine      string
	maxWorkers   int
	drainTimeout time.Duration
}

func (c *daemonConfig) register(fs *flag.FlagSet) {
	c.grd.Register(fs)
	c.crit.Register(fs, 0.90, 0.50, 10)
	c.serve.Register(fs)
	fs.StringVar(&c.addr, "addr", "localhost:8080", "listen address")
	fs.StringVar(&c.storePath, "store", "skoped.cas", "content-addressed result store file shared by all sessions (empty = no store)")
	fs.StringVar(&c.dataDir, "data-dir", ".", "directory for session journals (resume by journal_id)")
	fs.StringVar(&c.machine, "machine", "bgq", "default base machine preset for sessions that name none")
	fs.IntVar(&c.maxWorkers, "max-workers", 0, "global worker budget shared by all sessions (0 = GOMAXPROCS)")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 30*time.Second, "on SIGTERM/SIGINT: refuse new submissions and wait this long for running sessions before shutting down")
}
