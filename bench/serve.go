package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/pipeline"
	"skope/internal/resilience"
	"skope/internal/store"
	"skope/internal/workloads"
)

// serve measures the daemon from its clients' side: a skoped child process
// gets sessions from two HTTP connections, each a closed loop. A session
// is timed from its POST to the last NDJSON line of its results.
type serve struct {
	bin, dir string
	keys     []serveKey
	reqs     []int
	conns    []*http.Client
	refs     []map[string]float64 // per key: variant name -> total time
	sources  map[string]*workloads.Workload

	d      *daemon
	setups int

	sessions, warm atomic.Int64
	// traced records, per traced request, the session time the replay
	// is compared with.
	mu     sync.Mutex
	traced map[int]time.Duration
}

func newServe(ctx context.Context, cfg *config) (*serve, error) {
	s := &serve{
		bin:     filepath.Join(cfg.binDir, "skoped"),
		dir:     cfg.workDir,
		keys:    serveKeys(cfg.smoke),
		reqs:    serveRequests(cfg.seed, cfg.smoke),
		sources: make(map[string]*workloads.Workload),
		traced:  make(map[int]time.Duration),
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", s.bin, "./cmd/skoped")
	build.Dir = cfg.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build skoped: %w\n%s", err, out)
	}
	for i := 0; i < 2; i++ {
		// One keep-alive connection per client.
		s.conns = append(s.conns, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name, workloads.ScaleTest)
		if err != nil {
			return nil, err
		}
		s.sources[name] = w
	}
	return s, nil
}

// setup starts skoped on a fresh store and waits until /v1/healthz
// answers.
func (s *serve) setup(ctx context.Context, _ *tracer) error {
	s.setups++
	dir := filepath.Join(s.dir, fmt.Sprintf("daemon-%d", s.setups))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d, err := startDaemon(ctx, s.bin, dir)
	s.d = d
	return err
}

func (s *serve) reference(ctx context.Context) (map[string]*pipeline.Run, error) {
	runs, err := prepareAll(ctx, nil)
	if err != nil {
		return nil, err
	}
	for _, k := range s.keys {
		vs, err := s.variants(k)
		if err != nil {
			return nil, err
		}
		vs = vs[:len(vs)-1] // the baseline is not a ranked result
		ref, err := references(ctx, runs[k.Bench], vs)
		if err != nil {
			return nil, err
		}
		byName := make(map[string]float64, len(vs))
		for i, m := range vs {
			byName[m.Name] = ref[i]
		}
		s.refs = append(s.refs, byName)
	}
	return runs, nil
}

// variants is the machine list skoped sweeps for a key: the grid around
// its default preset, then the preset itself as the baseline.
func (s *serve) variants(k serveKey) ([]*hw.Machine, error) {
	axes := make([]explore.Axis, len(k.Sweep))
	for i, spec := range k.Sweep {
		var err error
		if axes[i], err = explore.ParseAxis(spec); err != nil {
			return nil, err
		}
	}
	vs, err := variants("bgq", axes)
	if err != nil {
		return nil, err
	}
	return append(vs, hw.BGQ()), nil
}

func (s *serve) requests() int { return len(s.reqs) }
func (s *serve) clients() int  { return len(s.conns) }

// sessionTimes are the client-side marks of one session.
type sessionTimes struct {
	submitted, firstLine, last time.Time
}

// session submits key k from client c and reads its result stream to the
// summary line. Lines are only collected while timing; they are parsed
// afterwards.
func (s *serve) session(ctx context.Context, c int, k serveKey) (lines [][]byte, t sessionTimes, err error) {
	body, err := json.Marshal(map[string]any{"bench": k.Bench, "sweep": k.Sweep})
	if err != nil {
		return nil, t, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.d.url+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		return nil, t, err
	}
	resp, err := s.conns[c].Do(req)
	if err != nil {
		return nil, t, err
	}
	var created struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&created)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusCreated {
		err = fmt.Errorf("submit: %s", resp.Status)
	}
	if err != nil {
		return nil, t, err
	}
	t.submitted = time.Now()

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, s.d.url+"/v1/sessions/"+created.ID+"/results", nil)
	if err != nil {
		return nil, t, err
	}
	if resp, err = s.conns[c].Do(req); err != nil {
		return nil, t, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, t, fmt.Errorf("results: %s", resp.Status)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			if t.firstLine.IsZero() {
				t.firstLine = time.Now()
			}
			lines = append(lines, line)
			if bytes.HasPrefix(line, []byte(`{"type":"summary"`)) {
				t.last = time.Now()
				break
			}
		}
		if rerr != nil {
			return nil, t, fmt.Errorf("results: stream ended before the summary: %w", rerr)
		}
	}
	// Drain the chunked trailer so the connection is reused.
	io.Copy(io.Discard, br)
	return lines, t, nil
}

// wireLine is the part of a result-stream line the checks read.
type wireLine struct {
	Type           string  `json:"type"`
	State          string  `json:"state"`
	Error          string  `json:"error"`
	Variant        string  `json:"variant"`
	TotalTimeS     float64 `json:"total_time_s"`
	SkippedPrepare bool    `json:"skipped_prepare"`
}

// checkSession requires one result line per variant, each ranked total
// time equal to its reference bit for bit, and a summary in state done.
// It reports whether the session was served without preparation.
func checkSession(lines [][]byte, want map[string]float64) (warm bool, err error) {
	results := 0
	var sum *wireLine
	for _, raw := range lines {
		var l wireLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return false, fmt.Errorf("result line: %w", err)
		}
		switch l.Type {
		case "result":
			results++
			ref, ok := want[l.Variant]
			if !ok {
				return false, fmt.Errorf("unexpected variant %q", l.Variant)
			}
			if math.Float64bits(l.TotalTimeS) != math.Float64bits(ref) {
				return false, fmt.Errorf("variant %s: total time %v, reference %v", l.Variant, l.TotalTimeS, ref)
			}
		case "summary":
			sum = &l
		}
	}
	switch {
	case sum == nil:
		return false, errors.New("no summary line")
	case sum.State != "done":
		return false, fmt.Errorf("session %s: %s", sum.State, sum.Error)
	case results != len(want):
		return false, fmt.Errorf("%d ranked results for %d variants", results, len(want))
	}
	return sum.SkippedPrepare, nil
}

func (s *serve) run(ctx context.Context, c, i int) outcome {
	k := s.reqs[i]
	start := time.Now()
	lines, t, err := s.session(ctx, c, s.keys[k])
	return s.outcome(k, t.last.Sub(start), lines, err)
}

// runTraced times the session like run and records the client's marks as
// spans: the session, split into submit, the wait for the first line, and
// the stream.
func (s *serve) runTraced(ctx context.Context, c, i int, tr *tracer) outcome {
	k := s.reqs[i]
	start := time.Now()
	lines, t, err := s.session(ctx, c, s.keys[k])
	lat := t.last.Sub(start)
	if err == nil {
		root := tr.mark(i, 0, "serve.session", start, t.last)
		tr.mark(i, root, "serve.submit", start, t.submitted)
		tr.mark(i, root, "serve.first_line", t.submitted, t.firstLine)
		tr.mark(i, root, "serve.stream", t.firstLine, t.last)
		var bytes int
		for _, l := range lines {
			bytes += len(l)
		}
		tr.add("serve.lines", float64(len(lines)))
		tr.add("serve.bytes", float64(bytes))
		tr.add("serve.traced", 1)
	}
	o := s.outcome(k, lat, lines, err)
	if o.err == nil && strings.HasSuffix(o.class, "/warm") {
		s.mu.Lock()
		s.traced[i] = lat
		s.mu.Unlock()
	}
	return o
}

func (s *serve) outcome(k int, lat time.Duration, lines [][]byte, err error) outcome {
	class := s.keys[k].Bench
	if err == nil {
		var warm bool
		warm, err = checkSession(lines, s.refs[k])
		s.sessions.Add(1)
		if warm {
			s.warm.Add(1)
			class += "/warm"
		} else {
			class += "/cold"
		}
	}
	return outcome{lat: lat, class: class, variants: len(s.refs[k]), err: err}
}

// finish reads the daemon's peak RSS and stops it. After a traced pass it
// replays every warm traced session in process with SweepCached against a
// copy of the daemon's store, so the session's time splits into the sweep
// and everything the daemon adds around it.
func (s *serve) finish(ctx context.Context, tr *tracer) (float64, error) {
	peak, err := s.d.peakRSS()
	if err != nil {
		return 0, err
	}
	if err := s.d.stop(); err != nil {
		return 0, err
	}
	if tr == nil {
		return peak, nil
	}
	tr.add("serve.sessions", float64(s.sessions.Load()))
	tr.add("serve.warm", float64(s.warm.Load()))
	copyPath := filepath.Join(s.dir, "replay.cas")
	if err := copyFile(filepath.Join(s.d.dir, "skoped.cas"), copyPath); err != nil {
		return 0, err
	}
	st, err := store.Open(copyPath)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	lim, err := guard.ParseLimits("")
	if err != nil {
		return 0, err
	}
	// The options a skoped session runs with under the daemon's defaults.
	opts := []pipeline.Option{
		pipeline.WithLimits(lim),
		pipeline.WithLenient(false),
		pipeline.WithCriteria(hotspot.Criteria{TimeCoverage: 0.90, CodeLeanness: 0.50, MaxSpots: 10}),
		pipeline.WithWorkers(1),
		pipeline.WithRetry(resilience.DefaultPolicy(0)),
	}
	for i, session := range s.traced {
		k := s.keys[s.reqs[i]]
		vs, err := s.variants(k)
		if err != nil {
			return 0, err
		}
		id := tr.replay(i, "serve.sweep")
		_, sum, err := pipeline.SweepCached(ctx, s.sources[k.Bench], vs, st, opts...)
		d := tr.stop(id, 1)
		if err != nil {
			return 0, err
		}
		if !sum.SkippedPrepare {
			return 0, fmt.Errorf("replay of session %d was not served from the store copy", i)
		}
		tr.add("serve.overhead.ns", float64(session-d))
		tr.add("serve.replayed", 1)
	}
	return peak, nil
}

func (s *serve) close() {
	if s.d != nil {
		s.d.stop()
	}
	for _, c := range s.conns {
		c.CloseIdleConnections()
	}
}

func copyFile(from, to string) error {
	data, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, data, 0o644)
}

// daemon is a running skoped child process.
type daemon struct {
	cmd  *exec.Cmd
	dir  string
	url  string
	log  *os.File
	done chan struct{} // closed once the process has been waited for
	err  error
}

// startDaemon runs skoped with its store and data under dir and returns
// once /v1/healthz answers 200.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "skoped.log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{dir: dir, url: "http://" + addr, log: logf, done: make(chan struct{})}
	// A daemon serving many clients drops finished sessions; without a TTL
	// it keeps every session's analyses and grows by ~0.6 MiB a session.
	// The sessions it holds number about the session rate times the TTL,
	// so a short TTL keeps its peak RSS from following the host's speed;
	// each client asks for its session's results right after submitting.
	d.cmd = exec.Command(bin, "-addr", addr, "-store", filepath.Join(dir, "skoped.cas"), "-data-dir", dir,
		"-session-ttl", "250ms")
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.cmd.SysProcAttr = childAttr()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start skoped: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.url + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			logf.Close()
			return d, fmt.Errorf("skoped exited before answering: %v (log %s)", d.err, logf.Name())
		case <-ctx.Done():
			return d, ctx.Err()
		case <-time.After(200 * time.Microsecond): // fine enough for a ~5 ms start
		}
		if time.Now().After(deadline) {
			return d, fmt.Errorf("skoped did not answer /v1/healthz within 30s (log %s)", logf.Name())
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// peakRSS reads the daemon's high-water resident set size.
func (d *daemon) peakRSS() (float64, error) {
	return peakRSS(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// stop asks skoped to drain and waits for it to exit, killing it after
// ten seconds. Stopping a stopped daemon does nothing.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return nil
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
	if d.err != nil {
		return fmt.Errorf("skoped: %w (log %s)", d.err, d.log.Name())
	}
	return nil
}
