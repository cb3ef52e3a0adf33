package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"skope/internal/resilience"
)

// Service is the coordinator's HTTP surface: a job registry plus the
// worker-protocol routes, mountable into any daemon's mux (cmd/skoped
// mounts it next to the session routes; tests mount it on a httptest
// server). Job creation is left to the host — computing a job's layout
// fingerprint means preparing the workload, which each host schedules its
// own way — so the host creates Coordinators and Adds them here.
type Service struct {
	mu     sync.Mutex
	jobs   map[string]*Coordinator
	order  []string
	nextID int
}

// NewService returns an empty job registry.
func NewService() *Service {
	return &Service{jobs: make(map[string]*Coordinator)}
}

// Add registers a coordinator under its job ID. IDs of the minted form
// ("j-000042") advance the NextJobID counter past themselves, so a
// daemon that recovers persisted jobs at startup never mints a
// colliding ID for the next submission.
func (s *Service) Add(c *Coordinator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := c.cfg.JobID
	if _, dup := s.jobs[id]; !dup {
		s.order = append(s.order, id)
	}
	s.jobs[id] = c
	if rest, ok := strings.CutPrefix(id, "j-"); ok {
		if n, err := strconv.Atoi(rest); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
}

// NextJobID mints a fresh job ID ("j-000001", ...).
func (s *Service) NextJobID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return fmt.Sprintf("j-%06d", s.nextID)
}

// Job returns the coordinator for the given job ID, if registered.
func (s *Service) Job(id string) (*Coordinator, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.jobs[id]
	return c, ok
}

// Statuses snapshots every registered job in creation order.
func (s *Service) Statuses() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Coordinator, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, c := range jobs {
		out[i] = c.Status()
	}
	return out
}

// Mount registers the shard routes on the mux: job listing and detail,
// plus the worker protocol (register, lease, heartbeat, complete, fail).
func (s *Service) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/shards", s.handleList)
	mux.HandleFunc("GET /v1/shards/{job}", s.handleDetail)
	mux.HandleFunc("POST /v1/shards/{job}/register", s.handleRegister)
	mux.HandleFunc("POST /v1/shards/{job}/lease", s.handleLease)
	mux.HandleFunc("POST /v1/shards/{job}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/shards/{job}/complete", s.handleComplete)
	mux.HandleFunc("POST /v1/shards/{job}/fail", s.handleFail)
}

// Wire shapes of the worker protocol.
type workerRequest struct {
	Worker string `json:"worker"`
	Shard  string `json:"shard,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Epoch is the fencing token from the shard's grant; heartbeat,
	// complete, and fail reports are rejected when it is stale.
	Epoch uint64 `json:"epoch,omitempty"`

	Results  []VariantResult  `json:"results,omitempty"`
	Failures []VariantFailure `json:"failures,omitempty"`
}

// LeaseResponse is the wire form of one lease request's outcome.
type LeaseResponse struct {
	State LeaseState `json:"state"`
	// Shard and Epoch are set when State is LeaseGranted.
	Shard *Shard `json:"shard,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	// LeaseMs is the granted (or renewed) lease duration.
	LeaseMs int64 `json:"lease_ms,omitempty"`
}

// JobDetail is the wire form of one job: its live status plus everything
// a worker needs to participate (the spec to reproduce the grid, the
// partition to cross-check it).
type JobDetail struct {
	Status Status  `json:"status"`
	Spec   JobSpec `json:"spec"`
	Shards []Shard `json:"shards"`
}

// Protocol error codes (the "code" field of error responses), so clients
// can map HTTP errors back to the package's sentinel errors.
const (
	codeNotOwner     = "not_owner"
	codeConflict     = "conflict"
	codeUnknownShard = "unknown_shard"
	codeStaleLease   = "stale_epoch"
)

func shardWriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func shardWriteError(w http.ResponseWriter, err error) {
	status, code := http.StatusBadRequest, ""
	switch {
	case errors.Is(err, ErrNotOwner):
		status, code = http.StatusConflict, codeNotOwner
	case errors.Is(err, ErrStaleLease):
		status, code = http.StatusConflict, codeStaleLease
	case errors.Is(err, ErrConflict):
		status, code = http.StatusConflict, codeConflict
	case errors.Is(err, ErrUnknownShard):
		status, code = http.StatusNotFound, codeUnknownShard
	}
	shardWriteJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}

// job resolves the {job} path segment; nil means the response was written.
func (s *Service) job(w http.ResponseWriter, r *http.Request) *Coordinator {
	id := r.PathValue("job")
	c, ok := s.Job(id)
	if !ok {
		shardWriteJSON(w, http.StatusNotFound, map[string]string{"error": "no job " + id})
	}
	return c
}

// decode parses the request body; false means the response was written.
func decode(w http.ResponseWriter, r *http.Request, req *workerRequest) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		shardWriteJSON(w, http.StatusBadRequest, map[string]string{"error": "body: " + err.Error()})
		return false
	}
	if req.Worker == "" {
		shardWriteJSON(w, http.StatusBadRequest, map[string]string{"error": "worker is required"})
		return false
	}
	return true
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	statuses := s.Statuses()
	sort.SliceStable(statuses, func(i, j int) bool { return statuses[i].JobID < statuses[j].JobID })
	shardWriteJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

func (s *Service) handleDetail(w http.ResponseWriter, r *http.Request) {
	c := s.job(w, r)
	if c == nil {
		return
	}
	shardWriteJSON(w, http.StatusOK, JobDetail{Status: c.Status(), Spec: c.Spec(), Shards: c.Shards()})
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	c := s.job(w, r)
	if c == nil {
		return
	}
	var req workerRequest
	if !decode(w, r, &req) {
		return
	}
	c.Register(req.Worker)
	shardWriteJSON(w, http.StatusOK, map[string]string{"worker": req.Worker})
}

func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	c := s.job(w, r)
	if c == nil {
		return
	}
	var req workerRequest
	if !decode(w, r, &req) {
		return
	}
	g, err := c.Lease(req.Worker)
	if err != nil {
		shardWriteError(w, err)
		return
	}
	resp := LeaseResponse{State: g.State, LeaseMs: g.Lease.Milliseconds()}
	if g.State == LeaseGranted {
		sh := g.Shard
		resp.Shard = &sh
		resp.Epoch = g.Epoch
	}
	shardWriteJSON(w, http.StatusOK, resp)
}

func (s *Service) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	c := s.job(w, r)
	if c == nil {
		return
	}
	var req workerRequest
	if !decode(w, r, &req) {
		return
	}
	d, err := c.Heartbeat(req.Worker, req.Shard, req.Epoch)
	if err != nil {
		shardWriteError(w, err)
		return
	}
	shardWriteJSON(w, http.StatusOK, LeaseResponse{State: LeaseGranted, LeaseMs: d.Milliseconds()})
}

func (s *Service) handleComplete(w http.ResponseWriter, r *http.Request) {
	c := s.job(w, r)
	if c == nil {
		return
	}
	var req workerRequest
	if !decode(w, r, &req) {
		return
	}
	if err := c.Complete(req.Worker, req.Shard, req.Epoch, req.Results, req.Failures); err != nil {
		shardWriteError(w, err)
		return
	}
	shardWriteJSON(w, http.StatusOK, map[string]any{"merged": true})
}

func (s *Service) handleFail(w http.ResponseWriter, r *http.Request) {
	c := s.job(w, r)
	if c == nil {
		return
	}
	var req workerRequest
	if !decode(w, r, &req) {
		return
	}
	if err := c.Fail(req.Worker, req.Shard, req.Epoch, req.Reason); err != nil {
		shardWriteError(w, err)
		return
	}
	shardWriteJSON(w, http.StatusOK, map[string]any{"failed": true})
}

// ErrUnavailable marks a coordinator-side server error (HTTP 5xx): the
// coordinator exists but could not serve the request. Transient by
// classification — a restarting daemon answers 5xx or resets until it
// is back, and the worker's retry policy is what bridges the gap.
var ErrUnavailable = errors.New("coordinator unavailable")

// Client is the typed client of the worker protocol — what Worker.Run and
// the daemons' status commands speak. Every method takes a context and
// runs under a per-call deadline (Timeout), so one hung connection can
// never stall a worker past its heartbeat cadence; deadline misses are
// marked as attempt timeouts, which the retry classification treats as
// transient (the parent context expiring is not).
type Client struct {
	// BaseURL is the coordinator's root (e.g. "http://127.0.0.1:8080").
	BaseURL string
	// Transport is the RoundTripper to use (nil selects
	// http.DefaultTransport). The netfault chaos seam threads in here.
	Transport http.RoundTripper
	// Timeout is the per-attempt deadline (default 30s, <0 disables). The
	// effective deadline is the earlier of this and the caller's
	// context — workers derive tighter heartbeat deadlines from their
	// lease duration and pass them via ctx.
	Timeout time.Duration
}

func (c *Client) timeout() time.Duration {
	if c.Timeout != 0 {
		return c.Timeout
	}
	return 30 * time.Second
}

// protocolError reconstructs a sentinel-wrapped error from an error
// response body.
func protocolError(status int, body []byte) error {
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	_ = json.Unmarshal(body, &e)
	if e.Error == "" {
		e.Error = fmt.Sprintf("http %d", status)
	}
	switch e.Code {
	case codeNotOwner:
		return fmt.Errorf("%s: %w", e.Error, ErrNotOwner)
	case codeStaleLease:
		return fmt.Errorf("%s: %w", e.Error, ErrStaleLease)
	case codeConflict:
		return fmt.Errorf("%s: %w", e.Error, ErrConflict)
	case codeUnknownShard:
		return fmt.Errorf("%s: %w", e.Error, ErrUnknownShard)
	}
	if status >= 500 {
		return fmt.Errorf("%s: %w", e.Error, ErrUnavailable)
	}
	return errors.New(e.Error)
}

// do runs one HTTP exchange under the per-call deadline and reads the
// whole response. A deadline miss attributable to this call (the parent
// context is still live) is wrapped as a transient attempt timeout.
func (c *Client) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	callCtx := ctx
	if d := c.timeout(); d > 0 {
		var cancel context.CancelFunc
		callCtx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(callCtx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	attemptTimeout := func(err error) error {
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			return fmt.Errorf("%w: %w", resilience.ErrAttemptTimeout, err)
		}
		return err
	}
	resp, err := (&http.Client{Transport: c.Transport}).Do(req)
	if err != nil {
		return 0, nil, attemptTimeout(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, attemptTimeout(err)
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// call posts req to the job's verb route and decodes the response into
// out (out may be nil).
func (c *Client) call(ctx context.Context, job, verb string, req workerRequest, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("shard: client: %w", err)
	}
	url := fmt.Sprintf("%s/v1/shards/%s/%s", c.BaseURL, job, verb)
	status, respBody, err := c.do(ctx, http.MethodPost, url, body)
	if err != nil {
		return fmt.Errorf("shard: client %s %s: %w", verb, job, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("shard: client %s %s: %w", verb, job, protocolError(status, respBody))
	}
	if out != nil {
		if err := json.Unmarshal(respBody, out); err != nil {
			return fmt.Errorf("shard: client %s %s: %w", verb, job, err)
		}
	}
	return nil
}

// get fetches url and decodes the response into out.
func (c *Client) get(ctx context.Context, what, url string, out any) error {
	status, body, err := c.do(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("shard: client %s: %w", what, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("shard: client %s: %w", what, protocolError(status, body))
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("shard: client %s: %w", what, err)
	}
	return nil
}

// List fetches every registered job's status, sorted by job ID — how a
// worker discovers open jobs without being told one.
func (c *Client) List(ctx context.Context) ([]Status, error) {
	var out struct {
		Jobs []Status `json:"jobs"`
	}
	if err := c.get(ctx, "list", c.BaseURL+"/v1/shards", &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Detail fetches the job's status, spec, and partition.
func (c *Client) Detail(ctx context.Context, job string) (JobDetail, error) {
	var out JobDetail
	err := c.get(ctx, "detail "+job, fmt.Sprintf("%s/v1/shards/%s", c.BaseURL, job), &out)
	return out, err
}

// Register announces the worker to the job.
func (c *Client) Register(ctx context.Context, job, worker string) error {
	return c.call(ctx, job, "register", workerRequest{Worker: worker}, nil)
}

// Lease requests a shard.
func (c *Client) Lease(ctx context.Context, job, worker string) (LeaseResponse, error) {
	var out LeaseResponse
	err := c.call(ctx, job, "lease", workerRequest{Worker: worker}, &out)
	return out, err
}

// Heartbeat renews the worker's lease on the shard under its grant epoch.
func (c *Client) Heartbeat(ctx context.Context, job, worker, shardID string, epoch uint64) error {
	return c.call(ctx, job, "heartbeat", workerRequest{Worker: worker, Shard: shardID, Epoch: epoch}, nil)
}

// Complete reports the shard's results under its grant epoch.
func (c *Client) Complete(ctx context.Context, job, worker, shardID string, epoch uint64, results []VariantResult, failures []VariantFailure) error {
	return c.call(ctx, job, "complete", workerRequest{
		Worker: worker, Shard: shardID, Epoch: epoch, Results: results, Failures: failures,
	}, nil)
}

// Fail reports that the worker could not process the shard.
func (c *Client) Fail(ctx context.Context, job, worker, shardID string, epoch uint64, reason string) error {
	return c.call(ctx, job, "fail", workerRequest{Worker: worker, Shard: shardID, Epoch: epoch, Reason: reason}, nil)
}
