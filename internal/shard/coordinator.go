package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"skope/internal/explore"
	"skope/internal/hw"
	"skope/internal/resilience"
)

// Lease protocol errors.
var (
	// ErrNotOwner marks a heartbeat or completion from a worker that no
	// longer holds the shard's lease (it expired and was stolen). The
	// worker should abandon the shard — its journal survives for the new
	// owner — and ask for a fresh lease.
	ErrNotOwner = errors.New("shard lease not held")
	// ErrConflict marks two workers reporting different payloads for the
	// same variant fingerprint — impossible under the bit-exactness
	// invariant, so it means a corrupted worker or a fingerprint
	// collision, and the job refuses to merge rather than pick a side.
	ErrConflict = errors.New("shard merge conflict")
	// ErrUnknownShard marks a report against a shard ID the job does not
	// have.
	ErrUnknownShard = errors.New("unknown shard")
	// ErrStaleLease marks a report carrying a fencing epoch older than the
	// shard's current one: the reporter's lease expired and the shard was
	// re-granted. Unlike ErrNotOwner (no lease at all), a stale epoch
	// proves the reporter once held the shard and lost it — its report is
	// cleanly rejected so it can never race the current holder's, no
	// matter how delayed, duplicated, or reordered its delivery was.
	ErrStaleLease = errors.New("stale lease epoch")
)

// LeaseState is the outcome of one lease request.
type LeaseState string

const (
	// LeaseGranted carries a shard to work on.
	LeaseGranted LeaseState = "lease"
	// LeaseWait means every remaining shard is currently leased: poll
	// again after the poll interval (a lease may expire or fail).
	LeaseWait LeaseState = "wait"
	// LeaseDone means every shard is complete; the worker can exit.
	LeaseDone LeaseState = "done"
	// LeaseQuarantined means this worker's breaker is open: the
	// coordinator refuses to lease to it until the breaker's cooldown
	// admits a probe.
	LeaseQuarantined LeaseState = "quarantined"
)

// VariantResult is one completed variant as a worker reports it: the
// journal record (key = machine fingerprint, payload = the sweep record's
// exact bytes) plus the variant's grid index and projected time for the
// job's Pareto frontier.
type VariantResult struct {
	Index    int             `json:"index"`
	Key      string          `json:"key"`
	Payload  json.RawMessage `json:"payload"`
	TimeBits uint64          `json:"time"`
}

// VariantFailure is one variant a worker could not evaluate (validation
// rejection, confidence floor, exhausted retries). Failures are recorded,
// not retried by the coordinator: the engine below already retried
// transients, so what reaches here is deterministic for this spec.
type VariantFailure struct {
	Index  int    `json:"index"`
	Worker string `json:"worker"`
	Err    string `json:"err"`
}

// Config parameterizes a Coordinator.
type Config struct {
	// JobID names the job in the HTTP surface and status output.
	JobID string
	// Spec is the job being coordinated. The coordinator materializes the
	// grid once at construction and verifies the spec's LayoutFP is set.
	Spec JobSpec
	// Lease is how long a granted lease lives between heartbeats
	// (default 30s). Heartbeats renew it for another full interval.
	Lease time.Duration
	// BreakerThreshold and BreakerCooldown shape the per-worker circuit
	// breaker: Threshold consecutive shard failures quarantine the worker
	// (default 3); after Cooldown (default 4×Lease) one probe lease is
	// allowed again.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Clock is the time source (nil selects time.Now; tests pin it).
	Clock func() time.Time
	// Log, when set, makes the coordinator crash-safe: the job record,
	// every lease grant/renewal (with its fencing epoch), and every
	// completed shard's results are appended to it before the worker
	// learns of them, so RecoverCoordinator rebuilds the exact state
	// after a daemon crash. Nil keeps the job memory-only.
	Log *Log
}

// workerInfo is the coordinator's per-worker bookkeeping.
type workerInfo struct {
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Stolen    int `json:"stolen"`
}

// shardState tracks one shard through the lease state machine.
type shardState int

const (
	shardPending shardState = iota // unleased, available
	shardLeased                    // held by a worker under deadline
	shardDone                      // every covered variant reported
)

type lease struct {
	worker   string
	epoch    uint64
	deadline time.Time
}

// Coordinator runs one job's lease state machine: shards move pending →
// leased → done, expire back to pending when their heartbeat deadline
// passes (work-stealing), and their results merge into a deduplicated
// record set bound to the job's layout fingerprint. Safe for concurrent
// use — every HTTP handler call lands here.
type Coordinator struct {
	cfg      Config
	variants []*hw.Machine
	shards   []Shard

	breaker *resilience.Breaker

	mu     sync.Mutex
	state  []shardState
	leases map[int]lease // shard index → holder
	// epochs fences each shard: bumped on every grant, never reset —
	// not even by recovery — so a report carrying an old epoch is
	// rejected no matter when it arrives.
	epochs  []uint64
	workers map[string]*workerInfo
	merged  map[string][]byte // variant fingerprint → journal payload
	times   map[int]uint64    // variant index → projected-time bits
	// failed records variant failures by index (first report wins).
	failed      map[int]VariantFailure
	steals      int
	staleFenced int // reports rejected by epoch fencing

	// log is the crash-safety journal (nil = memory-only job). A write
	// failure latches logDegraded: the job keeps serving from memory.
	log              *Log
	logDegraded      bool
	logErr           error
	recoveredShards  int
	recoveredRecords int
}

// NewCoordinator builds the coordinator for one job, materializing and
// partitioning the spec's grid.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Spec.LayoutFP == "" {
		return nil, fmt.Errorf("shard: job %s: spec has no layout fingerprint", cfg.JobID)
	}
	variants, err := cfg.Spec.Variants()
	if err != nil {
		return nil, fmt.Errorf("shard: job %s: %w", cfg.JobID, err)
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 30 * time.Second
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 4 * cfg.Lease
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	shards := Partition(cfg.Spec.LayoutFP, variants, cfg.Spec.ShardSize)
	breaker := resilience.NewProbingBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	breaker.Clock = cfg.Clock
	c := &Coordinator{
		cfg:      cfg,
		variants: variants,
		shards:   shards,
		breaker:  breaker,
		state:    make([]shardState, len(shards)),
		leases:   make(map[int]lease),
		epochs:   make([]uint64, len(shards)),
		workers:  make(map[string]*workerInfo),
		merged:   make(map[string][]byte),
		times:    make(map[int]uint64),
		failed:   make(map[int]VariantFailure),
	}
	if cfg.Log != nil {
		// The job record is the recovery anchor; failing to persist it
		// is a creation failure, not a degradation — an operator who
		// asked for a crash-safe job should not silently get a
		// memory-only one.
		if err := cfg.Log.begin(cfg.JobID); err != nil {
			return nil, fmt.Errorf("shard: job %s: log: %w", cfg.JobID, err)
		}
		if err := cfg.Log.append(logKeyJob, logJobRecord{
			JobID: cfg.JobID, Spec: cfg.Spec, LeaseMs: cfg.Lease.Milliseconds(),
		}); err != nil {
			return nil, fmt.Errorf("shard: job %s: log: %w", cfg.JobID, err)
		}
		c.log = cfg.Log
	}
	return c, nil
}

// Spec returns the job's spec (workers fetch it to reproduce the grid).
func (c *Coordinator) Spec() JobSpec { return c.cfg.Spec }

// Shards returns the job's partition.
func (c *Coordinator) Shards() []Shard { return c.shards }

// Register announces a worker. Idempotent; registration is bookkeeping,
// not authorization — an unregistered worker's lease request registers it.
func (c *Coordinator) Register(worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.worker(worker)
}

func (c *Coordinator) worker(name string) *workerInfo {
	w := c.workers[name]
	if w == nil {
		w = &workerInfo{}
		c.workers[name] = w
	}
	return w
}

// expireLeases returns every expired lease's shard to the pending pool.
// Called under c.mu from every entry point — expiry is lazy, there is no
// background goroutine to leak.
func (c *Coordinator) expireLeases() {
	now := c.cfg.Clock()
	for idx, l := range c.leases {
		if now.After(l.deadline) {
			delete(c.leases, idx)
			c.state[idx] = shardPending
			c.steals++
			c.worker(l.worker).Stolen++
		}
	}
}

// Grant is the outcome of one lease request. Epoch is the fencing token
// for the granted shard: the worker must present it on every heartbeat,
// completion, and failure report, and a report whose epoch is older than
// the shard's current one is rejected with ErrStaleLease.
type Grant struct {
	State LeaseState
	// Shard and Epoch are set when State is LeaseGranted.
	Shard Shard
	Epoch uint64
	// Lease is the granted lease duration.
	Lease time.Duration
}

// Lease grants the worker a pending shard, or reports why there is none:
// wait (all leased), done (all complete), or quarantined (this worker's
// breaker is open). The granted lease lives for the configured interval
// unless renewed by Heartbeat.
//
// Lease is idempotent per worker: if the worker already holds a live
// lease (its previous grant's response was lost on the wire and the
// request retried), the same shard is re-granted under the same epoch
// with a refreshed deadline, instead of handing one worker two shards.
func (c *Coordinator) Lease(worker string) (Grant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.worker(worker)
	c.expireLeases()
	for idx, l := range c.leases {
		if l.worker == worker {
			renewed := lease{worker: worker, epoch: l.epoch, deadline: c.cfg.Clock().Add(c.cfg.Lease)}
			c.leases[idx] = renewed
			c.logLease(idx, renewed)
			return Grant{State: LeaseGranted, Shard: c.shards[idx], Epoch: l.epoch, Lease: c.cfg.Lease}, nil
		}
	}
	pending := -1
	leased := 0
	for idx, st := range c.state {
		switch st {
		case shardPending:
			if pending < 0 {
				pending = idx
			}
		case shardLeased:
			leased++
		}
	}
	if pending < 0 {
		// Decide wait/done before consulting the breaker: an open
		// worker's half-open probe must not be consumed by a request
		// that could not have been granted anyway.
		if leased > 0 {
			return Grant{State: LeaseWait}, nil
		}
		return Grant{State: LeaseDone}, nil
	}
	if !c.breaker.Allow(worker) {
		return Grant{State: LeaseQuarantined}, nil
	}
	c.epochs[pending]++
	granted := lease{worker: worker, epoch: c.epochs[pending], deadline: c.cfg.Clock().Add(c.cfg.Lease)}
	c.state[pending] = shardLeased
	c.leases[pending] = granted
	// Persist the grant before the worker learns of it: after a crash
	// the recovered coordinator must never re-issue a live epoch.
	c.logLease(pending, granted)
	return Grant{State: LeaseGranted, Shard: c.shards[pending], Epoch: granted.epoch, Lease: c.cfg.Lease}, nil
}

// shardByID resolves a shard ID (under c.mu).
func (c *Coordinator) shardByID(id string) (int, error) {
	for idx, s := range c.shards {
		if s.ID == id {
			return idx, nil
		}
	}
	return -1, fmt.Errorf("shard: job %s: %q: %w", c.cfg.JobID, id, ErrUnknownShard)
}

// Heartbeat renews the worker's lease on the shard for another full lease
// interval. ErrNotOwner means the lease expired and may have been stolen;
// ErrStaleLease means the shard was re-granted under a newer epoch. In
// both cases the worker must abandon the shard.
func (c *Coordinator) Heartbeat(worker, shardID string, epoch uint64) (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLeases()
	idx, err := c.shardByID(shardID)
	if err != nil {
		return 0, err
	}
	if epoch != c.epochs[idx] {
		c.staleFenced++
		return 0, fmt.Errorf("shard: job %s: %s heartbeat on %s with epoch %d, current %d: %w",
			c.cfg.JobID, worker, shardID, epoch, c.epochs[idx], ErrStaleLease)
	}
	l, held := c.leases[idx]
	if !held || l.worker != worker {
		return 0, fmt.Errorf("shard: job %s: %s heartbeat on %s: %w", c.cfg.JobID, worker, shardID, ErrNotOwner)
	}
	renewed := lease{worker: worker, epoch: l.epoch, deadline: c.cfg.Clock().Add(c.cfg.Lease)}
	c.leases[idx] = renewed
	// Renewals are persisted so a coordinator restart honors the live
	// deadline instead of re-granting a shard its holder still works on.
	c.logLease(idx, renewed)
	return c.cfg.Lease, nil
}

// mergeShard validates and merges one shard's results and failures
// (under c.mu). Every record is validated against the grid — the index
// must lie in the shard, the key must be that variant's fingerprint, and
// a key reported twice must carry byte-equal payloads (ErrConflict
// otherwise: bit-exactness is the merge invariant, not a hope). The whole
// report is validated before any of it is applied, so a refused report
// leaves no trace and the honest one can still land. Shared by Complete
// and log recovery, so a recovered coordinator re-applies exactly the
// live merge rules.
func (c *Coordinator) mergeShard(idx int, worker string, results []VariantResult, failures []VariantFailure) error {
	sh := c.shards[idx]
	reported := make(map[string][]byte, len(results))
	for _, r := range results {
		if r.Index < sh.Start || r.Index >= sh.End {
			return fmt.Errorf("shard: job %s: %s reported index %d outside shard %s [%d,%d)",
				c.cfg.JobID, worker, r.Index, sh.ID, sh.Start, sh.End)
		}
		if want := c.variants[r.Index].Fingerprint(); r.Key != want {
			return fmt.Errorf("shard: job %s: %s variant %d: key %s, grid says %s (version skew?): %w",
				c.cfg.JobID, worker, r.Index, r.Key, want, ErrConflict)
		}
		prev, dup := c.merged[r.Key]
		if !dup {
			prev, dup = reported[r.Key]
		}
		if dup && !bytes.Equal(prev, r.Payload) {
			return fmt.Errorf("shard: job %s: variant %s reported with two different payloads: %w",
				c.cfg.JobID, r.Key, ErrConflict)
		}
		reported[r.Key] = r.Payload
	}
	for _, f := range failures {
		if f.Index < sh.Start || f.Index >= sh.End {
			return fmt.Errorf("shard: job %s: %s failed index %d outside shard %s",
				c.cfg.JobID, worker, f.Index, sh.ID)
		}
	}
	for _, r := range results {
		if _, dup := c.merged[r.Key]; dup {
			continue
		}
		c.merged[r.Key] = append([]byte(nil), r.Payload...)
		c.times[r.Index] = r.TimeBits
	}
	for _, f := range failures {
		if _, seen := c.failed[f.Index]; !seen {
			c.failed[f.Index] = VariantFailure{Index: f.Index, Worker: worker, Err: f.Err}
		}
	}
	return nil
}

// Complete merges one shard's results, fenced by the grant's epoch: a
// completion whose epoch is older than the shard's current one is
// rejected with ErrStaleLease — the lease expired and the shard was
// re-granted, so only the current holder's report may land, no matter
// how the deliveries race. Complete is idempotent: re-delivering a
// completion that already landed (a retry after a lost response) is
// acknowledged without re-merging, and a successful merge counts as the
// worker's breaker success.
func (c *Coordinator) Complete(worker, shardID string, epoch uint64, results []VariantResult, failures []VariantFailure) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLeases()
	idx, err := c.shardByID(shardID)
	if err != nil {
		return err
	}
	if epoch != c.epochs[idx] {
		c.staleFenced++
		return fmt.Errorf("shard: job %s: %s complete on %s with epoch %d, current %d: %w",
			c.cfg.JobID, worker, shardID, epoch, c.epochs[idx], ErrStaleLease)
	}
	if c.state[idx] == shardDone {
		// Duplicate delivery of the accepted completion: same epoch, so
		// it is the same report. Acknowledge without re-merging.
		return nil
	}
	if err := c.mergeShard(idx, worker, results, failures); err != nil {
		return err
	}
	if l, held := c.leases[idx]; held && l.worker == worker {
		delete(c.leases, idx)
	}
	c.state[idx] = shardDone
	// Persist before acknowledging: a crash after this append recovers
	// the shard as done with these exact bytes; a crash before it
	// recovers the shard as leased and the worker retries Complete.
	c.logDone(idx, worker, epoch, results, failures)
	w := c.worker(worker)
	w.Completed++
	c.breaker.Success(worker)
	return nil
}

// Fail reports that the worker could not process the shard at all (as
// opposed to individual variant failures, which ride on Complete). The
// shard returns to the pending pool for another worker; the failure feeds
// this worker's breaker, which quarantines it after the configured run of
// consecutive failures. Fail is fenced like Complete: a stale epoch is
// rejected, so a partitioned worker's late failure report cannot yank a
// re-granted shard out from under its new holder.
func (c *Coordinator) Fail(worker, shardID string, epoch uint64, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLeases()
	idx, err := c.shardByID(shardID)
	if err != nil {
		return err
	}
	if epoch != c.epochs[idx] {
		c.staleFenced++
		return fmt.Errorf("shard: job %s: %s fail on %s with epoch %d, current %d: %w",
			c.cfg.JobID, worker, shardID, epoch, c.epochs[idx], ErrStaleLease)
	}
	if c.state[idx] == shardDone {
		// A late duplicate of a report about a finished shard changes
		// nothing; acknowledging is the idempotent answer.
		return nil
	}
	if l, held := c.leases[idx]; held && l.worker == worker {
		delete(c.leases, idx)
	}
	if c.state[idx] == shardLeased {
		c.state[idx] = shardPending
	}
	w := c.worker(worker)
	w.Failed++
	c.breaker.Failure(worker)
	return nil
}

// Done reports whether every shard has completed.
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLeases()
	for _, st := range c.state {
		if st != shardDone {
			return false
		}
	}
	return true
}

// Record is one merged journal record.
type Record struct {
	Key     string
	Payload []byte
}

// MergedRecords returns the deduplicated record set in deterministic
// (sorted-key) order — the exact sequence WriteMerged persists.
func (c *Coordinator) MergedRecords() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.merged))
	for k := range c.merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Record, len(keys))
	for i, k := range keys {
		out[i] = Record{Key: k, Payload: append([]byte(nil), c.merged[k]...)}
	}
	return out
}

// Failures returns the recorded variant failures, sorted by index.
func (c *Coordinator) Failures() []VariantFailure {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]VariantFailure, 0, len(c.failed))
	for _, f := range c.failed {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Status is the job's observable state, JSON-shaped for the HTTP surface.
type Status struct {
	JobID     string `json:"job"`
	Layout    string `json:"layout"`
	Variants  int    `json:"variants"`
	Shards    int    `json:"shards"`
	Pending   int    `json:"pending"`
	Leased    int    `json:"leased"`
	Completed int    `json:"completed"`
	// Merged counts deduplicated variant records; Failed counts variants
	// no worker could evaluate; Steals counts expired leases returned to
	// the pool; StaleFenced counts reports rejected by epoch fencing.
	Merged      int  `json:"merged"`
	Failed      int  `json:"failed"`
	Steals      int  `json:"steals"`
	StaleFenced int  `json:"stale_fenced,omitempty"`
	Done        bool `json:"done"`
	// RecoveredShards and RecoveredRecords count what a coordinator
	// restart replayed from its log; LogDegraded reports a crash-safety
	// log that stopped accepting appends (the job serves from memory).
	RecoveredShards  int  `json:"recovered_shards,omitempty"`
	RecoveredRecords int  `json:"recovered_records,omitempty"`
	LogDegraded      bool `json:"log_degraded,omitempty"`
	// Workers maps worker IDs to their tallies; Quarantined lists workers
	// whose breaker is currently open.
	Workers     map[string]workerInfo `json:"workers,omitempty"`
	Quarantined []string              `json:"quarantined,omitempty"`
	// FrontierSize is the size of the Pareto frontier (projected time
	// vs explore.RelativeCost) over the variants merged so far.
	FrontierSize int `json:"frontier_size"`
}

// Status snapshots the job.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLeases()
	st := Status{
		JobID:            c.cfg.JobID,
		Layout:           c.cfg.Spec.LayoutFP,
		Variants:         len(c.variants),
		Shards:           len(c.shards),
		Merged:           len(c.merged),
		Failed:           len(c.failed),
		Steals:           c.steals,
		StaleFenced:      c.staleFenced,
		RecoveredShards:  c.recoveredShards,
		RecoveredRecords: c.recoveredRecords,
		LogDegraded:      c.logDegraded,
		Workers:          make(map[string]workerInfo, len(c.workers)),
	}
	for _, s := range c.state {
		switch s {
		case shardPending:
			st.Pending++
		case shardLeased:
			st.Leased++
		case shardDone:
			st.Completed++
		}
	}
	st.Done = st.Completed == len(c.shards)
	for name, w := range c.workers {
		st.Workers[name] = *w
	}
	st.Quarantined = c.breaker.Open()
	pts := make([]explore.Point, 0, len(c.times))
	for idx, bits := range c.times {
		m := c.variants[idx]
		pts = append(pts, explore.Point{Index: idx, Machine: m, Time: math.Float64frombits(bits), Cost: explore.RelativeCost(m)})
	}
	st.FrontierSize = len(explore.ParetoPoints(pts))
	return st
}
