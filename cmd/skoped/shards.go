package main

// The daemon's sharded-sweep surface. POST /v1/shards creates a
// coordinated job: the daemon prepares the workload (that pins the layout
// fingerprint every worker must reproduce), partitions the grid, and
// serves the worker protocol mounted from internal/shard. External
// workers (`skoped -worker <url>` instances) lease shards, journal every
// variant crash-safely on their side, and report results; the coordinator
// merges them and quarantines flapping workers behind a circuit breaker.
// This is the project's one way to run a distributed sweep.
//
// POST /v1/shards/{job}/harvest finalizes a completed job: the merged
// journal is written under -data-dir and replayed through the pipeline
// into the shared result store, so later sessions (and skope -store runs
// against the same file) are served the sharded results bit-identically
// with zero recomputation.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"skope/internal/cliflags"
	"skope/internal/hw"
	"skope/internal/journal"
	"skope/internal/pipeline"
	"skope/internal/shard"
)

// shardRequest is the POST /v1/shards body. The workload and sweep
// vocabulary matches sessionRequest; criteria and confidence floors are
// deliberately absent — shard workers produce mode-independent records,
// and those settings apply where the merged journal is replayed.
type shardRequest struct {
	Bench  string  `json:"bench,omitempty"`
	Source string  `json:"source,omitempty"`
	Scale  float64 `json:"scale,omitempty"`

	Machine string   `json:"machine,omitempty"`
	Sweep   []string `json:"sweep"`

	Lenient        *bool  `json:"lenient,omitempty"`
	Retries        int    `json:"retries,omitempty"`
	VariantTimeout string `json:"variant_timeout,omitempty"`

	// ShardSize is the variants-per-shard granularity (0 selects 16).
	ShardSize int `json:"shard_size,omitempty"`
	// Lease is the shard lease duration, e.g. "30s" (default 30s). A
	// worker that stops heartbeating loses its shard after this long.
	Lease string `json:"lease,omitempty"`
}

// shardJob pairs a coordinator with the prepared run its layout
// fingerprint came from, so harvest replays the merged journal without
// re-preparing the workload. A job recovered from its coordinator log
// after a daemon restart has no run yet (nil) — harvest re-prepares the
// workload lazily from the spec and verifies the layout fingerprint
// still matches before replaying.
type shardJob struct {
	id    string
	spec  shard.JobSpec
	run   *pipeline.Run
	coord *shard.Coordinator
	log   *shard.Log // crash-safety log; closed and removed on harvest

	mu      sync.Mutex
	harvest *harvestResult // non-nil once harvested (idempotent)
}

// harvestResult is the POST /v1/shards/{job}/harvest response.
type harvestResult struct {
	Journal     string `json:"journal"`
	Records     int    `json:"records"`
	FromJournal int    `json:"from_journal"`
	Stored      int    `json:"stored,omitempty"`
	Failed      int    `json:"failed,omitempty"`
}

// newShardJob validates the request and prepares the workload — the
// expensive part, done synchronously so the job is immediately joinable
// with a pinned layout fingerprint.
func (srv *server) newShardJob(ctx context.Context, id string, req shardRequest) (*shardJob, error) {
	if (req.Bench == "") == (req.Source == "") {
		return nil, badRequest("exactly one of bench or source is required")
	}
	if len(req.Sweep) == 0 {
		return nil, badRequest("sweep axes are required")
	}
	scale := req.Scale
	if scale == 0 {
		scale = 1
	}
	preset := req.Machine
	if preset == "" {
		preset = srv.cfg.machine
	}
	base, err := hw.Preset(preset)
	if err != nil {
		return nil, badRequest(err.Error())
	}
	lenient := srv.cfg.grd.Lenient
	if req.Lenient != nil {
		lenient = *req.Lenient
	}
	var timeout time.Duration
	if req.VariantTimeout != "" {
		if timeout, err = time.ParseDuration(req.VariantTimeout); err != nil {
			return nil, badRequest("variant_timeout: " + err.Error())
		}
	}
	lease := 30 * time.Second
	if req.Lease != "" {
		if lease, err = time.ParseDuration(req.Lease); err != nil {
			return nil, badRequest("lease: " + err.Error())
		}
		if lease < time.Second {
			return nil, badRequest("lease must be at least 1s")
		}
	}

	spec := shard.JobSpec{
		Base:             base.Wire(),
		Lenient:          lenient,
		Retries:          req.Retries,
		VariantTimeoutMs: timeout.Milliseconds(),
		ShardSize:        req.ShardSize,
	}
	if req.Source != "" {
		spec.Bench = "job-" + id
		spec.Source = req.Source
		spec.Seed = 1
	} else {
		spec.Bench = req.Bench
		spec.Scale = scale
	}
	var axes cliflags.AxisList
	for _, s := range req.Sweep {
		if err := axes.Set(s); err != nil {
			return nil, badRequest("sweep: " + err.Error())
		}
	}
	if spec.Axes, err = axes.Axes(); err != nil {
		return nil, badRequest("sweep: " + err.Error())
	}
	if _, err := spec.Variants(); err != nil {
		return nil, badRequest("sweep: " + err.Error())
	}

	// Prepare exactly the way a worker will — from the spec's options
	// alone — so the pinned fingerprint is the one they reproduce.
	w, err := spec.Workload()
	if err != nil {
		return nil, badRequest(err.Error())
	}
	run, err := pipeline.Prepare(ctx, w, spec.Options()...)
	if err != nil {
		return nil, badRequest("prepare: " + err.Error())
	}
	layout, err := run.Layout()
	if err != nil {
		return nil, err
	}
	spec.LayoutFP = layout.Fingerprint()

	// The coordinator log makes the job survive a daemon crash: every
	// lease epoch and completed shard is persisted before the worker
	// learns of it, and startup recovery rebuilds the job so reconnecting
	// workers resume with zero re-evaluation.
	log, err := shard.OpenLog(srv.coordLogPath(id))
	if err != nil {
		return nil, err
	}
	coord, err := shard.NewCoordinator(shard.Config{JobID: id, Spec: spec, Lease: lease, Log: log})
	if err != nil {
		log.Close()
		return nil, err
	}
	return &shardJob{id: id, spec: spec, run: run, coord: coord, log: log}, nil
}

// coordLogPath is where job id's coordinator log lives under -data-dir.
func (srv *server) coordLogPath(id string) string {
	return filepath.Join(srv.cfg.dataDir, id+".coordlog")
}

// recoverShardJobs rebuilds jobs from coordinator logs a previous daemon
// left under -data-dir (a harvested job removes its log, so whatever is
// here was in flight when the daemon died). Recovered jobs are
// immediately joinable: completed shards serve their merged records with
// zero re-evaluation, live leases are honored under their original
// epochs, and pre-crash stale workers stay fenced. The workload is not
// re-prepared here — harvest does that lazily — so recovery is cheap
// even for many jobs. A log that cannot be recovered is skipped with a
// warning, never deleted: the bytes may still be wanted post-mortem.
func (srv *server) recoverShardJobs() {
	paths, err := filepath.Glob(filepath.Join(srv.cfg.dataDir, "*.coordlog"))
	if err != nil || len(paths) == 0 {
		return
	}
	for _, p := range paths {
		log, err := shard.OpenLog(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skoped: skipping coordinator log %s: %v\n", p, err)
			continue
		}
		coord, err := shard.RecoverCoordinator(log, shard.Config{})
		if err != nil {
			log.Close()
			fmt.Fprintf(os.Stderr, "skoped: skipping coordinator log %s: %v\n", p, err)
			continue
		}
		st := coord.Status()
		job := &shardJob{id: st.JobID, spec: coord.Spec(), coord: coord, log: log}
		srv.mu.Lock()
		srv.shardJobs[job.id] = job
		srv.mu.Unlock()
		srv.shards.Add(coord)
		srv.recoveredJobs++
		fmt.Printf("skoped: recovered shard job %s (%d/%d shards done, %d records, %d leased)\n",
			job.id, st.Completed, st.Shards, st.Merged, st.Leased)
	}
}

func (srv *server) handleShardSubmit(w http.ResponseWriter, r *http.Request) {
	if srv.draining.Load() {
		writeUnavailable(w, srv.cfg.drainTimeout, "draining: not accepting new jobs")
		return
	}
	var req shardRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "body: "+err.Error())
		return
	}
	id := srv.shards.NextJobID()
	job, err := srv.newShardJob(r.Context(), id, req)
	if err != nil {
		var reqErr *requestError
		if errors.As(err, &reqErr) {
			writeError(w, http.StatusBadRequest, reqErr.msg)
		} else {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	srv.mu.Lock()
	srv.shardJobs[id] = job
	srv.mu.Unlock()
	srv.shards.Add(job.coord)
	writeJSON(w, http.StatusCreated, shard.JobDetail{
		Status: job.coord.Status(), Spec: job.spec, Shards: job.coord.Shards(),
	})
}

func (srv *server) handleShardHarvest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("job")
	srv.mu.Lock()
	job := srv.shardJobs[id]
	srv.mu.Unlock()
	if job == nil {
		writeError(w, http.StatusNotFound, "no job "+id)
		return
	}
	if !job.coord.Done() {
		st := job.coord.Status()
		writeError(w, http.StatusConflict,
			fmt.Sprintf("job not done: %d of %d variants merged", st.Merged, st.Variants))
		return
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.harvest != nil {
		writeJSON(w, http.StatusOK, job.harvest)
		return
	}
	res, err := srv.harvestJob(r.Context(), job)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	job.harvest = res
	writeJSON(w, http.StatusOK, res)
}

// harvestJob writes the merged journal under -data-dir and replays it
// through the pipeline into the shared store: every journaled record
// becomes a store entry under the daemon's default criteria, bit-identical
// to what the workers computed. A recovered job (no prepared run) gets
// its workload re-prepared here, verified against the pinned layout
// fingerprint. On success the coordinator log is retired — the merged
// journal is now the durable artifact.
func (srv *server) harvestJob(ctx context.Context, job *shardJob) (*harvestResult, error) {
	if job.run == nil {
		w, err := job.spec.Workload()
		if err != nil {
			return nil, err
		}
		run, err := pipeline.Prepare(ctx, w, job.spec.Options()...)
		if err != nil {
			return nil, fmt.Errorf("re-prepare recovered job: %w", err)
		}
		layout, err := run.Layout()
		if err != nil {
			return nil, err
		}
		if fp := layout.Fingerprint(); fp != job.spec.LayoutFP {
			return nil, fmt.Errorf("recovered job %s: layout fingerprint %s, job pinned %s (version skew)",
				job.id, fp, job.spec.LayoutFP)
		}
		job.run = run
	}
	mergedPath := filepath.Join(srv.cfg.dataDir, job.id+".journal")
	n, err := job.coord.WriteMerged(mergedPath)
	if err != nil {
		return nil, err
	}
	res := &harvestResult{Journal: mergedPath, Records: n, Failed: len(job.coord.Failures())}

	variants, err := job.spec.Variants()
	if err != nil {
		return nil, err
	}
	j, err := journal.Open(mergedPath)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	opts := append(job.spec.Options(),
		pipeline.WithCriteria(srv.cfg.crit.Resolve()),
		pipeline.WithJournal(j))
	if srv.store != nil {
		opts = append(opts, pipeline.WithStore(srv.store))
	}
	evals, err := pipeline.Sweep(ctx, job.run, variants, opts...)
	if err != nil && !tolerable(err) {
		return nil, err
	}
	for _, ev := range evals {
		if ev == nil {
			continue
		}
		switch ev.Provenance {
		case pipeline.FromJournal:
			res.FromJournal++
		}
		if srv.store != nil {
			res.Stored++
		}
	}
	// The merged journal and store now carry everything the coordinator
	// log protected; retire it so restarts stop recovering a finished job.
	if job.log != nil {
		job.log.Close()
		_ = os.Remove(job.log.Path())
		job.log = nil
	}
	return res, nil
}
