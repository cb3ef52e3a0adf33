package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"time"

	"skope/internal/explore"
	"skope/internal/hw"
	"skope/internal/iofault"
	"skope/internal/journal"
	"skope/internal/pipeline"
	"skope/internal/resilience"
)

// ErrSkew marks a worker whose locally prepared model disagrees with the
// job spec — a different layout fingerprint or partition than the
// coordinator's. A skewed worker must not contribute records (they would
// be bit-different), so it aborts instead of registering.
var ErrSkew = errors.New("worker/coordinator version skew")

// Worker runs one participant of a sharded sweep: lease a shard, sweep
// its variants through the ordinary pipeline with a per-shard journal,
// report the journal's records, repeat until the coordinator says done.
//
// Durability is the journal's, not the worker's: every completed variant
// is fsynced into the shard's journal before it counts, so a worker
// SIGKILLed mid-shard leaves a journal the shard's next owner replays
// instead of recomputing — bit-identically, because replay re-runs the
// same deterministic assembly a live evaluation ends with.
type Worker struct {
	// Client reaches the coordinator.
	Client *Client
	// JobID and ID identify the job and this worker.
	JobID, ID string
	// DataDir holds the per-shard journals. Workers sharing a machine
	// must share it (that is what makes steal-and-replay free); workers
	// on different hosts each keep their own.
	DataDir string
	// Poll is the wait-state backoff (default 200ms).
	Poll time.Duration
	// Retry wraps every protocol call (default: 4 attempts, 50ms base).
	// Each attempt runs under the Client's per-call deadline.
	Retry resilience.Policy

	// ReplayOnly, when set, refuses to evaluate: the worker only serves
	// shards whose journals already cover every variant. Used by the
	// chaos test to prove resumed work is replayed, never recomputed.
	ReplayOnly bool

	// FS is the file abstraction the per-shard journals open through
	// (nil = the disk). The disk-fault chaos suite injects here.
	FS iofault.FS
}

func (w *Worker) fsys() iofault.FS {
	if w.FS != nil {
		return w.FS
	}
	return iofault.Disk
}

// WorkerStats tallies one Run.
type WorkerStats struct {
	// Shards counts completions this worker reported.
	Shards int
	// Variants counts variant records reported (including replayed ones);
	// Replayed counts those served from a journal instead of evaluated.
	Variants, Replayed int
	// Waits counts empty lease polls; Quarantines counts lease refusals.
	Waits, Quarantines int
	// LeasesLost counts shards abandoned because the lease expired or was
	// stolen mid-sweep; StaleFenced counts reports the coordinator
	// rejected by epoch fencing (a subset of the lost leases).
	LeasesLost, StaleFenced int
	// RPCRetries counts protocol-call attempts beyond the first — what
	// the network cost this run beyond a perfect wire.
	RPCRetries int
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 200 * time.Millisecond
}

func (w *Worker) retry() resilience.Policy {
	p := w.Retry
	if p.MaxAttempts == 0 {
		p = resilience.Policy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond}
	}
	if p.Classify == nil {
		p.Classify = func(err error) bool {
			// Protocol verdicts are deterministic; retrying them is noise.
			// Timeouts, resets, and 5xx fall through to Retryable, which
			// treats them as transient.
			if errors.Is(err, ErrConflict) || errors.Is(err, ErrNotOwner) ||
				errors.Is(err, ErrStaleLease) ||
				errors.Is(err, ErrUnknownShard) || errors.Is(err, ErrSkew) {
				return false
			}
			return resilience.Retryable(err)
		}
	}
	return p
}

// call runs one protocol call under the worker's retry policy and tallies
// the retries spent. The Client gives each attempt its own deadline and
// marks a miss as a transient attempt timeout.
func (w *Worker) call(ctx context.Context, stats *WorkerStats, fn func(context.Context) error) error {
	attempts, err := w.retry().Do(ctx, func(int) error { return fn(ctx) })
	if stats != nil {
		stats.RPCRetries += attempts - 1
	}
	return err
}

// Run participates in the job until every shard is done (nil), the
// context ends, or a deterministic protocol failure (skew, conflict)
// makes further participation wrong.
func (w *Worker) Run(ctx context.Context) (WorkerStats, error) {
	var stats WorkerStats
	var detail JobDetail
	if err := w.call(ctx, &stats, func(actx context.Context) error {
		var derr error
		detail, derr = w.Client.Detail(actx, w.JobID)
		return derr
	}); err != nil {
		return stats, fmt.Errorf("shard: worker %s: %w", w.ID, err)
	}
	spec := detail.Spec

	variants, err := spec.Variants()
	if err != nil {
		return stats, fmt.Errorf("shard: worker %s: %w", w.ID, err)
	}
	// Cross-check the partition before doing any work: if this binary
	// generates a different grid than the coordinator's, every shard
	// fingerprint differs and the mismatch surfaces here, not as a merge
	// conflict after hours of sweeping.
	local := Partition(spec.LayoutFP, variants, spec.ShardSize)
	if len(local) != len(detail.Shards) {
		return stats, fmt.Errorf("shard: worker %s: local partition has %d shards, coordinator %d: %w",
			w.ID, len(local), len(detail.Shards), ErrSkew)
	}
	for i := range local {
		if local[i].Fingerprint != detail.Shards[i].Fingerprint {
			return stats, fmt.Errorf("shard: worker %s: shard %d fingerprint mismatch: %w", w.ID, i, ErrSkew)
		}
	}

	wl, err := spec.Workload()
	if err != nil {
		return stats, fmt.Errorf("shard: worker %s: %w", w.ID, err)
	}
	run, err := pipeline.Prepare(ctx, wl, spec.Options()...)
	if err != nil {
		return stats, fmt.Errorf("shard: worker %s: prepare: %w", w.ID, err)
	}
	layout, err := run.Layout()
	if err != nil {
		return stats, fmt.Errorf("shard: worker %s: %w", w.ID, err)
	}
	if layout.Fingerprint() != spec.LayoutFP {
		return stats, fmt.Errorf("shard: worker %s: prepared layout %s, job wants %s: %w",
			w.ID, layout.Fingerprint(), spec.LayoutFP, ErrSkew)
	}
	if err := w.call(ctx, &stats, func(actx context.Context) error {
		return w.Client.Register(actx, w.JobID, w.ID)
	}); err != nil {
		return stats, fmt.Errorf("shard: worker %s: register: %w", w.ID, err)
	}

	for {
		if err := ctx.Err(); err != nil {
			return stats, fmt.Errorf("shard: worker %s: %w", w.ID, err)
		}
		var resp LeaseResponse
		if err := w.call(ctx, &stats, func(actx context.Context) error {
			var lerr error
			resp, lerr = w.Client.Lease(actx, w.JobID, w.ID)
			return lerr
		}); err != nil {
			return stats, fmt.Errorf("shard: worker %s: lease: %w", w.ID, err)
		}
		switch resp.State {
		case LeaseDone:
			return stats, nil
		case LeaseWait:
			stats.Waits++
			if err := sleep(ctx, w.poll()); err != nil {
				return stats, fmt.Errorf("shard: worker %s: %w", w.ID, err)
			}
		case LeaseQuarantined:
			// Back off harder: the breaker admits a probe only after its
			// cooldown, and the job may finish without us meanwhile.
			stats.Quarantines++
			if err := sleep(ctx, 4*w.poll()); err != nil {
				return stats, fmt.Errorf("shard: worker %s: %w", w.ID, err)
			}
		case LeaseGranted:
			if err := w.processShard(ctx, run, variants, spec, *resp.Shard, resp.Epoch,
				time.Duration(resp.LeaseMs)*time.Millisecond, &stats); err != nil {
				return stats, fmt.Errorf("shard: worker %s: %w", w.ID, err)
			}
		default:
			return stats, fmt.Errorf("shard: worker %s: unknown lease state %q", w.ID, resp.State)
		}
	}
}

// journalPath is where a shard's journal lives. It depends only on the
// job and the shard, never the worker — a stolen shard's new owner opens
// the same file and replays the dead worker's completed variants.
func (w *Worker) journalPath(sh Shard) string {
	return filepath.Join(w.DataDir, fmt.Sprintf("%s-%s.journal", w.JobID, sh.ID))
}

// heartbeatInterval derives this worker's renewal cadence: a third of
// the lease, scaled by a deterministic per-worker factor in [0.70, 1.00)
// so a fleet of workers sharing one lease duration spreads its renewals
// across the window instead of thundering against the coordinator in
// lockstep. Deterministic (a hash of the worker ID, not randomness):
// the same worker always renews on the same cadence, so chaos runs
// reproduce.
func (w *Worker) heartbeatInterval(leaseFor time.Duration) time.Duration {
	base := leaseFor / 3
	if base <= 0 {
		return time.Second
	}
	h := fnv.New32a()
	h.Write([]byte(w.ID))
	frac := float64(h.Sum32()%1000) / 1000
	return time.Duration(float64(base) * (0.70 + 0.30*frac))
}

// processShard sweeps one leased shard and reports it under the grant's
// fencing epoch. Failures of the shard as a whole go back as Fail (the
// coordinator re-leases it); per-variant failures ride on Complete. A
// lost lease — expiry, steal, or a fenced report — abandons silently:
// the thief owns the shard now, and this worker's journal appends up to
// that point remain valid for it.
func (w *Worker) processShard(ctx context.Context, run *pipeline.Run, variants []*hw.Machine, spec JobSpec, sh Shard, epoch uint64, leaseFor time.Duration, stats *WorkerStats) error {
	slice := variants[sh.Start:sh.End]
	jnl, err := journal.OpenFS(w.fsys(), w.journalPath(sh))
	if err != nil {
		return w.failShard(ctx, stats, sh, epoch, fmt.Errorf("journal: %w", err))
	}

	// Heartbeat until the shard is processed; a refused heartbeat means
	// the lease is lost and the sweep should stop burning cycles. Each
	// renewal gets a deadline of a third of the lease (or the Client's
	// per-call deadline, if earlier) — a renewal slower than its own
	// cadence is as good as lost, and must not let a hung connection
	// stall the ticker past expiry.
	sctx, lost := context.WithCancel(ctx)
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	hbTimeout := leaseFor / 3
	go func() {
		defer close(hbDone)
		t := time.NewTicker(w.heartbeatInterval(leaseFor))
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-sctx.Done():
				return
			case <-t.C:
				hctx := sctx
				var hcancel context.CancelFunc = func() {}
				if hbTimeout > 0 {
					hctx, hcancel = context.WithTimeout(sctx, hbTimeout)
				}
				err := w.Client.Heartbeat(hctx, w.JobID, w.ID, sh.ID, epoch)
				hcancel()
				if errors.Is(err, ErrNotOwner) || errors.Is(err, ErrStaleLease) {
					lost()
					return
				}
				// Transient failures wait for the next tick — the lease
				// outlives a few missed renewals by construction.
			}
		}
	}()

	opts := append(spec.Options(), pipeline.WithJournal(jnl))
	var evals []*pipeline.Eval
	var sweepErr error
	if w.ReplayOnly {
		evals, sweepErr = w.replaySweep(sctx, run, slice, jnl, opts)
	} else {
		evals, sweepErr = pipeline.Sweep(sctx, run, slice, opts...)
	}
	close(hbStop)
	<-hbDone
	jnl.Close()

	if sctx.Err() != nil && ctx.Err() == nil {
		// Lease lost mid-sweep: abandon without reporting.
		lost()
		stats.LeasesLost++
		return nil
	}
	lost()
	if err := ctx.Err(); err != nil {
		return err
	}
	if sweepErr != nil && !tolerableSweepErr(sweepErr) {
		return w.failShard(ctx, stats, sh, epoch, sweepErr)
	}

	results, replayed := collectResults(w.fsys(), w.journalPath(sh), sh, slice, evals)
	var failures []VariantFailure
	var se *explore.SweepError
	if errors.As(sweepErr, &se) {
		for _, ve := range se.Variants {
			failures = append(failures, VariantFailure{
				Index: sh.Start + ve.Index, Worker: w.ID, Err: ve.Err.Error(),
			})
		}
	}
	if err := w.call(ctx, stats, func(actx context.Context) error {
		return w.Client.Complete(actx, w.JobID, w.ID, sh.ID, epoch, results, failures)
	}); err != nil {
		if errors.Is(err, ErrStaleLease) || errors.Is(err, ErrNotOwner) {
			// Fenced off: the lease expired and the shard was re-granted
			// while we raced to report. The journal stays for the new
			// holder to replay — a lost lease, not a failure.
			stats.LeasesLost++
			stats.StaleFenced++
			return nil
		}
		if errors.Is(err, ErrConflict) {
			return err // deterministic: stop before poisoning more shards
		}
		return w.failShard(ctx, stats, sh, epoch, err)
	}
	stats.Shards++
	stats.Variants += len(results)
	stats.Replayed += replayed
	return nil
}

// replaySweep is the ReplayOnly path: every variant must come from the
// journal. It runs the same Sweep code with an armed trip wire — if the
// engine would evaluate anything, the worker errors out instead.
func (w *Worker) replaySweep(ctx context.Context, run *pipeline.Run, slice []*hw.Machine, jnl *journal.Journal, opts []pipeline.Option) ([]*pipeline.Eval, error) {
	if jnl.Len() < len(slice) {
		return nil, fmt.Errorf("shard: replay-only worker %s: journal has %d of %d variants", w.ID, jnl.Len(), len(slice))
	}
	return pipeline.Sweep(ctx, run, slice, opts...)
}

// failShard reports a whole-shard failure, preferring the original error.
func (w *Worker) failShard(ctx context.Context, stats *WorkerStats, sh Shard, epoch uint64, cause error) error {
	if err := w.call(ctx, stats, func(actx context.Context) error {
		return w.Client.Fail(actx, w.JobID, w.ID, sh.ID, epoch, cause.Error())
	}); err != nil {
		if errors.Is(err, ErrStaleLease) {
			// The shard was re-granted before the failure report landed;
			// its outcome belongs to the new holder now.
			stats.StaleFenced++
			return nil
		}
		return fmt.Errorf("%v (and reporting it failed: %w)", cause, err)
	}
	return nil
}

// tolerableSweepErr reports whether the sweep's error still left a
// reportable result set: per-variant failures (they ride on Complete) or
// degraded-durability warnings.
func tolerableSweepErr(err error) bool {
	var se *explore.SweepError
	return errors.As(err, &se) || errors.Is(err, explore.ErrJournalDegraded)
}

// collectResults reads the shard journal back and pairs each record with
// its grid index and projected time. The journal — not the in-memory
// evals — is the source of record payloads, so what the coordinator
// merges is exactly what a resumed worker would replay.
func collectResults(fsys iofault.FS, path string, sh Shard, slice []*hw.Machine, evals []*pipeline.Eval) (results []VariantResult, replayed int) {
	indexOf := make(map[string]int, len(slice))
	for i, m := range slice {
		indexOf[m.Fingerprint()] = sh.Start + i
	}
	payloads := make(map[string][]byte)
	_, _ = journal.ScanFS(fsys, path, func(key string, payload []byte) error {
		if _, ours := indexOf[key]; ours {
			payloads[key] = append([]byte(nil), payload...)
		}
		return nil
	})
	for i, ev := range evals {
		if ev == nil {
			continue
		}
		key := slice[i].Fingerprint()
		payload, ok := payloads[key]
		if !ok {
			// Journaling degraded mid-shard: the eval exists but never
			// reached disk, so it cannot be reported as a journal record.
			continue
		}
		if ev.Provenance == pipeline.FromJournal {
			replayed++
		}
		results = append(results, VariantResult{
			Index:    sh.Start + i,
			Key:      key,
			Payload:  payload,
			TimeBits: math.Float64bits(ev.Analysis.TotalTime),
		})
	}
	return results, replayed
}

// sleep waits d or returns ctx's error early.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
