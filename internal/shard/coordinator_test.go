package shard_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"skope/internal/explore"
	"skope/internal/hw"
	"skope/internal/shard"
)

// stepClock is a manually advanced time source.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func newStepClock() *stepClock {
	return &stepClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testSpec is a 6-variant, 3-shard job over a synthetic layout binding.
// Coordinator logic never prepares the workload, so the fingerprint can be
// symbolic here; worker tests use real ones.
func testSpec() shard.JobSpec {
	return shard.JobSpec{
		Bench: "sord",
		Scale: 1,
		Base:  hw.BGQ().Wire(),
		Axes: []explore.Axis{
			{Param: "mem-bandwidth", Values: []float64{16, 32, 64}},
			{Param: "net-latency-us", Values: []float64{1, 2}},
		},
		LayoutFP:  "layout-under-test",
		ShardSize: 2,
	}
}

func testCoordinator(t *testing.T, clock *stepClock) (*shard.Coordinator, []*hw.Machine) {
	t.Helper()
	spec := testSpec()
	c, err := shard.NewCoordinator(shard.Config{
		JobID:            "j-test",
		Spec:             spec,
		Lease:            time.Minute,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Minute,
		Clock:            clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	variants, err := spec.Variants()
	if err != nil {
		t.Fatal(err)
	}
	return c, variants
}

// shardResults fabricates valid results for every variant of sh.
func shardResults(variants []*hw.Machine, sh shard.Shard) []shard.VariantResult {
	var out []shard.VariantResult
	for i := sh.Start; i < sh.End; i++ {
		out = append(out, shard.VariantResult{
			Index:    i,
			Key:      variants[i].Fingerprint(),
			Payload:  []byte(fmt.Sprintf(`{"variant":%d}`, i)),
			TimeBits: math.Float64bits(float64(10 - i)),
		})
	}
	return out
}

func mustLease(t *testing.T, c *shard.Coordinator, worker string) shard.Grant {
	t.Helper()
	g, err := c.Lease(worker)
	if err != nil {
		t.Fatalf("lease %s: %v", worker, err)
	}
	if g.State != shard.LeaseGranted {
		t.Fatalf("lease %s: state %q, want granted", worker, g.State)
	}
	return g
}

func leaseState(t *testing.T, c *shard.Coordinator, worker string) shard.LeaseState {
	t.Helper()
	g, err := c.Lease(worker)
	if err != nil {
		t.Fatalf("lease %s: %v", worker, err)
	}
	return g.State
}

func TestCoordinatorRequiresLayout(t *testing.T) {
	spec := testSpec()
	spec.LayoutFP = ""
	if _, err := shard.NewCoordinator(shard.Config{JobID: "j", Spec: spec}); err == nil {
		t.Fatal("NewCoordinator accepted a spec with no layout fingerprint")
	}
}

func TestCoordinatorLeaseLifecycle(t *testing.T) {
	clock := newStepClock()
	c, variants := testCoordinator(t, clock)

	g0 := mustLease(t, c, "a")
	g1 := mustLease(t, c, "b")
	g2 := mustLease(t, c, "c")
	if g0.Shard.Index == g1.Shard.Index || g1.Shard.Index == g2.Shard.Index || g0.Shard.Index == g2.Shard.Index {
		t.Fatalf("duplicate shard grants: %d %d %d", g0.Shard.Index, g1.Shard.Index, g2.Shard.Index)
	}
	// Everything is leased: the next request waits.
	if st := leaseState(t, c, "d"); st != shard.LeaseWait {
		t.Fatalf("state %q, want wait", st)
	}

	for w, g := range map[string]shard.Grant{"a": g0, "b": g1, "c": g2} {
		if err := c.Complete(w, g.Shard.ID, g.Epoch, shardResults(variants, g.Shard), nil); err != nil {
			t.Fatalf("complete %s: %v", w, err)
		}
	}
	if !c.Done() {
		t.Fatal("job not done after all completions")
	}
	if st := leaseState(t, c, "d"); st != shard.LeaseDone {
		t.Fatalf("state %q, want done", st)
	}

	recs := c.MergedRecords()
	if len(recs) != len(variants) {
		t.Fatalf("merged %d records, want %d", len(recs), len(variants))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Key >= recs[i].Key {
			t.Fatal("merged records not in sorted key order")
		}
	}
	st := c.Status()
	if !st.Done || st.Completed != 3 || st.Merged != len(variants) || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("status = %+v", st)
	}
	if st.FrontierSize == 0 {
		t.Fatal("frontier empty after completions")
	}
}

func TestCoordinatorLeaseExpiryStealsShard(t *testing.T) {
	clock := newStepClock()
	c, variants := testCoordinator(t, clock)

	g0 := mustLease(t, c, "dead")
	mustLease(t, c, "other1")
	mustLease(t, c, "other2")

	// Within the lease the shard is not re-granted.
	if st := leaseState(t, c, "thief"); st != shard.LeaseWait {
		t.Fatalf("state %q before expiry, want wait", st)
	}
	clock.Advance(2 * time.Minute)
	stolen := mustLease(t, c, "thief")
	if stolen.Shard.ID != g0.Shard.ID {
		t.Fatalf("thief got %s, want the expired %s", stolen.Shard.ID, g0.Shard.ID)
	}
	if stolen.Epoch <= g0.Epoch {
		t.Fatalf("steal did not bump the epoch: %d -> %d", g0.Epoch, stolen.Epoch)
	}
	if got := c.Status().Steals; got < 1 {
		t.Fatalf("steals = %d, want >= 1", got)
	}
	// The dead worker's heartbeat carries the old epoch: fenced.
	if _, err := c.Heartbeat("dead", g0.Shard.ID, g0.Epoch); !errors.Is(err, shard.ErrStaleLease) {
		t.Fatalf("heartbeat after steal: %v, want ErrStaleLease", err)
	}
	// And its late completion is fenced too — only the thief's report may
	// land, no matter how the deliveries race.
	if err := c.Complete("dead", g0.Shard.ID, g0.Epoch, shardResults(variants, g0.Shard), nil); !errors.Is(err, shard.ErrStaleLease) {
		t.Fatalf("late complete: %v, want ErrStaleLease", err)
	}
	if got := c.Status().StaleFenced; got != 2 {
		t.Fatalf("StaleFenced = %d, want 2", got)
	}
	// The thief's completion lands normally.
	if err := c.Complete("thief", stolen.Shard.ID, stolen.Epoch, shardResults(variants, stolen.Shard), nil); err != nil {
		t.Fatalf("thief complete: %v", err)
	}
}

func TestCoordinatorHeartbeatRenews(t *testing.T) {
	clock := newStepClock()
	c, _ := testCoordinator(t, clock)

	g := mustLease(t, c, "a")
	clock.Advance(45 * time.Second) // lease is 60s; renew at 45s
	if _, err := c.Heartbeat("a", g.Shard.ID, g.Epoch); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	clock.Advance(45 * time.Second) // 90s from grant, 45s from renewal
	if _, err := c.Heartbeat("a", g.Shard.ID, g.Epoch); err != nil {
		t.Fatalf("renewed lease expired early: %v", err)
	}
	// A stranger cannot heartbeat someone else's lease, even with the
	// right epoch.
	if _, err := c.Heartbeat("b", g.Shard.ID, g.Epoch); !errors.Is(err, shard.ErrNotOwner) {
		t.Fatalf("foreign heartbeat: %v, want ErrNotOwner", err)
	}
	// An unknown shard is its own error.
	if _, err := c.Heartbeat("a", "s9999-deadbeef", g.Epoch); !errors.Is(err, shard.ErrUnknownShard) {
		t.Fatalf("unknown shard heartbeat: %v, want ErrUnknownShard", err)
	}
}

func TestCoordinatorCompleteValidation(t *testing.T) {
	clock := newStepClock()
	c, variants := testCoordinator(t, clock)
	g := mustLease(t, c, "a")
	sh := g.Shard

	// Index outside the shard.
	bad := []shard.VariantResult{{Index: sh.End, Key: variants[sh.End].Fingerprint(), Payload: []byte(`{}`)}}
	if err := c.Complete("a", sh.ID, g.Epoch, bad, nil); err == nil {
		t.Fatal("accepted an index outside the shard")
	}
	// Key that is not the variant's fingerprint (version skew).
	skewed := []shard.VariantResult{{Index: sh.Start, Key: "not-a-fingerprint", Payload: []byte(`{}`)}}
	if err := c.Complete("a", sh.ID, g.Epoch, skewed, nil); !errors.Is(err, shard.ErrConflict) {
		t.Fatalf("skewed key: %v, want ErrConflict", err)
	}
	// Failure index outside the shard.
	if err := c.Complete("a", sh.ID, g.Epoch, nil, []shard.VariantFailure{{Index: sh.End, Err: "x"}}); err == nil {
		t.Fatal("accepted a failure index outside the shard")
	}

	// A valid completion with one failure.
	results := shardResults(variants, sh)[:1]
	fails := []shard.VariantFailure{{Index: sh.Start + 1, Err: "confidence floor"}}
	if err := c.Complete("a", sh.ID, g.Epoch, results, fails); err != nil {
		t.Fatalf("complete: %v", err)
	}
	recorded := c.Failures()
	if len(recorded) != 1 || recorded[0].Index != sh.Start+1 || recorded[0].Worker != "a" {
		t.Fatalf("failures = %+v", recorded)
	}
}

func TestCoordinatorDuplicateAndConflictingPayloads(t *testing.T) {
	clock := newStepClock()
	c, variants := testCoordinator(t, clock)

	g := mustLease(t, c, "a")
	results := shardResults(variants, g.Shard)
	if err := c.Complete("a", g.Shard.ID, g.Epoch, results, nil); err != nil {
		t.Fatalf("complete: %v", err)
	}

	// The same completion delivered again (a retry after a lost response):
	// acknowledged idempotently, nothing re-merged or double-counted.
	if err := c.Complete("a", g.Shard.ID, g.Epoch, results, nil); err != nil {
		t.Fatalf("duplicate complete: %v", err)
	}
	if got := c.Status().Merged; got != g.Shard.Size() {
		t.Fatalf("merged = %d after duplicate delivery, want %d", got, g.Shard.Size())
	}

	// The same key with different bytes: refuse, never arbitrate.
	g2 := mustLease(t, c, "b")
	conflict := shardResults(variants, g2.Shard)
	tampered := conflict[0]
	tampered.Payload = []byte(`{"variant":"tampered"}`)
	conflict = append(conflict, tampered)
	if err := c.Complete("b", g2.Shard.ID, g2.Epoch, conflict, nil); !errors.Is(err, shard.ErrConflict) {
		t.Fatalf("conflicting payload: %v, want ErrConflict", err)
	}
	if got := c.Status().Merged; got != g.Shard.Size() {
		t.Fatalf("merged = %d after the refused report, want %d", got, g.Shard.Size())
	}
}

// TestCoordinatorRejectedCompleteChangesNothing: a report refused by
// validation leaves no trace — not its valid-looking results, not the
// failures listed before the bad one — so the honest report for the same
// shard still lands, and live state matches what a coordinator recovered
// from its log (which never saw the refused report) would hold.
func TestCoordinatorRejectedCompleteChangesNothing(t *testing.T) {
	clock := newStepClock()
	c, variants := testCoordinator(t, clock)
	g := mustLease(t, c, "a")
	sh := g.Shard
	before, beforeFailures := c.Status(), c.Failures()

	tampered := shardResults(variants, sh)[:1]
	tampered[0].Payload = []byte(`{"variant":"tampered"}`)
	fails := []shard.VariantFailure{
		{Index: sh.Start + 1, Err: "confidence floor"},
		{Index: sh.End, Err: "outside the shard"},
	}
	if err := c.Complete("a", sh.ID, g.Epoch, tampered, fails); err == nil {
		t.Fatal("accepted a failure index outside the shard")
	}
	if after := c.Status(); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused report changed the status:\nbefore %+v\nafter  %+v", before, after)
	}
	if after := c.Failures(); !reflect.DeepEqual(after, beforeFailures) {
		t.Fatalf("refused report recorded failures: %+v", after)
	}

	if err := c.Complete("a", sh.ID, g.Epoch, shardResults(variants, sh), nil); err != nil {
		t.Fatalf("honest report after the refused one: %v", err)
	}
	if st := c.Status(); st.Merged != sh.Size() || st.Failed != 0 || st.Completed != 1 {
		t.Fatalf("status after the honest report = %+v", st)
	}
}

func TestCoordinatorBreakerQuarantineAndProbe(t *testing.T) {
	clock := newStepClock()
	c, variants := testCoordinator(t, clock)

	// Two consecutive shard failures (threshold 2) quarantine the worker.
	for i := 0; i < 2; i++ {
		g := mustLease(t, c, "flaky")
		if err := c.Fail("flaky", g.Shard.ID, g.Epoch, "boom"); err != nil {
			t.Fatalf("fail: %v", err)
		}
	}
	if st := leaseState(t, c, "flaky"); st != shard.LeaseQuarantined {
		t.Fatalf("state %q after threshold failures, want quarantined", st)
	}
	if q := c.Status().Quarantined; len(q) != 1 || q[0] != "flaky" {
		t.Fatalf("Quarantined = %v", q)
	}
	// Other workers are unaffected: the job completes around the pariah.
	for {
		g, err := c.Lease("steady")
		if err != nil {
			t.Fatal(err)
		}
		if g.State == shard.LeaseDone {
			break
		}
		if g.State != shard.LeaseGranted {
			t.Fatalf("steady worker got state %q", g.State)
		}
		if err := c.Complete("steady", g.Shard.ID, g.Epoch, shardResults(variants, g.Shard), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Done() {
		t.Fatal("job not done")
	}

	// After the cooldown the breaker admits a probe again — and a wasted
	// "done" response must not have consumed it.
	clock.Advance(11 * time.Minute)
	if st := leaseState(t, c, "flaky"); st != shard.LeaseDone {
		t.Fatalf("probe lease state %q, want done", st)
	}
}

func TestCoordinatorProbeRecovery(t *testing.T) {
	clock := newStepClock()
	c, variants := testCoordinator(t, clock)

	for i := 0; i < 2; i++ {
		g := mustLease(t, c, "flaky")
		_ = c.Fail("flaky", g.Shard.ID, g.Epoch, "boom")
	}
	if st := leaseState(t, c, "flaky"); st != shard.LeaseQuarantined {
		t.Fatalf("state %q, want quarantined", st)
	}
	clock.Advance(11 * time.Minute)
	// Cooldown elapsed: exactly one probe lease is granted...
	probe := mustLease(t, c, "flaky")
	// ...and a repeated request re-delivers the same probe idempotently
	// (same shard, same epoch) instead of handing out a second shard.
	again := mustLease(t, c, "flaky")
	if again.Shard.ID != probe.Shard.ID || again.Epoch != probe.Epoch {
		t.Fatalf("second probe got %s epoch %d, want the idempotent %s epoch %d",
			again.Shard.ID, again.Epoch, probe.Shard.ID, probe.Epoch)
	}
	// The probe succeeding closes the breaker: leases flow again.
	if err := c.Complete("flaky", probe.Shard.ID, probe.Epoch, shardResults(variants, probe.Shard), nil); err != nil {
		t.Fatal(err)
	}
	if st := leaseState(t, c, "flaky"); st != shard.LeaseGranted {
		t.Fatalf("post-recovery state %q, want granted", st)
	}
	if q := c.Status().Quarantined; len(q) != 0 {
		t.Fatalf("Quarantined = %v after recovery", q)
	}
}

func TestCoordinatorFailReturnsShardToPool(t *testing.T) {
	clock := newStepClock()
	c, _ := testCoordinator(t, clock)

	g := mustLease(t, c, "a")
	if err := c.Fail("a", g.Shard.ID, g.Epoch, "cannot open journal"); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Pending != 3 || st.Leased != 0 {
		t.Fatalf("status after fail = %+v, want all pending", st)
	}
	// Another worker picks the same shard back up, under a fresh epoch.
	got := mustLease(t, c, "b")
	if got.Shard.ID != g.Shard.ID {
		t.Fatalf("b got %s, want the returned %s", got.Shard.ID, g.Shard.ID)
	}
	if got.Epoch <= g.Epoch {
		t.Fatalf("re-grant epoch %d not past the failed %d", got.Epoch, g.Epoch)
	}
}

func TestCoordinatorMergedRecordsAreCopies(t *testing.T) {
	clock := newStepClock()
	c, variants := testCoordinator(t, clock)
	g := mustLease(t, c, "a")
	if err := c.Complete("a", g.Shard.ID, g.Epoch, shardResults(variants, g.Shard), nil); err != nil {
		t.Fatal(err)
	}
	recs := c.MergedRecords()
	want := append([]byte(nil), recs[0].Payload...)
	recs[0].Payload[0] = 'X'
	again := c.MergedRecords()
	if !bytes.Equal(again[0].Payload, want) {
		t.Fatal("MergedRecords exposed internal payload storage")
	}
}
