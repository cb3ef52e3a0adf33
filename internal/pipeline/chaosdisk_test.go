package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/iofault"
	"skope/internal/store"
	"skope/internal/workloads"
)

// The chaos-disk suite drives the pipeline's one durability layer, the
// content-addressed store, through iofault's scriptable disk: a failing
// fsync, a disk that runs out of space mid-sweep, a torn final record, and
// an open that returns EIO. The invariant under test is zero silent
// corruption: every sweep either produces results bit-identical to a
// fault-free golden or reports the degradation explicitly
// (store.ErrDegraded, or an error from the open) — never wrong numbers,
// and a rerun on healed hardware recomputes only what the fault lost.

// chaosDiskGrid is the sweep grid every scenario runs: mem-bandwidth
// {16, 32} x freq-ghz {1.6, 2.4} over the BG/Q base.
func chaosDiskGrid() []*hw.Machine {
	var out []*hw.Machine
	for _, bw := range []float64{16, 32} {
		for _, f := range []float64{1.6, 2.4} {
			m := hw.BGQ()
			m.Name = fmt.Sprintf("bw%g-f%g", bw, f)
			m.MemBandwidthGBs = bw
			m.FreqGHz = f
			out = append(out, m)
		}
	}
	return out
}

// chaosDiskGolden caches the fault-free reference sweep per workload so
// the four scenarios compare against one golden instead of recomputing it.
var (
	chaosDiskGoldenMu sync.Mutex
	chaosDiskGoldens  = map[string][]*Eval{}
)

func chaosDiskGolden(t *testing.T, name string) []*Eval {
	t.Helper()
	chaosDiskGoldenMu.Lock()
	defer chaosDiskGoldenMu.Unlock()
	if g, ok := chaosDiskGoldens[name]; ok {
		return g
	}
	g, err := Sweep(context.Background(), prepared(t, name), chaosDiskGrid())
	if err != nil {
		t.Fatalf("golden sweep %s: %v", name, err)
	}
	chaosDiskGoldens[name] = g
	return g
}

// assertEvalsBitIdentical fails unless every variant's analysis matches
// the golden bit for bit (encoded bytes and the raw TotalTime pattern).
func assertEvalsBitIdentical(t *testing.T, got, want []*Eval) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d evals != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] == nil || want[i] == nil {
			t.Fatalf("variant %d: nil eval (got %v, want %v)", i, got[i] == nil, want[i] == nil)
		}
		if math.Float64bits(got[i].Analysis.TotalTime) != math.Float64bits(want[i].Analysis.TotalTime) {
			t.Fatalf("variant %d: TotalTime %v != %v", i, got[i].Analysis.TotalTime, want[i].Analysis.TotalTime)
		}
		ge, err := hotspot.EncodeAnalysis(got[i].Analysis)
		if err != nil {
			t.Fatal(err)
		}
		we, err := hotspot.EncodeAnalysis(want[i].Analysis)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ge, we) {
			t.Fatalf("variant %d: analysis not bit-identical to the fault-free golden", i)
		}
	}
}

// assertProvenancePrefix fails unless the first n evals were served from
// source and the rest were recomputed — the "a rerun recomputes only the
// lost suffix" contract (sweeps run with Workers(1), so the durable
// prefix is exactly the first n variants).
func assertProvenancePrefix(t *testing.T, evals []*Eval, n int, source Provenance) {
	t.Helper()
	for i, ev := range evals {
		want := Computed
		if i < n {
			want = source
		}
		if ev.Provenance != want {
			t.Errorf("variant %d: provenance %v, want %v (durable prefix %d)", i, ev.Provenance, want, n)
		}
	}
}

// TestChaosDiskFsyncFailure: the store's fsync starts failing mid-sweep.
// The sweep must complete with every analysis intact and bit-identical,
// reporting store.ErrDegraded — and a rerun on healed disk is served the
// durable prefix, recomputing only what was never acknowledged.
func TestChaosDiskFsyncFailure(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			run := prepared(t, name)
			variants := chaosDiskGrid()
			want := chaosDiskGolden(t, name)
			path := filepath.Join(t.TempDir(), "cas.store")

			// Sync 1 = store header; syncs 2-3 = records; sync 4 (the
			// third record's) fails, so exactly 2 records are durable.
			ff := iofault.New(nil, iofault.Plan{FailSyncAt: 4})
			st, err := store.OpenFS(ff, path)
			if err != nil {
				t.Fatal(err)
			}
			got, serr := Sweep(context.Background(), run, variants, WithStore(st), WithWorkers(1))
			st.Close()
			if !errors.Is(serr, store.ErrDegraded) {
				t.Fatalf("sweep with failing fsync = %v; want store.ErrDegraded", serr)
			}
			if errors.Is(serr, context.Canceled) {
				t.Fatalf("degradation reported as cancellation: %v", serr)
			}
			// The degradation cost durability, never correctness.
			assertEvalsBitIdentical(t, got, want)

			// Healed disk: the rollback removed the unacknowledged record,
			// so the store reopens clean with the 2 durable records.
			s2, err := store.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if n, torn := s2.Recovered(); n != 2 || torn {
				t.Fatalf("Recovered = (%d, %v); want (2, false)", n, torn)
			}
			rerun, err := Sweep(context.Background(), run, variants, WithStore(s2), WithWorkers(1))
			if err != nil {
				t.Fatalf("rerun on healed disk: %v", err)
			}
			assertEvalsBitIdentical(t, rerun, want)
			assertProvenancePrefix(t, rerun, 2, FromStore)
		})
	}
}

// TestChaosDiskENOSPCStore: the store's disk fills mid-sweep. The sweep
// completes degraded (store.ErrDegraded wrapping ENOSPC) with intact
// results; once space is back, a rerun is served the persisted prefix
// from the store and recomputes only the lost suffix.
func TestChaosDiskENOSPCStore(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			run := prepared(t, name)
			variants := chaosDiskGrid()
			want := chaosDiskGolden(t, name)
			dir := t.TempDir()

			// Probe the on-disk cost of the header alone and of a full
			// sweep, then budget the faulty disk for roughly half the
			// records.
			probeEmpty := filepath.Join(dir, "empty.store")
			se, err := store.Open(probeEmpty)
			if err != nil {
				t.Fatal(err)
			}
			se.Close()
			probeFull := filepath.Join(dir, "full.store")
			sf, err := store.Open(probeFull)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Sweep(context.Background(), run, variants, WithStore(sf), WithWorkers(1)); err != nil {
				t.Fatal(err)
			}
			sf.Close()
			emptySize, fullSize := fileSize(t, probeEmpty), fileSize(t, probeFull)

			path := filepath.Join(dir, "cas.store")
			ff := iofault.New(nil, iofault.Plan{ByteBudget: (emptySize + fullSize) / 2})
			st, err := store.OpenFS(ff, path)
			if err != nil {
				t.Fatal(err)
			}
			got, serr := Sweep(context.Background(), run, variants, WithStore(st), WithWorkers(1))
			st.Close()
			if !errors.Is(serr, store.ErrDegraded) || !errors.Is(serr, syscall.ENOSPC) {
				t.Fatalf("sweep on full disk = %v; want ErrDegraded wrapping ENOSPC", serr)
			}
			assertEvalsBitIdentical(t, got, want)

			// Space is back: the persisted prefix serves from the store,
			// only the suffix recomputes.
			s2, err := store.Open(path)
			if err != nil {
				t.Fatalf("reopen after ENOSPC: %v", err)
			}
			defer s2.Close()
			persisted := s2.Len()
			if persisted <= 0 || persisted >= len(variants) {
				t.Fatalf("store holds %d of %d records; the budget did not land mid-sweep", persisted, len(variants))
			}
			rerun, err := Sweep(context.Background(), run, variants, WithStore(s2), WithWorkers(1))
			if err != nil {
				t.Fatalf("rerun on healed disk: %v", err)
			}
			assertEvalsBitIdentical(t, rerun, want)
			assertProvenancePrefix(t, rerun, persisted, FromStore)
		})
	}
}

// TestChaosDiskTornFinalRecord: a write fails half-way through the final
// store append and the rollback truncate is blocked too, leaving a torn
// frame on disk. The sweep stays correct and reports the degradation;
// reopening recovers the intact prefix (discarding the tear) and a rerun
// recomputes only the torn-off suffix.
func TestChaosDiskTornFinalRecord(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			run := prepared(t, name)
			variants := chaosDiskGrid()
			want := chaosDiskGolden(t, name)
			path := filepath.Join(t.TempDir(), "cas.store")

			// Write 1 = header, writes 2-4 = records; write 5 (the final
			// record) tears and the rollback truncate fails.
			ff := iofault.New(nil, iofault.Plan{FailWriteAt: 5, ShortWrite: true, FailTruncate: true})
			st, err := store.OpenFS(ff, path)
			if err != nil {
				t.Fatal(err)
			}
			got, serr := Sweep(context.Background(), run, variants, WithStore(st), WithWorkers(1))
			st.Close()
			if !errors.Is(serr, store.ErrDegraded) || !errors.Is(serr, syscall.EIO) {
				t.Fatalf("sweep with torn append = %v; want store.ErrDegraded wrapping EIO", serr)
			}
			assertEvalsBitIdentical(t, got, want)

			// Recovery discards the torn frame and keeps the 3 intact
			// records.
			s2, err := store.Open(path)
			if err != nil {
				t.Fatalf("reopen over torn tail: %v", err)
			}
			defer s2.Close()
			if n, torn := s2.Recovered(); n != 3 || !torn {
				t.Fatalf("Recovered = (%d, %v); want (3, true)", n, torn)
			}
			rerun, err := Sweep(context.Background(), run, variants, WithStore(s2), WithWorkers(1))
			if err != nil {
				t.Fatalf("rerun over the recovered store: %v", err)
			}
			assertEvalsBitIdentical(t, rerun, want)
			assertProvenancePrefix(t, rerun, 3, FromStore)
		})
	}
}

// TestChaosDiskReopenEIO: a store whose open fails surfaces an explicit
// error — never a silently empty store that would quietly recompute a
// finished sweep. Once the fault clears, a rerun is served everything
// with zero recomputation.
func TestChaosDiskReopenEIO(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			run := prepared(t, name)
			variants := chaosDiskGrid()
			want := chaosDiskGolden(t, name)
			path := filepath.Join(t.TempDir(), "cas.store")

			st, err := store.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Sweep(context.Background(), run, variants, WithStore(st), WithWorkers(1)); err != nil {
				t.Fatal(err)
			}
			st.Close()

			ff := iofault.New(nil, iofault.Plan{FailOpenAt: 1})
			if _, err := store.OpenFS(ff, path); !errors.Is(err, iofault.ErrInjected) {
				t.Fatalf("faulty reopen = %v; want an explicit injected error", err)
			}

			// The fault clears; every variant is served, none recompute.
			var mu sync.Mutex
			evaluated := 0
			disarm := guard.Arm("explore.evaluate", func(string) {
				mu.Lock()
				evaluated++
				mu.Unlock()
			})
			t.Cleanup(disarm)
			s2, err := store.Open(path)
			if err != nil {
				t.Fatalf("clean reopen: %v", err)
			}
			defer s2.Close()
			if n, torn := s2.Recovered(); n != len(variants) || torn {
				t.Fatalf("Recovered = (%d, %v); want (%d, false)", n, torn, len(variants))
			}
			rerun, err := Sweep(context.Background(), run, variants, WithStore(s2), WithWorkers(1))
			if err != nil {
				t.Fatalf("rerun: %v", err)
			}
			assertEvalsBitIdentical(t, rerun, want)
			assertProvenancePrefix(t, rerun, len(variants), FromStore)
			mu.Lock()
			defer mu.Unlock()
			if evaluated != 0 {
				t.Errorf("fully stored rerun recomputed %d variants", evaluated)
			}
		})
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
