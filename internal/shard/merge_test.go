package shard_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"skope/internal/explore"
	"skope/internal/journal"
	"skope/internal/shard"
)

// scanKeys reads a journal's records in file order.
func scanKeys(t *testing.T, path string) (journal.ScanReport, []string) {
	t.Helper()
	var keys []string
	rep, err := journal.Scan(path, func(key string, _ []byte) error {
		keys = append(keys, key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, keys
}

// completeInOrder leases every shard of a fresh test coordinator (one
// worker per shard, so all leases are held at once), then completes the
// shards in the given order.
func completeInOrder(t *testing.T, order []int) *shard.Coordinator {
	t.Helper()
	c, variants := testCoordinator(t, newStepClock())
	grants := make([]shard.Grant, len(order))
	for i := range grants {
		grants[i] = mustLease(t, c, fmt.Sprintf("w%d", i))
	}
	for _, i := range order {
		g := grants[i]
		if err := c.Complete(fmt.Sprintf("w%d", i), g.Shard.ID, g.Epoch, shardResults(variants, g.Shard), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Done() {
		t.Fatal("job not done after completing every shard")
	}
	return c
}

// TestCoordinatorWriteMergedOrderIndependent: the merged journal holds
// every variant sorted by key, is bound to the spec's layout fingerprint,
// and its bytes depend only on the record set — two shard-completion
// orders write byte-identical files.
func TestCoordinatorWriteMergedOrderIndependent(t *testing.T) {
	dir := t.TempDir()
	var files [][]byte
	for i, order := range [][]int{{0, 1, 2}, {2, 0, 1}} {
		c := completeInOrder(t, order)
		path := filepath.Join(dir, fmt.Sprintf("m%d.journal", i))
		n, err := c.WriteMerged(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, keys := scanKeys(t, path)
		if n != 6 || len(keys) != n {
			t.Fatalf("order %v: WriteMerged wrote %d records, scanned %d, want 6", order, n, len(keys))
		}
		if !sort.StringsAreSorted(keys) {
			t.Fatalf("order %v: merged records not sorted by key: %v", order, keys)
		}
		if got := rep.Meta[explore.MetaLayoutKey]; got != testSpec().LayoutFP {
			t.Fatalf("order %v: merged journal bound to %q, want %q", order, got, testSpec().LayoutFP)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, raw)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("two shard-completion orders wrote different merged journals")
	}
}

// TestCoordinatorWriteMergedAtomic: a stale temp file from a crashed
// earlier write does not wedge WriteMerged, and none is left behind.
func TestCoordinatorWriteMergedAtomic(t *testing.T) {
	c := completeInOrder(t, []int{0, 1, 2})
	dst := filepath.Join(t.TempDir(), "m.journal")
	if err := os.WriteFile(dst+".tmp", []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteMerged(dst); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dst + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind after WriteMerged")
	}
	if _, keys := scanKeys(t, dst); len(keys) != 6 {
		t.Fatalf("merged records = %v", keys)
	}
}
