package shard

import (
	"fmt"
	"os"

	"skope/internal/explore"
	"skope/internal/journal"
)

// Journal merging. Sweep journals are keyed by machine fingerprint and
// bound (via journal meta) to a layout fingerprint, and identical keys
// under identical bindings carry byte-identical payloads — evaluation is
// deterministic and every float travels as its bit pattern. The
// coordinator merges by deduplication (refusing any violation, see
// ErrConflict), and the merged journal is written sorted by key, so the
// same record set always yields byte-identical bytes, whatever order the
// shards completed in.

// WriteMerged persists the coordinator's merged record set as a sweep
// journal at path, bound to the job's layout fingerprint — directly
// resumable through pipeline.WithJournal, so replaying it through a sweep
// with a store attached is how a finished job lands in the CAS.
func (c *Coordinator) WriteMerged(path string) (int, error) {
	records := c.MergedRecords()
	if err := writeMerged(path, c.cfg.Spec.LayoutFP, records); err != nil {
		return 0, err
	}
	return len(records), nil
}

// writeMerged writes records, already sorted by key, to a fresh journal
// at path, atomically: the journal is built at path+".tmp" with
// fsync-per-record, then renamed over path.
func writeMerged(path, layoutFP string, records []Record) error {
	tmp := path + ".tmp"
	if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("shard: merge: %w", err)
	}
	j, err := journal.Open(tmp)
	if err != nil {
		return fmt.Errorf("shard: merge: %w", err)
	}
	if err := j.SetMeta(map[string]string{explore.MetaLayoutKey: layoutFP}); err != nil {
		j.Close()
		return fmt.Errorf("shard: merge: %w", err)
	}
	for _, r := range records {
		if err := j.Append(r.Key, r.Payload); err != nil {
			j.Close()
			return fmt.Errorf("shard: merge: %w", err)
		}
	}
	if err := j.Close(); err != nil {
		return fmt.Errorf("shard: merge: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("shard: merge: %w", err)
	}
	return nil
}
