package shard

import (
	"bytes"
	"fmt"
	"os"
	"sort"

	"skope/internal/explore"
	"skope/internal/journal"
)

// Journal merging. Sweep journals are keyed by machine fingerprint and
// bound (via journal meta) to a layout fingerprint, and identical keys
// under identical bindings carry byte-identical payloads — evaluation is
// deterministic and every float travels as its bit pattern. Merging is
// therefore deduplication: collect every record, refuse if the invariant
// is ever violated, and write the union sorted by key. Sorting makes the
// merge order-independent — same inputs in any order produce a
// byte-identical merged journal — which the merge tests assert literally.

// MergeStats reports what one MergeJournals call saw.
type MergeStats struct {
	// Inputs counts source journals read; TornInputs counts those with a
	// torn tail (tolerated: the tail is the footprint of a SIGKILL
	// mid-append, exactly what the shard layer must absorb).
	Inputs, TornInputs int
	// Records counts intact input records including duplicates; Unique is
	// the merged record count.
	Records, Unique int
}

// MergeJournals merges the sweep journals at srcs into one journal at
// dst, bound to the given layout fingerprint. Every source must carry the
// same binding (a worker that prepared a different model must not
// contribute) and duplicate keys must carry byte-identical payloads
// (ErrConflict otherwise). A torn tail on a source is tolerated — its
// intact records merge, the tail is ignored, the source is not modified.
// The output is written atomically (temp file + rename) in sorted key
// order, so the merged bytes depend only on the merged record set, never
// on input order.
func MergeJournals(dst, layoutFP string, srcs ...string) (MergeStats, error) {
	var stats MergeStats
	merged := make(map[string][]byte)
	for _, src := range srcs {
		rep, err := journal.Scan(src, func(key string, payload []byte) error {
			stats.Records++
			if prev, dup := merged[key]; dup {
				if !bytes.Equal(prev, payload) {
					return fmt.Errorf("shard: merge %s: variant %s has two different payloads: %w",
						src, key, ErrConflict)
				}
				return nil
			}
			merged[key] = append([]byte(nil), payload...)
			return nil
		})
		if err != nil {
			return stats, err
		}
		if rep.Meta[explore.MetaLayoutKey] != layoutFP {
			return stats, fmt.Errorf("shard: merge %s: journal bound to layout %q, merging %q: %w",
				src, rep.Meta[explore.MetaLayoutKey], layoutFP, journal.ErrMetaMismatch)
		}
		stats.Inputs++
		if rep.TornTail {
			stats.TornInputs++
		}
	}
	stats.Unique = len(merged)
	records := make([]Record, 0, len(merged))
	for k, v := range merged {
		records = append(records, Record{Key: k, Payload: v})
	}
	return stats, writeMerged(dst, layoutFP, records)
}

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

// writeMerged writes records (sorted by key) to a fresh journal at path,
// atomically: the journal is built at path+".tmp" with fsync-per-record,
// then renamed over path.
func writeMerged(path, layoutFP string, records []Record) error {
	sort.Slice(records, func(i, j int) bool { return records[i].Key < records[j].Key })
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
