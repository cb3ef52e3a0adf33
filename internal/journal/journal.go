// Package journal is the append-only, crash-safe record log under the
// content-addressed result store (internal/store), its only importer. A
// record is an opaque key and a payload; a later record under the same key
// replaces the earlier one. What the store relies on:
//
//   - Framing. Version 1 writes one line per entry,
//
//     <crc32c-hex> <json>\n
//
//     with a CRC32-C of the JSON. The first line is a header
//     {"magic","version","meta"} that SetMeta writes; the store binds it
//     to its own magic and format version, and SetMeta on a recovered log
//     refuses any other binding with ErrMetaMismatch, so a store never
//     overwrites a file that is not one. Every later line is a record
//     {"key","payload"}.
//
//   - Torn-tail recovery. Append writes one line and fsyncs it before it
//     returns, so a record is either wholly on disk or absent, and a crash
//     can leave at most one partial final line. OpenFS truncates that torn
//     tail back to the last intact record; damage anywhere before the tail
//     cannot come from a crash and is refused with ErrCorrupt. Scan reports
//     the same findings without touching the file, and Repair cuts the
//     tail of a closed log.
//
//   - Fail-stop appends. The first write or fsync failure rolls the
//     partial frame back (best effort) and turns the log read-only: every
//     later Append and SetMeta fails with ErrWriteFailed, while Get,
//     Entries and Len keep serving every record that was durable.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"skope/internal/iofault"
)

const (
	magic   = "skope-journal"
	version = 1
)

// ErrMetaMismatch marks an attempt to reuse a journal under a different
// meta binding than it was created with, such as opening a file some other
// program wrote as a result store.
var ErrMetaMismatch = errors.New("journal meta mismatch")

// ErrNoMeta marks an Append on a journal whose header has not been
// written yet (SetMeta must run first).
var ErrNoMeta = errors.New("journal meta not set")

// ErrWriteFailed marks a journal whose append path failed once — a write
// or fsync error. The journal goes read-only: the failed frame is rolled
// back (best effort), everything recovered or appended before the failure
// stays readable, and every later Append or SetMeta refuses with this
// error. Appending past a failed write would bury a torn frame mid-file,
// turning recoverable damage into fatal corruption; and after a failed
// fsync the kernel may have dropped the very pages it acknowledged, so
// the only safe stance is to stop trusting the file with new records.
var ErrWriteFailed = errors.New("journal write failed; appends disabled")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type header struct {
	Magic   string            `json:"magic"`
	Version int               `json:"version"`
	Meta    map[string]string `json:"meta,omitempty"`
}

type record struct {
	Key     string `json:"key"`
	Payload []byte `json:"payload"`
}

// Journal is an open journal file. It is safe for concurrent use.
type Journal struct {
	mu        sync.Mutex
	f         iofault.File
	path      string
	meta      map[string]string
	records   map[string][]byte
	order     []string // distinct keys in first-append order
	recovered int
	truncated bool
	size      int64 // offset just past the last line known intact on disk
	failed    error // sticky after a write/fsync failure: appends disabled
}

// OpenFS opens (creating if absent) the journal at path through fsys (nil
// is the disk; the disk-fault chaos suites inject through this seam) and
// recovers its contents: the meta header and every intact record. A torn
// final line, the footprint of a crash mid-Append, is discarded by
// truncating the file back to the last intact record; damage before the
// tail is an error wrapping ErrCorrupt, since an fsync-per-record log
// cannot produce it.
func OpenFS(fsys iofault.FS, path string) (*Journal, error) {
	if fsys == nil {
		fsys = iofault.Disk
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, path: path, records: make(map[string][]byte)}
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// recover walks the file from the start and takes over what it finds.
// A torn tail is truncated away; any other damage is refused (walk wraps
// it in ErrCorrupt).
func (j *Journal) recover() error {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal %s: %w", j.path, err)
	}
	rep, err := walk(j.f, j.path, func(key string, payload []byte) error {
		if _, seen := j.records[key]; !seen {
			j.order = append(j.order, key)
		}
		j.records[key] = payload
		return nil
	})
	if err != nil {
		return err
	}
	j.meta, j.recovered, j.truncated, j.size = rep.Meta, rep.Records, rep.TornTail, rep.TornOffset
	if j.truncated {
		if err := j.f.Truncate(j.size); err != nil {
			return fmt.Errorf("journal %s: truncating torn tail: %w", j.path, err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal %s: %w", j.path, err)
		}
	}
	if _, err := j.f.Seek(j.size, io.SeekStart); err != nil {
		return fmt.Errorf("journal %s: %w", j.path, err)
	}
	return nil
}

// parseLine validates one framed line and returns its JSON payload.
func parseLine(line []byte) ([]byte, error) {
	line = bytes.TrimSuffix(line, []byte("\n"))
	sp := bytes.IndexByte(line, ' ')
	if sp != 8 {
		return nil, errors.New("malformed frame")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return nil, errors.New("malformed checksum")
	}
	payload := line[9:]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// writeLine frames, writes and fsyncs one payload. A write or fsync
// failure permanently disables the append path (ErrWriteFailed): the
// frame is rolled back to the last known-good offset so the damage is
// not buried under later appends, and everything already durable stays
// readable. Called with j.mu held.
func (j *Journal) writeLine(payload []byte) error {
	if j.failed != nil {
		return fmt.Errorf("journal %s: %w", j.path, j.failed)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%08x ", crc32.Checksum(payload, crcTable))
	buf.Write(payload)
	buf.WriteByte('\n')
	_, werr := j.f.Write(buf.Bytes())
	if werr == nil {
		if serr := j.f.Sync(); serr != nil {
			werr = fmt.Errorf("fsync: %w", serr)
		}
	}
	if werr != nil {
		// Best-effort rollback: cut the file back to the last line known
		// intact. If the truncate itself fails, the torn frame stays on
		// disk — still recoverable, because a torn *tail* is exactly what
		// OpenFS and Scan are built to discard.
		if terr := j.f.Truncate(j.size); terr == nil {
			_, _ = j.f.Seek(j.size, io.SeekStart)
			_ = j.f.Sync()
		}
		j.failed = fmt.Errorf("%w: %w", ErrWriteFailed, werr)
		return fmt.Errorf("journal %s: %w", j.path, j.failed)
	}
	j.size += int64(buf.Len())
	return nil
}

// SetMeta binds the journal to its producer. On a fresh journal it writes
// the header; on a recovered one it verifies the stored meta matches and
// returns ErrMetaMismatch (with the differing key) if not.
func (j *Journal) SetMeta(meta map[string]string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.meta != nil {
		for k, v := range meta {
			if got := j.meta[k]; got != v {
				return fmt.Errorf("journal %s: key %q is %q, want %q: %w", j.path, k, got, v, ErrMetaMismatch)
			}
		}
		if len(j.meta) != len(meta) {
			return fmt.Errorf("journal %s: recovered %d meta keys, want %d: %w", j.path, len(j.meta), len(meta), ErrMetaMismatch)
		}
		return nil
	}
	payload, err := json.Marshal(header{Magic: magic, Version: version, Meta: meta})
	if err != nil {
		return fmt.Errorf("journal %s: %w", j.path, err)
	}
	if err := j.writeLine(payload); err != nil {
		return err
	}
	j.meta = make(map[string]string, len(meta))
	for k, v := range meta {
		j.meta[k] = v
	}
	return nil
}

// Append durably records one payload under key: the line is on disk
// (fsynced) when Append returns nil. Appending a key again replaces its
// value (last record wins), which keeps Append idempotent for
// deterministic work.
func (j *Journal) Append(key string, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.meta == nil {
		return fmt.Errorf("journal %s: %w", j.path, ErrNoMeta)
	}
	p, err := json.Marshal(record{Key: key, Payload: payload})
	if err != nil {
		return fmt.Errorf("journal %s: %w", j.path, err)
	}
	if err := j.writeLine(p); err != nil {
		return err
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	if _, seen := j.records[key]; !seen {
		j.order = append(j.order, key)
	}
	j.records[key] = cp
	return nil
}

// Entry is one journal record as returned by Entries: its key and the
// latest payload appended under it.
type Entry struct {
	Key     string
	Payload []byte
}

// Entries returns a copy of every intact record in completion order:
// distinct keys in the order they were first appended (recovered records
// first, in file order), each with its latest payload. The store's
// scrubber walks it to re-verify every record.
func (j *Journal) Entries() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Entry, 0, len(j.order))
	for _, k := range j.order {
		v := j.records[k]
		cp := make([]byte, len(v))
		copy(cp, v)
		out = append(out, Entry{Key: k, Payload: cp})
	}
	return out
}

// Get returns a copy of the latest payload appended under key, if any:
// the store's lookup of one record.
func (j *Journal) Get(key string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.records[key]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, true
}

// Len returns the number of distinct record keys in the journal.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.records)
}

// Recovered returns how many records OpenFS recovered from disk, and
// whether it discarded a torn tail.
func (j *Journal) Recovered() (records int, tornTail bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovered, j.truncated
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close releases the file. Records already appended are durable
// regardless — Close exists for descriptor hygiene, not flushing.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
