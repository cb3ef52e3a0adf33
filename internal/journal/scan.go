package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"skope/internal/iofault"
)

// Scan is the read-only counterpart of Open: it walks the journal at path
// without repairing anything, reporting what a recovery would find. Open
// silently truncates a torn tail — correct for resuming work, wrong for a
// scrub (a verifier must not modify what it verifies) and wrong for merge
// inputs it does not own. Scan leaves the file untouched.

// ErrCorrupt marks damage Scan or Open found: a bad header, or a bad
// frame or checksum followed by more data. A torn tail (the one partial
// line a crash mid-Append can leave) is NOT corruption; Scan reports it on
// ScanReport.TornTail and Open truncates it.
var ErrCorrupt = errors.New("journal corrupt")

// ScanReport is the outcome of one read-only journal walk.
type ScanReport struct {
	// Meta is the journal's header binding.
	Meta map[string]string
	// Records counts intact record lines (appends, not distinct keys).
	Records int
	// TornTail reports a partial final line — recoverable damage that
	// Open (or Repair) would truncate away.
	TornTail bool
	// TornOffset is the file offset of the torn tail (the size the file
	// would have after repair); equal to the file size when intact.
	TornOffset int64
}

// Scan walks the journal at path read-only, calling fn for every intact
// record line in file order (duplicate keys are delivered each time they
// appear; the last call for a key carries its effective payload). fn may
// be nil. A torn tail is reported on the ScanReport, not as an error;
// corruption before the end of the file fails with an error wrapping
// ErrCorrupt. An error from fn aborts the walk and is returned as-is.
func Scan(path string, fn func(key string, payload []byte) error) (ScanReport, error) {
	return scanFS(iofault.Disk, path, fn)
}

// scanFS is Scan through an explicit file abstraction, for RepairFS.
func scanFS(fsys iofault.FS, path string, fn func(key string, payload []byte) error) (ScanReport, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return ScanReport{}, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return walk(f, path, fn)
}

// walk reads the journal frames in r: the header, then every record in
// file order, handed to fn (nil skips them). A damaged or unterminated
// final line is a torn tail, reported on the ScanReport; a bad header or
// damage before the end of the file fails with an error wrapping
// ErrCorrupt. An error from fn aborts the walk and is returned as-is.
// Shared by Open's recovery and Scan.
func walk(r io.Reader, path string, fn func(key string, payload []byte) error) (rep ScanReport, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	lineNo := 0
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr == io.EOF && len(line) == 0 {
			return rep, nil
		}
		if rerr != nil && rerr != io.EOF {
			return rep, fmt.Errorf("journal %s: %w", path, rerr)
		}
		payload, perr := parseLine(line)
		if perr != nil || rerr == io.EOF {
			// Damaged or unterminated line: legitimate only as the very
			// last line (a torn Append) after an intact header. A damaged
			// first line means this is not (or no longer is) a journal —
			// refuse rather than truncate someone else's file.
			if lineNo == 0 {
				return rep, fmt.Errorf("journal %s: not a journal (bad or torn header): %w", path, ErrCorrupt)
			}
			if _, after := br.ReadByte(); after != io.EOF {
				return rep, fmt.Errorf("journal %s: line %d: corrupt record before end of file (%v): %w",
					path, lineNo+1, perr, ErrCorrupt)
			}
			rep.TornTail = true
			return rep, nil
		}
		lineNo++
		if lineNo == 1 {
			var h header
			if uerr := json.Unmarshal(payload, &h); uerr != nil || h.Magic != magic {
				return rep, fmt.Errorf("journal %s: not a journal (bad header): %w", path, ErrCorrupt)
			}
			if h.Version != version {
				return rep, fmt.Errorf("journal %s: unsupported version %d (want %d): %w", path, h.Version, version, ErrCorrupt)
			}
			rep.Meta = h.Meta
		} else {
			var rec record
			if uerr := json.Unmarshal(payload, &rec); uerr != nil {
				return rep, fmt.Errorf("journal %s: line %d: bad record (%v): %w", path, lineNo, uerr, ErrCorrupt)
			}
			rep.Records++
			if fn != nil {
				if ferr := fn(rec.Key, rec.Payload); ferr != nil {
					return rep, ferr
				}
			}
		}
		rep.TornOffset += int64(len(line))
	}
}

// Repair truncates the journal's torn tail, if it has one, and reports
// what it did: the number of intact records kept and whether a tail was
// removed. It refuses (like Scan) on mid-file corruption. Repairing an
// intact journal is a no-op.
func Repair(path string) (records int, repaired bool, err error) {
	return RepairFS(iofault.Disk, path)
}

// RepairFS is Repair through an explicit file abstraction (nil = the
// disk).
func RepairFS(fsys iofault.FS, path string) (records int, repaired bool, err error) {
	if fsys == nil {
		fsys = iofault.Disk
	}
	rep, err := scanFS(fsys, path, nil)
	if err != nil {
		return 0, false, err
	}
	if !rep.TornTail {
		return rep.Records, false, nil
	}
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return rep.Records, false, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(rep.TornOffset); err != nil {
		return rep.Records, false, fmt.Errorf("journal %s: truncating torn tail: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return rep.Records, false, fmt.Errorf("journal %s: %w", path, err)
	}
	return rep.Records, true, nil
}
