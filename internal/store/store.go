// Package store is the content-addressed evaluation cache behind the
// long-running analysis service (cmd/skoped) and cmd/skope's -store mode:
// a durable map from what an evaluation *is* to what it *produced*, shared
// by every session, sweep, and process that points at the same file.
//
// Identity, not provenance, is the key. An analytical evaluation is fully
// determined by three fingerprints:
//
//   - the layout fingerprint (hotspot.Layout.Fingerprint): the workload's
//     machine-independent model — source, profile, translation, priors;
//   - the machine fingerprint (hw.Machine.Fingerprint): every hardware
//     parameter of the variant, bit-exact;
//   - the mode digest (ModeDigest): the evaluation settings that shape the
//     served result — selection criteria, lenient mode, confidence floor.
//
// Two requests that agree on all three would compute bit-identical results,
// so the store may serve either from the other's record — across sessions,
// processes, and restarts. Values are canonically encoded analyses
// (hotspot.EncodeAnalysis), so a cache hit decodes to the exact bits a
// fresh evaluation would produce.
//
// A second, small namespace maps a *preparation digest* (PrepDigest: the
// workload source and the options that shape its preparation) to the layout
// fingerprint that preparing it produced, plus the preparation's confidence
// and diagnostics. That mapping is what lets a warm sweep skip preparation
// — and with it core.Build — entirely: digest the source, look up the
// layout fingerprint, serve every variant by key.
//
// Durability rides on the journal package: one crc32c-framed, fsync-per-
// append log with torn-tail recovery, safe for concurrent readers and
// writers within a process. (The file is owned by one process at a time;
// cross-process sharing is sequential.)
package store

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/iofault"
	"skope/internal/journal"
	"skope/internal/workloads"
)

// ErrDegraded marks a store that stopped accepting writes mid-run: reads
// (and the computation itself) are unaffected, but new results are no
// longer being persisted. Callers that treat the cache as best-effort can
// errors.Is for this and downgrade to a warning.
var ErrDegraded = errors.New("result store degraded")

const (
	metaStoreKey = "store"
	metaStoreVal = "skope-cas"
	metaVersion  = "version"
	versionVal   = "1"

	evalPrefix = "e/"
	prepPrefix = "p/"
)

// Stats counts cache outcomes since the store was opened.
type Stats struct {
	// Hits and Misses count GetEval lookups.
	Hits, Misses int
}

// HitRate returns the fraction of eval lookups served from the store.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Store is an open content-addressed result store. It is safe for
// concurrent use.
type Store struct {
	jnl *journal.Journal

	mu    sync.Mutex
	stats Stats
	// quarantine holds keys a scrub (or a failed decode) found corrupt.
	// Quarantined keys read as misses — the next matching evaluation
	// recomputes and its Put replaces the record, lifting the quarantine.
	// Lazily allocated so a zero-value-adjacent Store still works.
	quarantine map[string]bool
	scrubRuns  int
	lastScrub  ScrubReport
}

// Open opens (creating if absent) the store at path, recovering every
// intact record; a torn tail left by a crash mid-append is discarded, so
// recovery never serves a partial result. Opening a file that is not a
// skope result store fails rather than overwriting it.
func Open(path string) (*Store, error) {
	return OpenFS(iofault.Disk, path)
}

// OpenFS is Open through an explicit file abstraction (nil = the disk) —
// the seam the disk-fault chaos suite injects through.
func OpenFS(fsys iofault.FS, path string) (*Store, error) {
	j, err := journal.OpenFS(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := j.SetMeta(map[string]string{metaStoreKey: metaStoreVal, metaVersion: versionVal}); err != nil {
		j.Close()
		return nil, fmt.Errorf("store: %s is not a result store: %w", path, err)
	}
	return &Store{jnl: j}, nil
}

// quarantineKey marks a key corrupt. Callers hold s.mu.
func (s *Store) quarantineKey(key string) {
	if s.quarantine == nil {
		s.quarantine = make(map[string]bool)
	}
	s.quarantine[key] = true
}

// evalKey composes the content address of one evaluation.
func evalKey(layoutFP, machineFP, mode string) string {
	return evalPrefix + layoutFP + "/" + machineFP + "/" + mode
}

// GetEval returns the cached analysis for the (layout, machine, mode)
// triple, decoded to the exact bits the original evaluation produced. The
// boolean reports whether the store had the record; a record that exists
// but cannot be decoded returns an error (the store's framing makes silent
// corruption unreachable, so this indicates a version skew) and is
// quarantined so the next lookup recomputes instead of failing again. A
// quarantined key reads as a miss.
func (s *Store) GetEval(layoutFP, machineFP, mode string) (*hotspot.Analysis, bool, error) {
	key := evalKey(layoutFP, machineFP, mode)
	s.mu.Lock()
	if s.quarantine[key] {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false, nil
	}
	s.mu.Unlock()
	payload, ok := s.jnl.Get(key)
	s.mu.Lock()
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	a, err := hotspot.DecodeAnalysis(payload)
	if err != nil {
		s.mu.Lock()
		s.quarantineKey(key)
		s.mu.Unlock()
		return nil, true, fmt.Errorf("store: eval %s/%s/%s: %w", layoutFP, machineFP, mode, err)
	}
	return a, true, nil
}

// PutEval durably records one evaluation result under its content address.
// The record is fsynced before PutEval returns; re-putting an existing key
// overwrites it (the encoding is deterministic, so the bytes are identical
// for identical results) and lifts any quarantine on it — the replacement
// is a freshly computed, known-good record. A persistence failure wraps
// ErrDegraded: the computed result is unaffected, it just was not cached.
func (s *Store) PutEval(layoutFP, machineFP, mode string, a *hotspot.Analysis) error {
	data, err := hotspot.EncodeAnalysis(a)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	key := evalKey(layoutFP, machineFP, mode)
	if err := s.jnl.Append(key, data); err != nil {
		return fmt.Errorf("store: %w: %w", ErrDegraded, err)
	}
	s.mu.Lock()
	delete(s.quarantine, key)
	s.mu.Unlock()
	return nil
}

// Prep is the cached outcome of preparing one workload: the layout
// fingerprint its model resolves to, plus the preparation's confidence and
// diagnostics, so a warm run can reproduce the cold run's degradation
// report without re-preparing.
type Prep struct {
	LayoutFingerprint string
	Confidence        float64
	Diagnostics       []guard.Diagnostic
}

// prepRecord is Prep's wire form (confidence as IEEE-754 bits).
type prepRecord struct {
	Layout string             `json:"layout"`
	Conf   uint64             `json:"conf"`
	Diags  []guard.Diagnostic `json:"diags,omitempty"`
}

// GetPrep looks up the preparation outcome for a PrepDigest. Like
// GetEval, a quarantined key reads as a miss and an undecodable record is
// quarantined as it is reported.
func (s *Store) GetPrep(digest string) (Prep, bool, error) {
	key := prepPrefix + digest
	s.mu.Lock()
	if s.quarantine[key] {
		s.mu.Unlock()
		return Prep{}, false, nil
	}
	s.mu.Unlock()
	payload, ok := s.jnl.Get(key)
	if !ok {
		return Prep{}, false, nil
	}
	var rec prepRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		s.mu.Lock()
		s.quarantineKey(key)
		s.mu.Unlock()
		return Prep{}, true, fmt.Errorf("store: prep %s: %w", digest, err)
	}
	return Prep{
		LayoutFingerprint: rec.Layout,
		Confidence:        math.Float64frombits(rec.Conf),
		Diagnostics:       rec.Diags,
	}, true, nil
}

// PutPrep durably records one preparation outcome. Persistence failures
// wrap ErrDegraded; a successful overwrite lifts any quarantine.
func (s *Store) PutPrep(digest string, p Prep) error {
	payload, err := json.Marshal(prepRecord{
		Layout: p.LayoutFingerprint,
		Conf:   math.Float64bits(p.Confidence),
		Diags:  p.Diagnostics,
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	key := prepPrefix + digest
	if err := s.jnl.Append(key, payload); err != nil {
		return fmt.Errorf("store: %w: %w", ErrDegraded, err)
	}
	s.mu.Lock()
	delete(s.quarantine, key)
	s.mu.Unlock()
	return nil
}

// Stats returns the cumulative cache counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len returns the number of records (eval and prep) in the store.
func (s *Store) Len() int { return s.jnl.Len() }

// Recovered reports how many records Open replayed from disk and whether a
// torn tail was discarded.
func (s *Store) Recovered() (records int, tornTail bool) { return s.jnl.Recovered() }

// Path returns the store's file path.
func (s *Store) Path() string { return s.jnl.Path() }

// Close releases the underlying file. Records already put are durable
// regardless.
func (s *Store) Close() error { return s.jnl.Close() }

// digest hex-encodes the first 16 bytes of a sha256 over the given parts,
// length-framing each part so concatenation cannot alias.
func digest(parts ...string) string {
	h := sha256.New()
	var lenbuf [8]byte
	for _, p := range parts {
		n := len(p)
		for i := 0; i < 8; i++ {
			lenbuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenbuf[:])
		h.Write([]byte(p))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// ModeDigest digests the evaluation settings that are part of a result's
// identity beyond the workload and the machine: the hot-spot selection
// criteria, lenient mode, and the confidence floor. Criteria shape the
// Selection a served Eval carries and minimum confidence decides whether a
// variant is served at all, so results computed under different settings
// must never alias; lenient mode is included for defense in depth (it also
// shifts the layout fingerprint). See DESIGN.md, "content-addressed
// result store".
func ModeDigest(crit hotspot.Criteria, lenient bool, minConfidence float64) string {
	return digest(
		fmt.Sprintf("crit=%016x,%016x,%d",
			math.Float64bits(crit.TimeCoverage), math.Float64bits(crit.CodeLeanness), crit.MaxSpots),
		fmt.Sprintf("lenient=%t", lenient),
		fmt.Sprintf("minconf=%016x", math.Float64bits(minConfidence)),
	)
}

// PrepDigest digests everything that determines the outcome of preparing a
// workload: its name, exact source text, profiling seed, lenient mode, and
// the guard limits (which decide what a build may reject). Two
// preparations with equal digests produce identical layouts, so the digest
// can stand in for running the preparation at all.
func PrepDigest(w *workloads.Workload, lenient bool, lim *guard.Limits) string {
	return digest(
		w.Name,
		w.Source,
		fmt.Sprintf("seed=%d", w.Seed),
		fmt.Sprintf("lenient=%t", lenient),
		"limits="+lim.String(),
	)
}
