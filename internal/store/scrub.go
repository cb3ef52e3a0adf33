package store

import (
	"bytes"
	"sort"
)

// Scrub is the in-process counterpart of Verify: the same record-level
// checks (canonical decode/re-encode for evals, parse + layout presence
// for preps, known namespaces), run against an *open* store's in-memory
// record set instead of a closed file. Where Verify reports and Repair
// truncates, Scrub acts: a record that fails verification is quarantined
// — its key reads as a miss until a fresh Put replaces it — so the next
// matching evaluation transparently recomputes and heals the store. The
// skoped daemon runs Scrub periodically (-scrub-interval) and surfaces
// the outcome in /v1/healthz.

// ScrubReport is the outcome of one scrub pass.
type ScrubReport struct {
	// Checked counts the distinct records examined.
	Checked int `json:"checked"`
	// Quarantined counts keys this pass newly quarantined.
	Quarantined int `json:"quarantined"`
	// Healed counts keys that left quarantine: their record now verifies
	// clean (replaced by a fresh Put since the damage was found).
	Healed int `json:"healed"`
	// Bad is the total quarantine size after the pass.
	Bad int `json:"bad"`
	// Problems lists the records currently failing verification, sorted
	// by key.
	Problems []Problem `json:"problems,omitempty"`
}

// Scrub verifies every record the store currently holds and updates the
// quarantine set: failing records are quarantined (reading as misses so
// the next matching evaluation recomputes and replaces them), previously
// quarantined keys whose records verify clean are released. Verification
// runs without the store lock — decode work dominates — so concurrent
// evaluations are not stalled by a scrub. A Put may therefore replace a
// failing record mid-scrub; only a key whose current record is still the
// payload verified here is quarantined or reported.
func (s *Store) Scrub() ScrubReport {
	entries := s.jnl.Entries()
	var rep ScrubReport
	bad := make(map[string]Problem)
	verified := make(map[string][]byte) // the failing payloads, by key
	for _, e := range entries {
		rep.Checked++
		if p, ok := verifyRecord(e.Key, e.Payload); !ok {
			bad[e.Key] = p
			verified[e.Key] = e.Payload
		}
	}

	s.mu.Lock()
	for key := range bad {
		if cur, ok := s.jnl.Get(key); !ok || !bytes.Equal(cur, verified[key]) {
			delete(bad, key)
		}
	}
	for key := range s.quarantine {
		if _, still := bad[key]; !still {
			delete(s.quarantine, key)
			rep.Healed++
		}
	}
	for key, p := range bad {
		if !s.quarantine[key] {
			s.quarantineKey(key)
			rep.Quarantined++
		}
		rep.Problems = append(rep.Problems, p)
	}
	sort.Slice(rep.Problems, func(i, j int) bool { return rep.Problems[i].Key < rep.Problems[j].Key })
	rep.Bad = len(s.quarantine)
	s.scrubRuns++
	s.lastScrub = rep
	s.mu.Unlock()
	return rep
}

// ScrubStats returns how many scrub passes have run on this handle and
// the last pass's report (zero value if none have).
func (s *Store) ScrubStats() (runs int, last ScrubReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scrubRuns, s.lastScrub
}

// Quarantined returns the currently quarantined keys, sorted.
func (s *Store) Quarantined() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.quarantine))
	for k := range s.quarantine {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
