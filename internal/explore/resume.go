package explore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/journal"
)

// This file is the engine's durability glue: how completed variants are
// serialized into the sweep journal and replayed out of it.
//
// A journal record stores the variant's per-block times (the exact
// hotspot.BlockTimes the evaluation assembled its analysis from) rather
// than the assembled analysis itself. Replay re-runs Assemble over the
// journaled times — the same deterministic code path a cache hit takes —
// so a resumed sweep is bit-identical to an uninterrupted one by
// construction, and the record stays small. Floats travel as IEEE-754 bit
// patterns (math.Float64bits), never as decimal text, so round-tripping
// cannot perturb a single ulp.

// MetaLayoutKey is the journal meta key that binds a sweep journal to the
// layout fingerprint of the workload that wrote it. Exported for tools
// that handle sweep journals without an engine — the shard coordinator
// merges worker journals under the same binding, so a merged journal is
// directly resumable through the Journal option.
const MetaLayoutKey = "layout"

// ErrJournalDegraded marks a sweep whose analyses are all intact but
// whose journal stopped accepting writes mid-run: results are complete,
// crash-resume coverage is partial. Callers that treat durability as
// best-effort can errors.Is for this and downgrade to a warning.
var ErrJournalDegraded = errors.New("sweep journal degraded")

// replayEntry is one decoded journal record.
type replayEntry struct {
	comp, comm []hotspot.BlockTimes
	// conf is the confidence score the original run assembled with, nil
	// for records written before confidence tracking existed.
	conf *float64
}

// recTimes is the wire form of one hotspot.BlockTimes.
type recTimes struct {
	Tc uint64 `json:"tc"`
	Tm uint64 `json:"tm"`
	To uint64 `json:"to"`
	T  uint64 `json:"t"`
	MB bool   `json:"mb,omitempty"`
}

// sweepRecord is the wire form of one completed variant. Conf carries the
// assembled analysis's confidence score as IEEE-754 bits; it is a pointer
// so records written before confidence tracking decode to nil (replay then
// keeps the recomputed score) instead of a spurious 0.
type sweepRecord struct {
	Machine string     `json:"machine"`
	Comp    []recTimes `json:"comp"`
	Comm    []recTimes `json:"comm"`
	Conf    *uint64    `json:"conf,omitempty"`
}

func encodeTimes(in []hotspot.BlockTimes) []recTimes {
	out := make([]recTimes, len(in))
	for i, bt := range in {
		out[i] = recTimes{
			Tc: math.Float64bits(bt.Tc), Tm: math.Float64bits(bt.Tm),
			To: math.Float64bits(bt.To), T: math.Float64bits(bt.T),
			MB: bt.MemoryBound,
		}
	}
	return out
}

func decodeTimes(in []recTimes) []hotspot.BlockTimes {
	out := make([]hotspot.BlockTimes, len(in))
	for i, rt := range in {
		out[i] = hotspot.BlockTimes{
			Tc: math.Float64frombits(rt.Tc), Tm: math.Float64frombits(rt.Tm),
			To: math.Float64frombits(rt.To), T: math.Float64frombits(rt.T),
			MemoryBound: rt.MB,
		}
	}
	return out
}

// bindJournal validates the journal against the layout and decodes its
// records into the replay map: a fresh journal is bound to this engine's
// layout fingerprint; a recovered one must match it (journal.ErrMetaMismatch
// otherwise — the workload, profile, or translation changed since the
// journal was written).
func (e *Engine) bindJournal(j *journal.Journal) error {
	if err := j.SetMeta(map[string]string{MetaLayoutKey: e.layout.Fingerprint()}); err != nil {
		return fmt.Errorf("explore: journal not resumable for this workload: %w", err)
	}
	replay := make(map[string]replayEntry)
	for _, rc := range j.Entries() {
		var rec sweepRecord
		if err := json.Unmarshal(rc.Payload, &rec); err != nil {
			return fmt.Errorf("explore: journal record %s: %w", rc.Key, err)
		}
		if len(rec.Comp) != e.layout.NumComp() || len(rec.Comm) != e.layout.NumComm() {
			return fmt.Errorf("explore: journal record %s: %d comp / %d comm blocks, layout has %d / %d",
				rc.Key, len(rec.Comp), len(rec.Comm), e.layout.NumComp(), e.layout.NumComm())
		}
		entry := replayEntry{comp: decodeTimes(rec.Comp), comm: decodeTimes(rec.Comm)}
		if rec.Conf != nil {
			c := math.Float64frombits(*rec.Conf)
			entry.conf = &c
		}
		replay[rc.Key] = entry
	}
	e.jnl = j
	e.replay = replay
	return nil
}

// replayEntry looks up the variant in the attached journal's records.
func (e *Engine) replayEntry(m *hw.Machine) (replayEntry, bool) {
	if len(e.replay) == 0 {
		return replayEntry{}, false
	}
	entry, ok := e.replay[m.Fingerprint()]
	return entry, ok
}

// journalAppend durably records one freshly completed variant. A write
// failure does not fail the variant — the analysis is already computed —
// but it disables further journaling and surfaces once from the sweep's
// wait error so the operator knows resume coverage is partial.
func (e *Engine) journalAppend(m *hw.Machine, comp, comm []hotspot.BlockTimes, conf float64) {
	if e.jnl == nil {
		return
	}
	e.mu.Lock()
	broken := e.jnlErr != nil
	e.mu.Unlock()
	if broken {
		return
	}
	cbits := math.Float64bits(conf)
	payload, err := json.Marshal(sweepRecord{Machine: m.Name, Comp: encodeTimes(comp), Comm: encodeTimes(comm), Conf: &cbits})
	if err == nil {
		err = e.jnl.Append(m.Fingerprint(), payload)
	}
	if err != nil {
		e.mu.Lock()
		if e.jnlErr == nil {
			e.jnlErr = fmt.Errorf("explore: %w: journaling disabled after write failure (sweep continues, resume coverage partial): %w",
				ErrJournalDegraded, err)
		}
		e.mu.Unlock()
	}
}

// journalError returns the sticky journal write failure, if any.
func (e *Engine) journalError() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.jnlErr
}
