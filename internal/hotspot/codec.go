// Canonical serialization of an Analysis — the value format of the
// content-addressed result store.
//
// Two properties define "canonical" here:
//
//   - exactness: every float travels as its IEEE-754 bit pattern, so a
//     decoded analysis reproduces the original to the bit (times,
//     confidence, workloads — nothing is re-derived or re-rounded);
//   - determinism: encoding the same analysis always yields the same
//     bytes (struct field order is fixed, blocks are written in the
//     analysis's sorted order), so encode(decode(encode(a))) ==
//     encode(a) and stored bytes can be compared for identity.
//
// What is deliberately not serialized: the BET and the per-block Node
// lists, which are in-memory pointers into the prepared workload. A
// decoded analysis therefore supports selection, ranking, coverage and
// reporting, but not hot-path extraction — callers that hold the matching
// Layout can re-link the tree with Layout.Graft.
package hotspot

import (
	"encoding/json"
	"fmt"
	"math"

	"skope/internal/guard"
	"skope/internal/hw"
)

// codecVersion guards the wire format; bump on any incompatible change.
const codecVersion = 1

// wireWork is hw.BlockWork with floats as bit patterns.
type wireWork struct {
	FLOPs  uint64 `json:"fl"`
	IOPs   uint64 `json:"io"`
	Loads  uint64 `json:"ld"`
	Stores uint64 `json:"st"`
	DSizeB uint64 `json:"ds"`
	Divs   uint64 `json:"dv"`
	Vec    uint64 `json:"vc"`
}

func workToWire(w hw.BlockWork) wireWork {
	f := math.Float64bits
	return wireWork{
		FLOPs: f(w.FLOPs), IOPs: f(w.IOPs), Loads: f(w.Loads), Stores: f(w.Stores),
		DSizeB: f(w.DSizeB), Divs: f(w.Divs), Vec: f(w.Vec),
	}
}

func workFromWire(w wireWork) hw.BlockWork {
	f := math.Float64frombits
	return hw.BlockWork{
		FLOPs: f(w.FLOPs), IOPs: f(w.IOPs), Loads: f(w.Loads), Stores: f(w.Stores),
		DSizeB: f(w.DSizeB), Divs: f(w.Divs), Vec: f(w.Vec),
	}
}

// wireBlock is one Block without its Node pointers.
type wireBlock struct {
	ID          string   `json:"id"`
	Label       string   `json:"label"`
	Func        string   `json:"func"`
	Line        int      `json:"line"`
	Lib         bool     `json:"lib,omitempty"`
	Comm        bool     `json:"comm,omitempty"`
	CommBytes   uint64   `json:"cbytes,omitempty"`
	Invocations uint64   `json:"inv"`
	Work        wireWork `json:"work"`
	Tc          uint64   `json:"tc"`
	Tm          uint64   `json:"tm"`
	To          uint64   `json:"to"`
	T           uint64   `json:"t"`
	MemoryBound bool     `json:"mb,omitempty"`
	StaticInsts int      `json:"insts"`
}

// wireDiag is one guard.Diagnostic.
type wireDiag struct {
	Severity int    `json:"sev,omitempty"`
	Stage    string `json:"stage"`
	Code     string `json:"code"`
	BlockID  string `json:"block,omitempty"`
	Message  string `json:"msg"`
}

// wireAnalysis is the versioned envelope.
type wireAnalysis struct {
	Version     int            `json:"v"`
	Machine     hw.WireMachine `json:"machine"`
	Blocks      []wireBlock    `json:"blocks"`
	TotalTime   uint64         `json:"total"`
	TotalInsts  int            `json:"insts"`
	Confidence  uint64         `json:"conf"`
	Diagnostics []wireDiag     `json:"diags,omitempty"`
}

// EncodeAnalysis serializes the analysis canonically (see the file
// comment). The BET and per-block Nodes are not part of the encoding.
func EncodeAnalysis(a *Analysis) ([]byte, error) {
	w := wireAnalysis{
		Version:    codecVersion,
		Machine:    a.Machine.Wire(),
		Blocks:     make([]wireBlock, len(a.Blocks)),
		TotalTime:  math.Float64bits(a.TotalTime),
		TotalInsts: a.TotalStaticInsts,
		Confidence: math.Float64bits(a.Confidence),
	}
	f := math.Float64bits
	for i, b := range a.Blocks {
		w.Blocks[i] = wireBlock{
			ID: b.BlockID, Label: b.Label, Func: b.FuncName, Line: b.Line,
			Lib: b.IsLib, Comm: b.IsComm, CommBytes: f(b.CommBytes),
			Invocations: f(b.Invocations), Work: workToWire(b.Work),
			Tc: f(b.Tc), Tm: f(b.Tm), To: f(b.To), T: f(b.T),
			MemoryBound: b.MemoryBound, StaticInsts: b.StaticInsts,
		}
	}
	for _, d := range a.Diagnostics {
		w.Diagnostics = append(w.Diagnostics, wireDiag{
			Severity: int(d.Severity), Stage: d.Stage, Code: d.Code,
			BlockID: d.BlockID, Message: d.Message,
		})
	}
	data, err := json.Marshal(w)
	if err != nil {
		return nil, fmt.Errorf("hotspot: encode analysis on %s: %w", a.Machine.Name, err)
	}
	return data, nil
}

// DecodeAnalysis reconstructs an Analysis from EncodeAnalysis bytes. Every
// scalar is bit-identical to the encoded original; BET and per-block Nodes
// come back nil (see Layout.Graft).
func DecodeAnalysis(data []byte) (*Analysis, error) {
	var w wireAnalysis
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("hotspot: decode analysis: %w", err)
	}
	if w.Version != codecVersion {
		return nil, fmt.Errorf("hotspot: decode analysis: wire version %d (want %d)", w.Version, codecVersion)
	}
	f := math.Float64frombits
	a := &Analysis{
		Machine:          w.Machine.Machine(),
		Blocks:           make([]*Block, len(w.Blocks)),
		TotalTime:        f(w.TotalTime),
		TotalStaticInsts: w.TotalInsts,
		Confidence:       f(w.Confidence),
	}
	// Each decoded block owns its BlockInfo, so the analysis stays
	// self-contained and Graft writes to no layout's shared infos.
	infos := make([]BlockInfo, len(w.Blocks))
	backing := make([]Block, len(w.Blocks))
	for i, wb := range w.Blocks {
		infos[i] = BlockInfo{
			BlockID: wb.ID, Label: wb.Label, FuncName: wb.Func, Line: wb.Line,
			IsLib: wb.Lib, IsComm: wb.Comm, CommBytes: f(wb.CommBytes),
			Invocations: f(wb.Invocations), Work: workFromWire(wb.Work),
			StaticInsts: wb.StaticInsts,
		}
		backing[i] = Block{
			BlockInfo: &infos[i], MemoryBound: wb.MemoryBound,
			Tc: f(wb.Tc), Tm: f(wb.Tm), To: f(wb.To), T: f(wb.T),
		}
		a.Blocks[i] = &backing[i]
	}
	for _, d := range w.Diagnostics {
		a.Diagnostics = append(a.Diagnostics, guard.Diagnostic{
			Severity: guard.Severity(d.Severity), Stage: d.Stage, Code: d.Code,
			BlockID: d.BlockID, Message: d.Message,
		})
	}
	return a, nil
}

// Graft re-links a decoded analysis to the in-memory model it was
// originally computed from: the layout's BET and the per-block Node lists,
// which the canonical encoding deliberately drops. Every other field stays
// the decoded record's. After a successful graft the analysis supports
// hot-path extraction again. It fails if any analysis block is unknown to
// the layout — the symptom of grafting onto a different workload, which
// callers should treat as a cache miss.
func (l *Layout) Graft(a *Analysis) error {
	for _, b := range a.Blocks {
		lb, ok := l.byID[b.BlockID]
		if !ok {
			return fmt.Errorf("hotspot: graft: block %s not in layout (analysis from a different workload?)", b.BlockID)
		}
		b.Nodes = lb.info.Nodes
	}
	return nil
}
