// Package hotspot implements the paper's hot-region analysis (§V): per-block
// performance estimation over the Bayesian Execution Tree with the extended
// roofline model, and hot-spot identification under the time-coverage /
// code-leanness criteria.
package hotspot

import (
	"context"
	"fmt"

	"skope/internal/core"
	"skope/internal/guard"
	"skope/internal/hw"
)

// LibModeler supplies semi-analytical performance characterizations of
// opaque library functions (§IV-C): the average dynamic instruction mix of
// one invocation, obtained by profiling on a local machine.
type LibModeler interface {
	// LibWork returns the per-invocation workload of the named library
	// function. It returns an error for unknown functions.
	LibWork(name string) (hw.BlockWork, error)
}

// BlockInfo is the machine-independent half of a Block: what the source
// block is and how much work it does over the whole modeled execution.
// The analyses a Layout assembles all share the layout's BlockInfo for a
// block, so it must not be written through after NewLayout; a decoded
// analysis carries BlockInfos of its own.
type BlockInfo struct {
	// BlockID is "<func>/<label>", stable across model and measurement.
	BlockID string
	// Label and FuncName identify the block for reporting.
	Label, FuncName string
	// Line is the skeleton source line.
	Line int
	// IsLib marks semi-analytically modeled library call sites.
	IsLib bool
	// IsComm marks communication phases (multi-node extension); their
	// time comes from the machine's network parameters, not the roofline.
	IsComm bool
	// CommBytes is the total communicated volume for comm blocks.
	CommBytes float64

	// Invocations is the total expected number of executions (sum of ENR).
	Invocations float64
	// Work is the total workload over all invocations.
	Work hw.BlockWork
	// StaticInsts is the static instruction footprint (leanness unit).
	StaticInsts int

	// Nodes are the BET nodes that contributed, for hot-path extraction.
	Nodes []*core.Node
}

// Block aggregates the projected cost of one source code block (identified
// by BlockID) over the whole modeled execution, possibly spanning several
// BET nodes (different contexts or call sites): the shared BlockInfo plus
// the times projected on one machine.
type Block struct {
	*BlockInfo
	// Tc, Tm, To, T are the aggregate projected times in seconds
	// (per-invocation roofline estimate scaled by ENR, summed over nodes).
	Tc, Tm, To, T float64
	// MemoryBound is the roofline verdict for the block's dominant node.
	MemoryBound bool
}

// Analysis is the per-block performance projection of one workload on one
// machine.
type Analysis struct {
	// Machine is the projected target.
	Machine *hw.Machine
	// Blocks is sorted by projected time, descending.
	Blocks []*Block
	// TotalTime is the projected total over all blocks, seconds.
	TotalTime float64
	// TotalStaticInsts is the program's static instruction footprint.
	TotalStaticInsts int
	// Diagnostics records numeric-hygiene findings (non-finite projected
	// times and the like) plus every prior substitution a lenient model
	// build papered over. Empty on a clean projection; sorted by stage,
	// code, block.
	Diagnostics []guard.Diagnostic
	// Confidence is the measured-vs-assumed coverage of the projection:
	// the BET's confidence score further reduced by the fraction of
	// blocks with non-finite projected times. Exactly 1.0 for a strict
	// build on sane machine parameters.
	Confidence float64
}

// Analyze characterizes every comp and lib block of the BET with the given
// roofline model, following §V-A: per-invocation estimate times ENR,
// aggregated per source block. It is NewLayout followed by Layout.Analyze;
// callers that project the same BET onto many machines should build the
// Layout once and call Layout.Analyze per machine, as the exploration
// engine does.
//
// The machine behind the model is validated first, so degenerate variants
// (zero bandwidth, negative latencies) fail with a descriptive error before
// any roofline arithmetic can produce NaN rankings. ctx bounds the work:
// cancellation is honored between the layout and projection stages.
func Analyze(ctx context.Context, bet *core.BET, model *hw.Model, libs LibModeler) (*Analysis, error) {
	m := model.Machine()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("hotspot: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("hotspot: analyze on %s: %w", m.Name, err)
	}
	l, err := NewLayout(bet, libs)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("hotspot: analyze on %s: %w", m.Name, err)
	}
	return l.Analyze(model), nil
}

// Coverage returns the fraction of total projected time spent in block b.
func (a *Analysis) Coverage(b *Block) float64 {
	if a.TotalTime == 0 {
		return 0
	}
	return b.T / a.TotalTime
}

// TopN returns the first n blocks by projected time (all if fewer).
func (a *Analysis) TopN(n int) []*Block {
	if n > len(a.Blocks) {
		n = len(a.Blocks)
	}
	return a.Blocks[:n]
}
