package sim

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"skope/internal/guard"
	"skope/internal/hw"
	"skope/internal/interp"
	"skope/internal/minilang"
)

// BlockCost accumulates the simulated cost of one source block.
type BlockCost struct {
	// ID is the block identity ("<func>/L<line>" etc.), matching the
	// analytical model's block IDs for segments.
	ID string
	// Cycles is the attributed cycle count.
	Cycles float64
	// Insts counts dynamic instructions (ops + accesses + lib-expanded).
	Insts uint64
	// L1Miss and LLCMiss count cache misses attributed to the block.
	L1Miss, LLCMiss uint64
}

// Seconds converts the block's cycles to seconds on machine m.
func (b *BlockCost) Seconds(m *hw.Machine) float64 { return m.CyclesToSeconds(b.Cycles) }

// IssueRate returns dynamic instructions per cycle — the Figure 8 metric.
func (b *BlockCost) IssueRate() float64 {
	if b.Cycles == 0 {
		return 0
	}
	return float64(b.Insts) / b.Cycles
}

// InstsPerL1Miss returns dynamic instructions per L1 miss (Fig. 8's
// computation-intensity proxy); +Inf when the block never missed.
func (b *BlockCost) InstsPerL1Miss() float64 {
	if b.L1Miss == 0 {
		return float64(b.Insts) // effectively unbounded; report insts
	}
	return float64(b.Insts) / float64(b.L1Miss)
}

// Result is a completed simulation: the measured profile of one workload on
// one machine.
type Result struct {
	Machine *hw.Machine
	// Blocks is sorted by cycles, descending.
	Blocks []*BlockCost
	// TotalCycles and TotalSeconds cover the whole run.
	TotalCycles  float64
	TotalSeconds float64
	// L1, LLC expose the final cache statistics.
	L1, LLC *Cache
	// Steps is the interpreter statement count.
	Steps int64
}

// Coverage returns the fraction of total time spent in block b.
func (r *Result) Coverage(b *BlockCost) float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return b.Cycles / r.TotalCycles
}

// TopN returns the first n blocks by measured time.
func (r *Result) TopN(n int) []*BlockCost {
	if n > len(r.Blocks) {
		n = len(r.Blocks)
	}
	return r.Blocks[:n]
}

// String summarizes the result for debugging.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sim on %s: %.4g s, L1 hit %.3f, LLC hit %.3f\n",
		r.Machine.Name, r.TotalSeconds, r.L1.HitRate(), r.LLC.HitRate())
	for i, b := range r.TopN(10) {
		fmt.Fprintf(&sb, "%2d. %-28s %6.2f%%  ipc=%.2f\n", i+1, b.ID, 100*r.Coverage(b), b.IssueRate())
	}
	return sb.String()
}

// libCost is the simulated expansion of a library call: a cycle cost and a
// dynamic instruction count (both machine-scaled at table construction).
type libCost struct {
	cycles float64
	insts  uint64
}

// machine-relative library call costs, in cycles on a 1-issue baseline.
// BG/Q's in-order A2 core pays relatively more (the paper's SRAD exp/rand
// spots); the per-machine divisor is IssueWidth.
var baseLibCost = map[string]libCost{
	"exp": {70, 30}, "log": {85, 35}, "sqrt": {40, 12}, "sin": {95, 40},
	"cos": {95, 40}, "pow": {140, 55}, "rand": {28, 14}, "abs": {2, 2},
	"floor": {3, 2}, "min": {2, 2}, "max": {2, 2}, "mod": {12, 6},
}

// machineSim is the interp.Observer implementing the timing model.
type machineSim struct {
	m   *hw.Machine
	l1  *Cache
	llc *Cache

	blocks map[string]*BlockCost
	cur    *BlockCost

	// lastOutcome tracks per-site branch history for the 1-bit predictor.
	lastOutcome map[string]bool
}

const mispredictPenalty = 12.0

func newMachineSim(m *hw.Machine) *machineSim {
	return &machineSim{
		m:           m,
		l1:          NewCache(m.L1SizeB, m.L1LineB, m.L1Assoc),
		llc:         NewCache(m.LLCSizeB, m.LLCLineB, m.LLCAssoc),
		blocks:      make(map[string]*BlockCost),
		lastOutcome: make(map[string]bool),
	}
}

func (s *machineSim) block(id string) *BlockCost {
	b := s.blocks[id]
	if b == nil {
		b = &BlockCost{ID: id}
		s.blocks[id] = b
	}
	return b
}

func (s *machineSim) charge(cycles float64, insts uint64) {
	s.cur.Cycles += cycles
	s.cur.Insts += insts
}

// EnterBlock implements interp.Observer.
func (s *machineSim) EnterBlock(id string) { s.cur = s.block(id) }

// vectorized reports whether this machine's compiler vectorizes the given
// context: annotated loops always, clean loops only with an aggressive
// auto-vectorizer.
func (s *machineSim) vectorized(vec interp.VecLevel) bool {
	if s.m.VectorWidth <= 1 {
		return false
	}
	switch vec {
	case interp.VecAnnotated:
		return true
	case interp.VecAuto:
		return s.m.AutoVectorize
	}
	return false
}

// Op implements interp.Observer.
func (s *machineSim) Op(class interp.OpClass, vec interp.VecLevel) {
	v := s.vectorized(vec)
	switch class {
	case interp.OpFloat:
		c := 1 / s.m.FPOpsPerCycle
		if v {
			c /= float64(s.m.VectorWidth)
		}
		s.charge(c, 1)
	case interp.OpFloatDiv:
		// Divisions are unpipelined and do not vectorize profitably.
		s.charge(float64(s.m.DivLatencyCyc), 1)
	case interp.OpInt:
		c := 1 / s.m.IntOpsPerCycle
		if v {
			c /= float64(s.m.VectorWidth)
		}
		s.charge(c, 1)
	}
}

// Access implements interp.Observer: probe the hierarchy and charge the
// concurrency-amortized latency of the level that served the access.
func (s *machineSim) Access(addr uint64, size int, store bool) {
	var cycles float64
	if s.l1.Access(addr) {
		// L1 hits are pipelined: throughput-limited, not latency-limited.
		cycles = 1 / float64(s.m.IssueWidth)
	} else {
		s.cur.L1Miss++
		if s.llc.Access(addr) {
			cycles = float64(s.m.LLCLatencyCyc) / s.m.MemConcurrency
		} else {
			s.cur.LLCMiss++
			cycles = float64(s.m.MemLatencyCyc) / s.m.MemConcurrency
		}
		if s.m.Prefetch {
			// Next-line prefetch rides the same transaction: fill the
			// following line into both levels without charging cycles or
			// demand-miss statistics.
			next := addr + uint64(s.m.L1LineB)
			s.l1.Fill(next)
			s.llc.Fill(next)
		}
	}
	s.charge(cycles, 1)
}

// LibCall implements interp.Observer. Library time is attributed to a
// dedicated "<block>:<func>" sub-block, mirroring the skeleton translator's
// lib statements, so library functions can surface as hot spots in their
// own right (the paper's SRAD exp/rand spots).
func (s *machineSim) LibCall(name string, vec interp.VecLevel) {
	lc, ok := baseLibCost[name]
	if !ok {
		lc = libCost{50, 20}
	}
	cycles := lc.cycles / float64(s.m.IssueWidth)
	if s.vectorized(vec) {
		// Vectorized math libraries exist but amortize poorly; credit half
		// the SIMD width.
		cycles /= float64(s.m.VectorWidth) / 2
	}
	b := s.block(s.cur.ID + ":" + name)
	b.Cycles += cycles
	b.Insts += lc.insts
}

// Comm implements interp.Observer: charge the machine's interconnect model
// (per-message latency plus serialization) to the current comm block.
func (s *machineSim) Comm(bytes, msgs float64) {
	seconds := s.m.CommTime(bytes, msgs)
	cycles := seconds * s.m.FreqGHz * 1e9
	s.charge(cycles, 2)
}

// Branch implements interp.Observer: 1-bit dynamic prediction with a fixed
// mispredict penalty.
func (s *machineSim) Branch(site string, taken bool) {
	s.charge(1/float64(s.m.IssueWidth), 1)
	if last, seen := s.lastOutcome[site]; seen && last != taken {
		s.charge(mispredictPenalty, 0)
	}
	s.lastOutcome[site] = taken
}

// LoopTrips implements interp.Observer (no cost; trip bookkeeping is charged
// per-iteration by the engine's explicit loop ops).
func (s *machineSim) LoopTrips(string, int64) {}

// Options configure a simulation run.
type Options struct {
	// Seed seeds the workload's rand() stream.
	Seed uint64
	// MaxSteps bounds execution (see interp.Options).
	MaxSteps int64
}

// Run executes the program on machine m and returns the measured profile.
// ctx bounds the run: cancellation or a deadline stops the interpreter at
// statement granularity. A panic anywhere in the timing model is recovered
// and returned as an error wrapping guard.ErrPanic, so a poisoned machine
// description cannot take down a sweep.
func Run(ctx context.Context, prog *minilang.Program, m *hw.Machine, opts *Options) (res *Result, err error) {
	defer guard.Recover(&err, "sim: %s on %s", prog.Source, m.Name)
	guard.Hit("sim.run", m.Name)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ms := newMachineSim(m)
	// Attribute any pre-block work (globals init) to a synthetic block.
	ms.cur = ms.block("_startup")
	var iopts interp.Options
	if opts != nil {
		iopts.Seed = opts.Seed
		iopts.MaxSteps = opts.MaxSteps
	}
	iopts.Observer = ms
	iopts.Ctx = ctx
	eng, err := interp.New(prog, &iopts)
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	res = &Result{
		Machine: m,
		L1:      ms.l1,
		LLC:     ms.llc,
		Steps:   eng.Steps(),
	}
	for _, b := range ms.blocks {
		if b.Cycles == 0 && b.Insts == 0 {
			continue
		}
		res.Blocks = append(res.Blocks, b)
		res.TotalCycles += b.Cycles
	}
	sort.SliceStable(res.Blocks, func(i, j int) bool {
		if res.Blocks[i].Cycles != res.Blocks[j].Cycles {
			return res.Blocks[i].Cycles > res.Blocks[j].Cycles
		}
		return res.Blocks[i].ID < res.Blocks[j].ID
	})
	res.TotalSeconds = m.CyclesToSeconds(res.TotalCycles)
	return res, nil
}
