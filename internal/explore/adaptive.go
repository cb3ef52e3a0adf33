package explore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"skope/internal/hw"
)

// This file is the surrogate-guided acquisition loop's bookkeeping:
// instead of evaluating a grid exhaustively, an adaptive search evaluates
// a small deterministic seed sample, fits the Surrogate, and then spends
// each round's evaluations only on the unevaluated variants the surrogate
// ranks most promising (predicted objective minus an exploration bonus
// for under-sampled regions), stopping once the incumbent optimum has
// survived a configured number of rounds unimproved.
//
// The AdaptivePlanner is pure bookkeeping — which grid indices to
// evaluate next, what has been observed, when to stop — with no engine,
// journal, or store dependency. Its driver is pipeline.SweepAdaptive,
// which evaluates each round's batch through Engine.Stream, so
// journaling, CAS store hits, retries, breakers, and MinConfidence all
// compose with adaptive search unchanged. Exact (exhaustive) mode remains
// the golden reference; adaptive mode trades completeness for
// evaluations and is asserted against it in the parity tests.

// AdaptiveOptions configures the acquisition loop. The zero value asks
// for an uncapped search with seed 0.
type AdaptiveOptions struct {
	// Seed keys the deterministic seed subsample: the first round
	// evaluates the seed-sample variants whose sha256(seed || machine
	// fingerprint) digests sort lowest. Changing the seed changes which
	// variants bootstrap the surrogate; a fixed seed makes the whole
	// adaptive run — round trace included — deterministic.
	Seed uint64
	// MaxEvals caps the total evaluations spent (seed sample included).
	// 0 means no cap beyond the grid itself. The cap is a hard budget:
	// rounds shrink to fit and the search stops when it is exhausted.
	MaxEvals int
	// OnRound, if set, receives each round's trace as it completes.
	OnRound func(RoundTrace)
}

// The search's fixed tuning.
const (
	// roundFraction is the fraction of the grid evaluated per acquisition
	// round (the "top quantile"), at least one variant.
	roundFraction = 0.01
	// minRounds is the minimum number of rounds (seed round included)
	// before convergence can be declared.
	minRounds = 3
	// patience is how many consecutive rounds the incumbent must survive
	// unimproved before the search stops.
	patience = 2
	// exploreWeight scales the exploration bonus: a candidate's score is
	// its predicted objective minus exploreWeight·sd(y)·(normalized
	// distance to the nearest evaluated variant), so under-sampled regions
	// get evaluated even when the surrogate ranks them mid-pack.
	exploreWeight = 0.3
)

// seedSize is the size of the bootstrap sample over dims axes:
// max(8, 2·dims+3), enough samples that the ridge fit over 2·dims
// features starts from a determined-ish system.
func seedSize(dims int) int {
	return max(8, 2*dims+3)
}

// withDefaults clamps a negative evaluation cap to none.
func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	if o.MaxEvals < 0 {
		o.MaxEvals = 0
	}
	return o
}

// RoundTrace is one completed acquisition round, delivered to
// AdaptiveOptions.OnRound (skope prints it, skoped streams it as NDJSON)
// and recorded on the AdaptiveResult.
type RoundTrace struct {
	// Round numbers rounds from 1 (the seed round).
	Round int `json:"round"`
	// Evals is the number of evaluations issued this round; TotalEvals
	// the cumulative spend; GridSize the full grid for comparison.
	Evals      int `json:"evals"`
	TotalEvals int `json:"total_evals"`
	GridSize   int `json:"grid_size"`
	// Incumbent is the grid index of the best variant seen so far (-1
	// before any variant succeeds), IncumbentFP its machine fingerprint,
	// IncumbentTime its projected total time.
	Incumbent     int     `json:"incumbent"`
	IncumbentFP   string  `json:"incumbent_fp,omitempty"`
	IncumbentTime float64 `json:"incumbent_time"`
	// R2 is the surrogate's training-set weighted R² after this round's
	// fit — how much of the observed objective variance the model
	// explains (can be negative while the fit is worse than the mean).
	R2 float64 `json:"r2"`
	// Converged marks the round at which the incumbent met the patience
	// criterion; the search stops after a converged round.
	Converged bool `json:"converged"`
}

// AdaptivePlanner is the engine-independent core of adaptive search: it
// owns the grid bookkeeping (which indices have been issued and observed),
// the surrogate, the incumbent, and the stopping rule. Drivers alternate
// NextRound (get a batch of grid indices to evaluate), Observe /
// ObserveFailure (report each batch member), and EndRound (fit + trace),
// then read the outcome from Result. It is not safe for concurrent use;
// drivers serialize rounds.
type AdaptivePlanner struct {
	opt      AdaptiveOptions
	seedSize int
	variants []*hw.Machine
	feats    [][]float64 // per-variant raw axis values
	norm     [][]float64 // per-variant range-normalized axis coords
	sur      *Surrogate

	issued    []bool // handed out by NextRound (or directly observed)
	spent     int    // number of issued indices
	lastBatch int    // size of the most recent round's batch
	round     int    // completed-or-started round count

	bestIdx   int
	bestTime  float64
	hasBest   bool
	roundBest float64 // incumbent time at the start of the current round
	roundHad  bool
	stale     int
	done      bool
	converged bool
	traces    []RoundTrace
}

// NewAdaptivePlanner builds a planner over a materialized grid. variants
// must be exactly Grid{Base, Axes: axes}.Variants() — odometer order, last
// axis fastest — because each variant's axis values are recovered from its
// grid index, not from the machine struct.
func NewAdaptivePlanner(variants []*hw.Machine, axes []Axis, opt AdaptiveOptions) (*AdaptivePlanner, error) {
	size := 1
	for _, ax := range axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("explore: adaptive axis %s has no values", ax.Param)
		}
		size *= len(ax.Values)
	}
	if size != len(variants) {
		return nil, fmt.Errorf("explore: adaptive planner got %d variants but the axes span %d grid points (variants must be Grid.Variants output)",
			len(variants), size)
	}

	dims := len(axes)
	strides := make([]int, dims)
	s := 1
	for i := dims - 1; i >= 0; i-- {
		strides[i] = s
		s *= len(axes[i].Values)
	}
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for i, ax := range axes {
		lo[i], hi[i] = ax.Values[0], ax.Values[0]
		for _, v := range ax.Values {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	p := &AdaptivePlanner{
		opt:      opt.withDefaults(),
		seedSize: seedSize(dims),
		variants: variants,
		feats:    make([][]float64, len(variants)),
		norm:     make([][]float64, len(variants)),
		sur:      NewSurrogate(dims),
		issued:   make([]bool, len(variants)),
		bestIdx:  -1,
	}
	for g := range variants {
		f := make([]float64, dims)
		nm := make([]float64, dims)
		for i := 0; i < dims; i++ {
			v := axes[i].Values[(g/strides[i])%len(axes[i].Values)]
			f[i] = v
			if hi[i] > lo[i] {
				nm[i] = (v - lo[i]) / (hi[i] - lo[i])
			}
		}
		p.feats[g] = f
		p.norm[g] = nm
	}
	return p, nil
}

// Result returns the search's outcome so far: the evaluation spend, the
// round trace and whether the search converged.
func (p *AdaptivePlanner) Result() *AdaptiveResult {
	return &AdaptiveResult{Evals: p.spent, GridSize: len(p.variants), Rounds: p.traces, Converged: p.converged}
}

// budget returns the remaining evaluation budget (-1 for unlimited).
func (p *AdaptivePlanner) budget() int {
	if p.opt.MaxEvals <= 0 {
		return -1
	}
	b := p.opt.MaxEvals - p.spent
	if b < 0 {
		b = 0
	}
	return b
}

// NextRound returns the grid indices to evaluate next, in ascending
// order, or nil when the search is over (converged, budget exhausted, or
// grid exhausted). Round 1 is the deterministic fingerprint-keyed seed
// sample; later rounds are the surrogate's top-ranked unevaluated
// candidates. Indices are never handed out twice.
func (p *AdaptivePlanner) NextRound() []int {
	if p.done {
		return nil
	}
	budget := p.budget()
	if budget == 0 {
		p.done = true
		return nil
	}
	var batch []int
	if p.round == 0 {
		batch = p.seedBatch(budget)
	} else {
		batch = p.rankedBatch(budget)
	}
	if len(batch) == 0 {
		p.done = true
		return nil
	}
	for _, g := range batch {
		p.issued[g] = true
	}
	p.spent += len(batch)
	p.lastBatch = len(batch)
	p.round++
	p.roundBest, p.roundHad = p.bestTime, p.hasBest
	return batch
}

// seedBatch picks the bootstrap sample: the seedSize variants whose
// sha256(seed || fingerprint) digests sort lowest — a deterministic,
// well-scattered subsample keyed only on stable identities, so the same
// seed re-picks the same variants across processes and resumes.
func (p *AdaptivePlanner) seedBatch(budget int) []int {
	n := p.seedSize
	if budget >= 0 && n > budget {
		n = budget
	}
	var seed8 [8]byte
	binary.BigEndian.PutUint64(seed8[:], p.opt.Seed)
	type keyed struct {
		digest [sha256.Size]byte
		idx    int
	}
	ks := make([]keyed, 0, len(p.variants))
	for i, m := range p.variants {
		if p.issued[i] {
			continue
		}
		h := sha256.New()
		h.Write(seed8[:])
		h.Write([]byte(m.Fingerprint()))
		k := keyed{idx: i}
		h.Sum(k.digest[:0])
		ks = append(ks, k)
	}
	sort.Slice(ks, func(a, b int) bool {
		if c := bytes.Compare(ks[a].digest[:], ks[b].digest[:]); c != 0 {
			return c < 0
		}
		return ks[a].idx < ks[b].idx
	})
	if n > len(ks) {
		n = len(ks)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = ks[i].idx
	}
	sort.Ints(out)
	return out
}

// rankedBatch picks the next acquisition round: every unevaluated
// candidate is scored by predicted objective minus the exploration bonus,
// and the roundFraction quantile with the lowest (best) scores is
// returned. Ties break on grid index, so ranking is a deterministic
// function of the observations.
func (p *AdaptivePlanner) rankedBatch(budget int) []int {
	size := int(roundFraction * float64(len(p.variants)))
	if size < 1 {
		size = 1
	}
	if budget >= 0 && size > budget {
		size = budget
	}
	var evaluated [][]float64
	for g, is := range p.issued {
		if is {
			evaluated = append(evaluated, p.norm[g])
		}
	}
	sd := p.sur.YStd()
	type scored struct {
		score float64
		idx   int
	}
	var cands []scored
	for g, is := range p.issued {
		if is {
			continue
		}
		score := p.sur.Predict(p.feats[g])
		if sd > 0 {
			score -= exploreWeight * sd * p.exploreBonus(p.norm[g], evaluated)
		}
		cands = append(cands, scored{score, g})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score < cands[b].score
		}
		return cands[a].idx < cands[b].idx
	})
	if size > len(cands) {
		size = len(cands)
	}
	out := make([]int, size)
	for i := 0; i < size; i++ {
		out[i] = cands[i].idx
	}
	sort.Ints(out)
	return out
}

// exploreBonus is the normalized distance from one candidate to its
// nearest evaluated neighbor in range-normalized axis space — 0 right on
// top of an observation, approaching 1 in the farthest unexplored corner.
func (p *AdaptivePlanner) exploreBonus(x []float64, evaluated [][]float64) float64 {
	dims := len(x)
	if dims == 0 || len(evaluated) == 0 {
		return 0
	}
	best := -1.0
	for _, e := range evaluated {
		var d2 float64
		for i, v := range x {
			dv := v - e[i]
			d2 += dv * dv
		}
		if best < 0 || d2 < best {
			best = d2
			if best == 0 {
				break
			}
		}
	}
	// Max possible squared distance in the unit hypercube is dims.
	if best <= 0 {
		return 0
	}
	return math.Sqrt(best / float64(dims))
}

// Observe reports one successful evaluation of an issued grid index: the
// objective (projected total time) trains the surrogate weighted by the
// evaluation's confidence, and the incumbent advances under the same rule
// Best uses (strict improvement; on exact ties the lower grid index wins).
func (p *AdaptivePlanner) Observe(gridIdx int, y, confidence float64) {
	if gridIdx < 0 || gridIdx >= len(p.variants) {
		return
	}
	p.issued[gridIdx] = true
	// A non-finite objective cannot train the surrogate; count the spend
	// but treat the sample as a failure.
	if err := p.sur.Observe(p.feats[gridIdx], y, confidence); err != nil {
		return
	}
	if !p.hasBest || y < p.bestTime || (y == p.bestTime && gridIdx < p.bestIdx) {
		p.bestIdx, p.bestTime, p.hasBest = gridIdx, y, true
	}
}

// ObserveFailure reports a failed evaluation: the index is consumed (it
// will not be handed out again) but contributes nothing to the fit.
func (p *AdaptivePlanner) ObserveFailure(gridIdx int) {
	if gridIdx < 0 || gridIdx >= len(p.variants) {
		return
	}
	p.issued[gridIdx] = true
}

// EndRound closes the current round: refits the surrogate on everything
// observed, advances the patience counter, decides convergence, and
// appends + returns the round's trace.
func (p *AdaptivePlanner) EndRound() RoundTrace {
	p.sur.Fit()
	improved := p.hasBest && (!p.roundHad || p.bestTime < p.roundBest)
	if improved {
		p.stale = 0
	} else {
		p.stale++
	}
	conv := p.round >= minRounds && p.stale >= patience
	if conv {
		p.done = true
		p.converged = true
	}
	tr := RoundTrace{
		Round:      p.round,
		Evals:      p.lastBatch,
		TotalEvals: p.spent,
		GridSize:   len(p.variants),
		Incumbent:  p.bestIdx,
		R2:         p.sur.R2(),
		Converged:  conv,
	}
	if p.hasBest {
		tr.IncumbentFP = p.variants[p.bestIdx].Fingerprint()
		tr.IncumbentTime = p.bestTime
	}
	p.traces = append(p.traces, tr)
	return tr
}

// AdaptiveResult is the outcome of one surrogate-guided search. The
// evaluations themselves are the driver's: the planner only chose them.
type AdaptiveResult struct {
	// Evals is the number of evaluations issued (≪ GridSize when the
	// search converged), GridSize the exhaustive count for comparison.
	Evals    int
	GridSize int
	// Rounds is the full acquisition trace.
	Rounds []RoundTrace
	// Converged reports a patience stop (false: budget or grid exhausted).
	Converged bool
}
