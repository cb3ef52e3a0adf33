package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"skope/internal/explore"
	"skope/internal/hw"
	"skope/internal/pipeline"
	"skope/internal/store"
	"skope/internal/workloads"
)

// The three in-process workloads: one closed-loop client calling the
// pipeline's public functions.

// cold measures what preparing a new workload costs: every request parses,
// profiles and models one benchmark from source, then sweeps 16 variants.
// The profiling interpreter dominates; evaluation is noise.
type cold struct {
	reqs     []coldReq
	sources  []*workloads.Workload
	variants [][]*hw.Machine
	runs     map[string]*pipeline.Run
	refFP    map[string]string
	refTimes [][]float64
}

func newCold(cfg *config) (*cold, error) {
	c := &cold{reqs: coldRequests(cfg.seed, cfg.smoke)}
	for _, r := range c.reqs {
		w, err := workloads.Get(r.Combo.Bench, workloads.ScaleTest)
		if err != nil {
			return nil, err
		}
		vs, err := variants(r.Combo.Base, r.Axes)
		if err != nil {
			return nil, err
		}
		c.sources = append(c.sources, w)
		c.variants = append(c.variants, vs)
	}
	return c, nil
}

// setup is one warm-up preparation of each benchmark: the library model's
// one-time calibration and the heap's growth happen before timing.
func (c *cold) setup(ctx context.Context, tr *tracer) (err error) {
	c.runs, err = prepareAll(ctx, tr)
	return err
}

func (c *cold) reference(ctx context.Context) (map[string]*pipeline.Run, error) {
	c.refFP = make(map[string]string)
	for name, run := range c.runs {
		l, err := run.Layout()
		if err != nil {
			return nil, err
		}
		c.refFP[name] = l.Fingerprint()
	}
	c.refTimes = make([][]float64, len(c.reqs))
	for i, r := range c.reqs {
		var err error
		if c.refTimes[i], err = references(ctx, c.runs[r.Combo.Bench], c.variants[i]); err != nil {
			return nil, err
		}
	}
	return c.runs, nil
}

func (c *cold) requests() int { return len(c.reqs) }
func (c *cold) clients() int  { return 1 }

func (c *cold) run(ctx context.Context, _, i int) outcome {
	start := time.Now()
	run, err := pipeline.Prepare(ctx, c.sources[i])
	var evals []*pipeline.Eval
	if err == nil {
		evals, err = pipeline.Sweep(ctx, run, c.variants[i])
	}
	lat := time.Since(start)
	if err == nil {
		err = c.check(i, run, evals)
	}
	return c.outcome(i, lat, err)
}

func (c *cold) runTraced(ctx context.Context, _, i int, tr *tracer) outcome {
	root := tr.start(i, 0, "request")
	run, err := prepareStaged(ctx, tr, i, root, c.sources[i])
	var evals []*pipeline.Eval
	var sweep time.Duration
	if err == nil {
		id := tr.start(i, root, "explore.sweep")
		evals, err = pipeline.Sweep(ctx, run, c.variants[i])
		sweep = tr.stop(id, len(c.variants[i]))
	}
	lat := tr.stop(root, 1)
	if err == nil {
		err = c.check(i, run, evals)
	}
	if err == nil {
		err = overhead(ctx, tr, i, run, evals, sweep)
	}
	return c.outcome(i, lat, err)
}

// check requires the preparation's layout fingerprint and every variant's
// total time to match the references.
func (c *cold) check(i int, run *pipeline.Run, evals []*pipeline.Eval) error {
	l, err := run.Layout()
	if err != nil {
		return err
	}
	if fp, want := l.Fingerprint(), c.refFP[run.Workload.Name]; fp != want {
		return fmt.Errorf("%s: layout fingerprint %s, reference %s", run.Workload.Name, fp, want)
	}
	return checkTimes(evals, c.refTimes[i])
}

func (c *cold) outcome(i int, lat time.Duration, err error) outcome {
	return outcome{lat: lat, class: c.reqs[i].Combo.String(), variants: len(c.variants[i]), err: err}
}

func (c *cold) finish(context.Context, *tracer) (float64, error) { return selfPeakRSS() }
func (c *cold) close()                                           {}

// overhead replays a sweep's evaluation layers and books the rest as
// engine overhead.
func overhead(ctx context.Context, tr *tracer, req int, run *pipeline.Run, evals []*pipeline.Eval, sweep time.Duration) error {
	attributed, _, err := replayEval(ctx, tr, req, run, evals)
	if err != nil {
		return err
	}
	bookOverhead(tr, sweep, attributed, len(evals))
	return nil
}

// bookOverhead records the worker time a sweep's pool had, its wall time
// times its workers, minus the work the replayed layers account for: the
// engine's pool, channels, locks, result assembly and any idle worker.
func bookOverhead(tr *tracer, sweep, attributed time.Duration, variants int) {
	workers := min(runtime.GOMAXPROCS(0), variants)
	tr.add("explore.overhead.ns", float64(sweep*time.Duration(workers)-attributed))
	tr.add("sweep.variants", float64(variants))
}

// grid measures per-variant evaluation: every request sweeps one
// benchmark's 2048-variant grid on a fresh engine with no store.
type grid struct {
	reqs     []combo
	variants map[combo][]*hw.Machine
	runs     map[string]*pipeline.Run
	refs     map[combo][]float64
}

func newGrid(cfg *config) (*grid, error) {
	g := &grid{reqs: gridRequests(cfg.seed, cfg.smoke), variants: make(map[combo][]*hw.Machine)}
	for _, c := range combos() {
		vs, err := variants(c.Base, gridAxes(cfg.smoke))
		if err != nil {
			return nil, err
		}
		g.variants[c] = vs
	}
	return g, nil
}

// setup prepares the five benchmarks: the profiling pass a co-design
// study pays once before sweeping.
func (g *grid) setup(ctx context.Context, tr *tracer) (err error) {
	g.runs, err = prepareAll(ctx, tr)
	return err
}

func (g *grid) reference(ctx context.Context) (map[string]*pipeline.Run, error) {
	g.refs = make(map[combo][]float64)
	for c, vs := range g.variants {
		ref, err := references(ctx, g.runs[c.Bench], vs)
		if err != nil {
			return nil, err
		}
		g.refs[c] = ref
	}
	return g.runs, nil
}

func (g *grid) requests() int { return len(g.reqs) }
func (g *grid) clients() int  { return 1 }

func (g *grid) run(ctx context.Context, _, i int) outcome {
	c := g.reqs[i]
	start := time.Now()
	evals, err := pipeline.Sweep(ctx, g.runs[c.Bench], g.variants[c])
	lat := time.Since(start)
	if err == nil {
		err = checkTimes(evals, g.refs[c])
	}
	return outcome{lat: lat, class: c.String(), variants: len(g.variants[c]), err: err}
}

func (g *grid) runTraced(ctx context.Context, _, i int, tr *tracer) outcome {
	c := g.reqs[i]
	root := tr.start(i, 0, "request")
	id := tr.start(i, root, "explore.sweep")
	evals, err := pipeline.Sweep(ctx, g.runs[c.Bench], g.variants[c])
	sweep := tr.stop(id, len(g.variants[c]))
	lat := tr.stop(root, 1)
	if err == nil {
		err = checkTimes(evals, g.refs[c])
	}
	if err == nil {
		err = overhead(ctx, tr, i, g.runs[c.Bench], evals, sweep)
	}
	return outcome{lat: lat, class: c.String(), variants: len(g.variants[c]), err: err}
}

func (g *grid) finish(context.Context, *tracer) (float64, error) { return selfPeakRSS() }
func (g *grid) close()                                           {}

// mixed measures the result store: every request sweeps 64 variants with
// WithStore, 48 of them prewarmed (get, decode, graft) and 16 never seen
// (compute, encode, fsync'd append), interleaved.
type mixed struct {
	dir      string
	reqs     []storeReq
	pool     []*hw.Machine
	variants [][]*hw.Machine
	runs     map[string]*pipeline.Run
	refs     [][]float64

	st      *store.Store
	scratch *store.Store // receives the traced pass's replayed writes
	setups  int
}

func newMixed(cfg *config) (*mixed, error) {
	m := &mixed{dir: cfg.workDir, reqs: storeRequests(cfg.seed, cfg.smoke)}
	var err error
	if m.pool, err = variants("bgq", storePool(cfg.smoke)); err != nil {
		return nil, err
	}
	lat := storePool(cfg.smoke)[0]
	for _, r := range m.reqs {
		fresh, err := variants("bgq", []explore.Axis{{Param: "freq-ghz", Values: []float64{r.FreshGHz}}, lat})
		if err != nil {
			return nil, err
		}
		vs := make([]*hw.Machine, len(r.Order))
		for k, o := range r.Order {
			if o < len(r.Repeated) {
				vs[k] = m.pool[r.Repeated[o]]
			} else {
				vs[k] = fresh[o-len(r.Repeated)]
			}
		}
		m.variants = append(m.variants, vs)
	}
	return m, nil
}

// setup opens a new store on disk, prepares the five benchmarks and
// prewarms the pool for each of them.
func (m *mixed) setup(ctx context.Context, tr *tracer) error {
	m.setups++
	path := filepath.Join(m.dir, fmt.Sprintf("store-%d.cas", m.setups))
	st, err := store.Open(path)
	if err != nil {
		return err
	}
	m.st = st
	if m.runs, err = prepareAll(ctx, tr); err != nil {
		return err
	}
	for _, name := range workloads.Names() {
		if _, err := pipeline.Sweep(ctx, m.runs[name], m.pool, pipeline.WithStore(st)); err != nil {
			return fmt.Errorf("prewarm %s: %w", name, err)
		}
	}
	return nil
}

func (m *mixed) reference(ctx context.Context) (map[string]*pipeline.Run, error) {
	pool := make(map[string][]float64)
	for name, run := range m.runs {
		ref, err := references(ctx, run, m.pool)
		if err != nil {
			return nil, err
		}
		pool[name] = ref
	}
	m.refs = make([][]float64, len(m.reqs))
	for i, r := range m.reqs {
		ref := make([]float64, len(r.Order))
		for k, o := range r.Order {
			if o < len(r.Repeated) {
				ref[k] = pool[r.Bench][r.Repeated[o]]
				continue
			}
			fresh, err := references(ctx, m.runs[r.Bench], m.variants[i][k:k+1])
			if err != nil {
				return nil, err
			}
			ref[k] = fresh[0]
		}
		m.refs[i] = ref
	}
	scratch, err := store.Open(filepath.Join(m.dir, "replay.cas"))
	m.scratch = scratch
	return m.runs, err
}

func (m *mixed) requests() int { return len(m.reqs) }
func (m *mixed) clients() int  { return 1 }

func (m *mixed) run(ctx context.Context, _, i int) outcome {
	run := m.runs[m.reqs[i].Bench]
	start := time.Now()
	evals, err := pipeline.Sweep(ctx, run, m.variants[i], pipeline.WithStore(m.st))
	lat := time.Since(start)
	if err == nil {
		err = checkTimes(evals, m.refs[i])
	}
	return outcome{lat: lat, class: m.reqs[i].Bench, variants: len(m.variants[i]), err: err}
}

func (m *mixed) runTraced(ctx context.Context, _, i int, tr *tracer) outcome {
	run := m.runs[m.reqs[i].Bench]
	before := m.st.Stats()
	root := tr.start(i, 0, "request")
	id := tr.start(i, root, "explore.sweep")
	evals, err := pipeline.Sweep(ctx, run, m.variants[i], pipeline.WithStore(m.st))
	sweep := tr.stop(id, len(m.variants[i]))
	lat := tr.stop(root, 1)
	after := m.st.Stats()
	tr.add("store.hits", float64(after.Hits-before.Hits))
	tr.add("store.misses", float64(after.Misses-before.Misses))
	if err == nil {
		err = checkTimes(evals, m.refs[i])
	}
	if err == nil {
		err = m.replay(ctx, tr, i, run, evals, sweep)
	}
	return outcome{lat: lat, class: m.reqs[i].Bench, variants: len(m.variants[i]), err: err}
}

// replay books the sweep's time to the evaluation and store layers and
// the remainder to the engine.
func (m *mixed) replay(ctx context.Context, tr *tracer, i int, run *pipeline.Run, evals []*pipeline.Eval, sweep time.Duration) error {
	evalTime, l, err := replayEval(ctx, tr, i, run, evals)
	if err != nil {
		return err
	}
	storeTime, err := replayStore(tr, i, l, m.st, m.scratch, evals)
	if err != nil {
		return err
	}
	bookOverhead(tr, sweep, evalTime+storeTime, len(evals))
	return nil
}

func (m *mixed) finish(context.Context, *tracer) (float64, error) { return selfPeakRSS() }

// close closes the stores and deletes their files; the next setup starts
// from an empty directory.
func (m *mixed) close() {
	for _, st := range []*store.Store{m.st, m.scratch} {
		if st != nil {
			st.Close()
			os.Remove(st.Path())
		}
	}
	m.st, m.scratch = nil, nil
}
