package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"skope/internal/bst"
	"skope/internal/core"
	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/interp"
	"skope/internal/libmodel"
	"skope/internal/minilang"
	"skope/internal/pipeline"
	"skope/internal/store"
	"skope/internal/translate"
	"skope/internal/workloads"
)

// This file holds the calls the workloads share: preparation (plain and
// traced stage by stage), the reference analyses the outputs are checked
// against, and the replays that time one layer of a sweep alone.

// prepareAll prepares the five benchmarks at scale 1. With a tracer, each
// preparation runs stage by stage under spans of request req.
func prepareAll(ctx context.Context, tr *tracer) (map[string]*pipeline.Run, error) {
	runs := make(map[string]*pipeline.Run)
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name, workloads.ScaleTest)
		if err != nil {
			return nil, err
		}
		var run *pipeline.Run
		if tr == nil {
			run, err = pipeline.Prepare(ctx, w)
		} else {
			id := tr.start(setupReq, 0, "prepare")
			run, err = prepareStaged(ctx, tr, setupReq, id, w)
			tr.stop(id, 1)
		}
		if err != nil {
			return nil, err
		}
		runs[name] = run
	}
	return runs, nil
}

// prepareStaged is pipeline.Prepare for a strict, fully profiled workload,
// calling each stage's public function in Prepare's order under its own
// span. The BET it builds is the one Prepare builds.
func prepareStaged(ctx context.Context, tr *tracer, req, parent int, w *workloads.Workload) (*pipeline.Run, error) {
	lim := guard.Default()
	id := tr.start(req, parent, "frontend.parse")
	prog, err := minilang.ParseWithLimits(w.Name, w.Source, lim)
	if err == nil {
		err = minilang.Check(prog)
	}
	tr.stop(id, 1)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", w.Name, err)
	}

	id = tr.start(req, parent, "profile.interp")
	profiler := interp.NewProfiler()
	eng, err := interp.New(prog, &interp.Options{Observer: profiler, Seed: w.Seed})
	if err == nil {
		err = eng.Run()
	}
	tr.stop(id, 1)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", w.Name, err)
	}
	tr.add("profile.interp.steps", float64(eng.Steps()))

	id = tr.start(req, parent, "translate")
	sk, err := translate.Translate(prog, profiler.P)
	tr.stop(id, 1)
	if err != nil {
		return nil, fmt.Errorf("translate %s: %w", w.Name, err)
	}

	id = tr.start(req, parent, "bst")
	tree, err := bst.Build(sk.Prog)
	tr.stop(id, 1)
	if err != nil {
		return nil, fmt.Errorf("bst %s: %w", w.Name, err)
	}

	id = tr.start(req, parent, "bet.build")
	bet, err := core.Build(ctx, tree, sk.Input, &core.Options{MaxContexts: lim.MaxContexts, MaxNodes: lim.MaxBETNodes})
	tr.stop(id, 1)
	if err != nil {
		return nil, fmt.Errorf("bet %s: %w", w.Name, err)
	}
	tr.add("bet.nodes", float64(bet.NumNodes()))

	id = tr.start(req, parent, "libmodel")
	libs, err := libmodel.Default()
	tr.stop(id, 1)
	if err != nil {
		return nil, err
	}
	return &pipeline.Run{
		Workload: w, Prog: prog, Profile: profiler.P, Skeleton: sk,
		Tree: tree, BET: bet, Libs: libs, Confidence: bet.Confidence,
	}, nil
}

// variants materializes a grid around a preset machine.
func variants(base string, axes []explore.Axis) ([]*hw.Machine, error) {
	m, err := hw.Preset(base)
	if err != nil {
		return nil, err
	}
	g := &explore.Grid{Base: m, Axes: axes}
	return g.Variants()
}

// references projects run onto every variant with the uncached
// hotspot.Analyze and returns the total times.
func references(ctx context.Context, run *pipeline.Run, vs []*hw.Machine) ([]float64, error) {
	out := make([]float64, len(vs))
	for i, m := range vs {
		a, err := hotspot.Analyze(ctx, run.BET, hw.NewModel(m), run.Libs)
		if err != nil {
			return nil, fmt.Errorf("reference %s on %s: %w", run.Workload.Name, m.Name, err)
		}
		out[i] = a.TotalTime
	}
	return out, nil
}

// checkTimes requires every variant's projected total time to equal its
// reference bit for bit.
func checkTimes(evals []*pipeline.Eval, want []float64) error {
	if len(evals) != len(want) {
		return fmt.Errorf("%d results for %d variants", len(evals), len(want))
	}
	for i, ev := range evals {
		if ev == nil {
			return fmt.Errorf("variant %d: no result", i)
		}
		if got := ev.Analysis.TotalTime; math.Float64bits(got) != math.Float64bits(want[i]) {
			return fmt.Errorf("variant %s: total time %v, reference %v", ev.Machine.Name, got, want[i])
		}
	}
	return nil
}

// selectionQuality evaluates the five benchmarks on both paper machines
// against the simulator and returns the average and minimum top-10
// selection quality (EXPERIMENTS.md, QAVG).
func selectionQuality(ctx context.Context, runs map[string]*pipeline.Run) (avg, min float64, err error) {
	min = math.Inf(1)
	n := 0
	for _, name := range workloads.Names() {
		evs, err := pipeline.EvaluateMany(ctx, runs[name], []*hw.Machine{hw.BGQ(), hw.XeonE5()})
		if err != nil {
			return 0, 0, fmt.Errorf("quality: %w", err)
		}
		for _, ev := range evs {
			avg += ev.Quality
			min = math.Min(min, ev.Quality)
			n++
		}
	}
	return avg / float64(n), min, nil
}

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink any

// replayEval re-executes, one layer at a time, the evaluation work a sweep
// of run did for evals: the layout the engine builds, CompTimes for the
// variants it computed, Assemble, and Select for every result. It returns
// the share of the sweep's time these layers account for. CompTimes runs
// only on memo misses; their number comes from a one-worker engine over
// the computed variants.
func replayEval(ctx context.Context, tr *tracer, req int, run *pipeline.Run, evals []*pipeline.Eval) (time.Duration, *hotspot.Layout, error) {
	id := tr.replay(req, "layout")
	l, err := hotspot.NewLayout(run.BET, run.Libs)
	attributed := tr.stop(id, 1)
	if err != nil {
		return 0, nil, err
	}

	var computed []*hw.Machine
	for _, ev := range evals {
		if ev.Provenance == pipeline.Computed {
			computed = append(computed, ev.Machine)
		}
	}
	compCalls, err := compMisses(ctx, tr, run, computed)
	if err != nil {
		return 0, nil, err
	}

	comps := make([][]hotspot.BlockTimes, len(computed))
	id = tr.replay(req, "variant.comp")
	for i, m := range computed {
		comps[i] = l.CompTimes(hw.NewModel(m))
	}
	comp := tr.stop(id, len(computed))
	if len(computed) > 0 {
		attributed += comp * time.Duration(compCalls) / time.Duration(len(computed))
	}

	comms := make([][]hotspot.BlockTimes, len(computed))
	for i, m := range computed {
		comms[i] = l.CommTimes(m)
	}
	analyses := make([]*hotspot.Analysis, len(computed))
	id = tr.replay(req, "variant.assemble")
	for i, m := range computed {
		if analyses[i], err = l.Assemble(m, comps[i], comms[i]); err != nil {
			break
		}
	}
	attributed += tr.stop(id, len(computed))
	if err != nil {
		return 0, nil, err
	}
	sink = analyses

	crit := hotspot.DefaultCriteria()
	sels := make([]*hotspot.Selection, len(evals))
	id = tr.replay(req, "select")
	for i, ev := range evals {
		sels[i] = hotspot.Select(ev.Analysis, crit)
	}
	attributed += tr.stop(id, len(evals))
	sink = sels
	return attributed, l, nil
}

// compMisses sweeps the variants on a one-worker engine and returns how
// many CompTimes calls the memo could not spare. Every variant looks up
// its comp times and its comm times once; comm times are keyed by the
// network parameters alone.
func compMisses(ctx context.Context, tr *tracer, run *pipeline.Run, vs []*hw.Machine) (int, error) {
	eng, err := pipeline.Explorer(run, pipeline.WithWorkers(1))
	if err != nil {
		return 0, err
	}
	results, wait := eng.Stream(ctx, vs)
	for r := range results {
		if r.Err != nil && err == nil {
			err = r.Err
		}
	}
	if werr := wait(); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return 0, err
	}
	st := eng.CacheStats()
	nets := make(map[[2]float64]bool)
	for _, m := range vs {
		nets[[2]float64{m.NetLatencyUs, m.NetBandwidthGBs}] = true
	}
	tr.add("memo.hits", float64(st.Hits))
	tr.add("memo.misses", float64(st.Misses))
	comp := st.Misses - len(nets)
	tr.add("comp.calls", float64(comp))
	tr.add("eval.variants", float64(len(vs)))
	return comp, nil
}

// replayStore re-executes the result-store work a WithStore sweep did for
// evals: fingerprints for every lookup and write, GetEval, decode and
// Graft for the variants served from st, and encode plus a durable
// PutEval into scratch for the ones computed. It returns the share of the
// sweep's time these layers account for.
func replayStore(tr *tracer, req int, l *hotspot.Layout, st, scratch *store.Store, evals []*pipeline.Eval) (time.Duration, error) {
	mode := store.ModeDigest(hotspot.DefaultCriteria(), false, 0)
	var hits, fresh []int // indexes into evals
	for i, ev := range evals {
		switch ev.Provenance {
		case pipeline.FromStore:
			hits = append(hits, i)
		case pipeline.Computed:
			fresh = append(fresh, i)
		}
	}
	// The engine fingerprints the layout and the machine once per lookup
	// and once more per write.
	lookups, writes := len(evals), len(fresh)
	perCall := func(d time.Duration, n int) time.Duration {
		if n == 0 {
			return 0
		}
		return d / time.Duration(n)
	}

	var lfp string
	id := tr.replay(req, "fingerprint.layout")
	for range evals {
		lfp = l.Fingerprint()
	}
	attributed := perCall(tr.stop(id, lookups), lookups) * time.Duration(lookups+writes)

	mfps := make([]string, len(evals))
	id = tr.replay(req, "fingerprint.machine")
	for i, ev := range evals {
		mfps[i] = ev.Machine.Fingerprint()
	}
	attributed += perCall(tr.stop(id, lookups), lookups) * time.Duration(lookups+writes)

	var err error
	got := make([]*hotspot.Analysis, len(hits))
	id = tr.replay(req, "store.get")
	for i, e := range hits {
		var ok bool
		got[i], ok, err = st.GetEval(lfp, mfps[e], mode)
		if err == nil && !ok {
			err = fmt.Errorf("store: %s missing after the sweep stored it", evals[e].Machine.Name)
		}
		if err != nil {
			break
		}
	}
	attributed += tr.stop(id, len(hits))
	if err != nil {
		return 0, err
	}

	blobs := make([][]byte, len(got))
	for i, a := range got {
		if blobs[i], err = hotspot.EncodeAnalysis(a); err != nil {
			return 0, err
		}
	}
	decoded := make([]*hotspot.Analysis, len(blobs))
	id = tr.replay(req, "store.codec.decode")
	for i, b := range blobs {
		if decoded[i], err = hotspot.DecodeAnalysis(b); err != nil {
			break
		}
	}
	tr.stop(id, len(blobs))
	if err != nil {
		return 0, err
	}
	id = tr.replay(req, "store.graft")
	for _, a := range decoded {
		if err = l.Graft(a); err != nil {
			break
		}
	}
	attributed += tr.stop(id, len(decoded))
	if err != nil {
		return 0, err
	}

	id = tr.replay(req, "store.codec.encode")
	for _, e := range fresh {
		var b []byte
		if b, err = hotspot.EncodeAnalysis(evals[e].Analysis); err != nil {
			break
		}
		blobs = append(blobs, b)
	}
	tr.stop(id, len(fresh))
	if err != nil {
		return 0, err
	}
	id = tr.replay(req, "store.put")
	for _, e := range fresh {
		if err = scratch.PutEval(lfp, mfps[e], mode, evals[e].Analysis); err != nil {
			break
		}
	}
	attributed += tr.stop(id, len(fresh))
	if err != nil {
		return 0, err
	}
	for _, b := range blobs {
		tr.add("record.bytes", float64(len(b)))
	}
	tr.add("records", float64(len(blobs)))
	return attributed, nil
}
