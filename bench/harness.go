package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"skope/internal/pipeline"
)

// config is one benchmark run of one workload.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	root     string // repository root, where skoped is built from
	binDir   string // where the skoped binary is built
	workDir  string // stores and daemon data of this run
}

// workload is one traffic mix.
type workload interface {
	// setup acquires what a user pays for before the first request. The
	// harness times it several times, calling close in between. With a
	// tracer it may record spans.
	setup(ctx context.Context, tr *tracer) error
	// reference computes, untimed, the outputs the requests are checked
	// against, and returns the prepared benchmarks for the quality metric.
	reference(ctx context.Context) (map[string]*pipeline.Run, error)
	// requests is the number of requests in the run; clients the number
	// of closed-loop clients sending them.
	requests() int
	clients() int
	// run sends request i from client c and checks its output. The
	// outcome's latency covers what the user waits for and nothing else.
	run(ctx context.Context, c, i int) outcome
	// runTraced is run with spans around the public calls, followed by
	// replays that time single layers.
	runTraced(ctx context.Context, c, i int, tr *tracer) outcome
	// finish ends the measurement and returns the peak RSS, in MiB, of
	// the process that did the work.
	finish(ctx context.Context, tr *tracer) (float64, error)
	// close releases whatever setup acquired; it is safe after a failure.
	close()
}

func newWorkload(ctx context.Context, cfg *config) (workload, error) {
	switch cfg.workload {
	case coldPrepare:
		return newCold(cfg)
	case gridSweep:
		return newGrid(cfg)
	case storeMixed:
		return newMixed(cfg)
	case serveSessions:
		return newServe(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// outcome is one completed request.
type outcome struct {
	req      int
	traced   bool
	lat      time.Duration
	class    string // requests of one class do the same work
	variants int
	err      error // the request failed or failed its output check
}

// pass is one closed-loop run over a workload's requests.
type pass struct {
	outcomes []outcome
	wall     time.Duration
	// untraced is the collector's bill over the untraced requests of a
	// traced pass.
	untraced runtimeCost
}

// measure sends the workload's requests from its clients, each sending
// its next request when the previous one completes, until the requests
// or the time run out. Client c sends requests c, c+clients, c+2*clients
// and so on, so a workload decides what each client sends side by side.
// With a tracer, odd requests run traced and even ones untraced, so both
// halves see the same host conditions.
func measure(ctx context.Context, w workload, deadline time.Time, cal *calibration, tr *tracer) pass {
	n, clients := w.requests(), w.clients()
	outs := make([]outcome, n)
	done := make([]bool, n)
	var mu sync.Mutex
	var p pass
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n && ctx.Err() == nil && time.Now().Before(deadline); i += clients {
				cal.maybe()
				cal.gate.RLock()
				var o outcome
				switch {
				case tr == nil:
					o = w.run(ctx, c, i)
				case i%2 == 1:
					o = w.runTraced(ctx, c, i, tr)
					o.traced = true
				default:
					before := readRuntime()
					o = w.run(ctx, c, i)
					cost := readRuntime().since(before)
					mu.Lock()
					p.untraced = p.untraced.plus(cost)
					mu.Unlock()
				}
				cal.gate.RUnlock()
				o.req = i
				outs[i], done[i] = o, true
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start) - cal.kernelTime()
	for i, o := range outs {
		if done[i] {
			p.outcomes = append(p.outcomes, o)
		}
	}
	return p
}

// result is what one workload run reports; it is also the last line the
// benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets up, checks and measures one workload and prints its
// report to out. Untraced, the result carries the end-to-end metrics.
// Traced, it carries the per-layer metrics; the untraced half of the
// requests gives the runtime counters and the baseline the trace is
// reconciled with.
func runWorkload(ctx context.Context, cfg *config, tr *tracer, out io.Writer) (*result, error) {
	w, err := newWorkload(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()

	// Set-up runs at least three times and, while that stays under a
	// second, up to nine; setup_s is the median. What one set-up built is
	// released, untimed, before the next.
	minReps := 3
	if cfg.smoke {
		minReps = 1
	}
	var setups []float64
	for spent := 0.0; len(setups) < minReps || len(setups) < 9 && spent < 1; {
		if len(setups) > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(ctx, tr); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		d := time.Since(start).Seconds()
		spent += d
		setups = append(setups, d)
	}
	runs, err := w.reference(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: reference: %w", cfg.workload, err)
	}
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	budget := time.Duration(cfg.seconds) * time.Second
	if tr != nil {
		budget *= 2 // replays follow every traced request
	}
	cal := newCalibration()
	p := measure(ctx, w, time.Now().Add(budget), cal, tr)
	speed, observed, samples := cal.factor()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	peak, err := w.finish(ctx, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	qavg, qmin, err := selectionQuality(ctx, runs)
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: make(map[string]metricValue)}
	var failures []string
	for _, o := range p.outcomes {
		res.Attempted++
		if o.err != nil {
			res.Failed++
			failures = append(failures, fmt.Sprintf("request %d (%s): %v", o.req, o.class, o.err))
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	fmt.Fprintf(out, "workload %s  seed %d  %d client(s)\n", cfg.workload, cfg.seed, w.clients())
	fmt.Fprintf(out, "host speed: kernel median %.1f us over %d runs, nominal %.1f us: times scaled by %.4f\n",
		observed/1e3, samples, float64(calibrationNominal)/1e3, speed)
	if tr == nil {
		e2e, notes := endToEnd(p, setups, peak, qavg, qmin)
		scaleToHost(endToEndDefs, e2e, notes, speed)
		printMetrics(out, endToEndDefs, e2e, notes)
		for _, d := range endToEndDefs {
			if !d.tableOnly {
				res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
			}
		}
	} else {
		printLayers(out, tr)
		layers := layerMetrics(tr, p)
		notes := make(map[string]string)
		scaleToHost(perLayerDefs, layers, notes, speed)
		fmt.Fprintf(out, "per-layer:\n")
		printMetrics(out, perLayerDefs, layers, notes)
		for _, d := range perLayerDefs {
			res.Metrics[d.name] = metricValue{layers[d.name], d.unit}
		}
	}
	for i, f := range failures {
		if i == 5 {
			fmt.Fprintf(out, "FAILED: ... and %d more\n", len(failures)-i)
			break
		}
		fmt.Fprintf(out, "FAILED: %s\n", f)
	}
	return res, nil
}

// runtimeCost is the collector's bill over a span of requests.
type runtimeCost struct {
	gcCycles    uint32
	pause       time.Duration
	allocBytes  uint64
	allocations uint64
}

func readRuntime() runtimeCost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCost{ms.NumGC, time.Duration(ms.PauseTotalNs), ms.TotalAlloc, ms.Mallocs}
}

func (c runtimeCost) plus(d runtimeCost) runtimeCost {
	return runtimeCost{c.gcCycles + d.gcCycles, c.pause + d.pause, c.allocBytes + d.allocBytes, c.allocations + d.allocations}
}

func (c runtimeCost) since(before runtimeCost) runtimeCost {
	return runtimeCost{
		c.gcCycles - before.gcCycles, c.pause - before.pause,
		c.allocBytes - before.allocBytes, c.allocations - before.allocations,
	}
}

// percentile is the nearest-rank percentile of sorted values, and the
// number of values beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	k = max(0, min(k, len(sorted)-1))
	return sorted[k], len(sorted) - 1 - k
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	v, _ := percentile(s, 0.5)
	return v
}

// endToEnd computes the user-visible metrics of an untraced pass.
func endToEnd(p pass, setups []float64, peak, qavg, qmin float64) (map[string]float64, map[string]string) {
	var lats []float64
	variants, failed := 0, 0
	for _, o := range p.outcomes {
		lats = append(lats, float64(o.lat)/1e6)
		if o.err != nil {
			failed++
			continue
		}
		variants += o.variants
	}
	sort.Float64s(lats)
	n := len(lats)
	secs := p.wall.Seconds()
	m := map[string]float64{
		"setup_s":     median(setups),
		"peak_rss_mb": peak,
		"quality_avg": qavg,
		"quality_min": qmin,
	}
	notes := map[string]string{
		"setup_s":        fmt.Sprintf("median of %d set-ups", len(setups)),
		"requests_per_s": fmt.Sprintf("%d requests in %.2f s", n, secs),
		"variants_per_s": fmt.Sprintf("%d variants", variants),
		"failed_ratio":   fmt.Sprintf("%d of %d", failed, n),
		"quality_avg":    "5 benchmarks x {bgq, xeon}, untimed",
		"quality_min":    "5 benchmarks x {bgq, xeon}, untimed",
	}
	if secs > 0 {
		m["requests_per_s"] = float64(n) / secs
		m["variants_per_s"] = float64(variants) / secs
	}
	if n > 0 {
		m["failed_ratio"] = float64(failed) / float64(n)
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p90_ms", 0.9}, {"latency_p99_ms", 0.99}} {
		v, beyond := percentile(lats, q.p)
		m[q.name] = v
		notes[q.name] = fmt.Sprintf("%d samples, %d beyond", n, beyond)
		if beyond < 10 {
			notes[q.name] += " (fewer than 10: read as the tail, not this percentile)"
		}
	}
	return m, notes
}

// layerMetrics derives the per-layer metrics from the spans and counters
// of a traced pass. A layer a workload does not reach reports 0.
func layerMetrics(tr *tracer, p pass) map[string]float64 {
	layers := tr.layers()
	get := func(name string) layerTotal {
		if l := layers[name]; l != nil {
			return *l
		}
		return layerTotal{}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perCall := func(name string, unit time.Duration) float64 {
		l := get(name)
		return ratio(float64(l.Self)/float64(unit), float64(l.Calls))
	}
	allocs := func(name string) float64 {
		l := get(name)
		return ratio(float64(l.Allocs), float64(l.Calls))
	}
	c := tr.counter
	interp := get("profile.interp")
	hits, misses := c("memo.hits"), c("memo.misses")
	shits, smisses := c("store.hits"), c("store.misses")
	gc := p.untraced
	var reqs float64
	for _, o := range p.outcomes {
		if !o.traced {
			reqs++
		}
	}

	m := map[string]float64{
		"frontend.parse.ms":          perCall("frontend.parse", time.Millisecond),
		"frontend.parse.allocs":      allocs("frontend.parse"),
		"profile.interp.ms":          perCall("profile.interp", time.Millisecond),
		"profile.interp.allocs":      allocs("profile.interp"),
		"profile.interp.steps":       ratio(c("profile.interp.steps"), float64(interp.Calls)),
		"profile.interp.ns_per_step": ratio(float64(interp.Self), c("profile.interp.steps")),
		"translate.ms":               perCall("translate", time.Millisecond),
		"translate.allocs":           allocs("translate"),
		"bst.ms":                     perCall("bst", time.Millisecond),
		"bet.build.ms":               perCall("bet.build", time.Millisecond),
		"bet.build.allocs":           allocs("bet.build"),
		"bet.nodes":                  ratio(c("bet.nodes"), float64(get("bet.build").Calls)),
		"layout.ms":                  perCall("layout", time.Millisecond),

		"variant.comp.ns":          perCall("variant.comp", time.Nanosecond),
		"variant.comp.per_variant": ratio(c("comp.calls"), c("eval.variants")),
		"variant.assemble.ns":      perCall("variant.assemble", time.Nanosecond),
		"variant.assemble.allocs":  allocs("variant.assemble"),
		"select.ns":                perCall("select", time.Nanosecond),
		"select.allocs":            allocs("select"),
		"explore.memo.hit_ratio":   ratio(hits, hits+misses),
		"explore.overhead.ns":      ratio(c("explore.overhead.ns"), c("sweep.variants")),

		"store.get.ns":              perCall("store.get", time.Nanosecond),
		"store.codec.decode.ns":     perCall("store.codec.decode", time.Nanosecond),
		"store.codec.decode.allocs": allocs("store.codec.decode"),
		"store.graft.ns":            perCall("store.graft", time.Nanosecond),
		"store.put.ns":              perCall("store.put", time.Nanosecond),
		"store.codec.encode.ns":     perCall("store.codec.encode", time.Nanosecond),
		"journal.append.ns":         perCall("store.put", time.Nanosecond) - perCall("store.codec.encode", time.Nanosecond),
		"store.record_bytes":        ratio(c("record.bytes"), c("records")),
		"store.hit_ratio":           ratio(shits, shits+smisses),
		"fingerprint.layout.ns":     perCall("fingerprint.layout", time.Nanosecond),
		"fingerprint.machine.ns":    perCall("fingerprint.machine", time.Nanosecond),

		"serve.submit.ms":     perCall("serve.submit", time.Millisecond),
		"serve.first_line.ms": perCall("serve.first_line", time.Millisecond),
		"serve.stream.ms":     perCall("serve.stream", time.Millisecond),
		"serve.lines":         ratio(c("serve.lines"), c("serve.traced")),
		"serve.bytes":         ratio(c("serve.bytes"), c("serve.traced")),
		"serve.warm_ratio":    ratio(c("serve.warm"), c("serve.sessions")),
		"serve.sweep.ms":      perCall("serve.sweep", time.Millisecond),
		"serve.overhead.ms":   ratio(c("serve.overhead.ns")/1e6, c("serve.replayed")),

		"gc.cycles_per_request":        ratio(float64(gc.gcCycles), reqs),
		"gc.pause_ms_per_request":      ratio(float64(gc.pause)/1e6, reqs),
		"heap.alloc_bytes_per_request": ratio(float64(gc.allocBytes), reqs),
		"heap.allocs_per_request":      ratio(float64(gc.allocations), reqs),
	}
	m["trace.overhead_pct"], m["reconcile.gap_pct"] = reconcile(tr, p)
	return m
}

// reconcile compares the traced requests with untraced requests of the
// same class. overhead is how much longer traced requests took; gap is how
// far the time their layer spans account for lies from the untraced time.
// Both are percentages of the untraced time.
func reconcile(tr *tracer, p pass) (overhead, gap float64) {
	sum := make(map[string]float64)
	count := make(map[string]int)
	for _, o := range p.outcomes {
		if !o.traced && o.err == nil {
			sum[o.class] += float64(o.lat)
			count[o.class]++
		}
	}
	covered := tr.covered()
	var base, took, spans float64
	for _, o := range p.outcomes {
		if !o.traced || count[o.class] == 0 || o.err != nil {
			continue
		}
		base += sum[o.class] / float64(count[o.class])
		took += float64(o.lat)
		spans += float64(covered[o.req])
	}
	if base == 0 {
		return 0, 0
	}
	return 100 * (took - base) / base, 100 * (spans - base) / base
}

// printLayers prints every span name's self time and call count.
func printLayers(out io.Writer, tr *tracer) {
	layers := tr.layers()
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].Self > layers[names[j]].Self })
	fmt.Fprintf(out, "spans (replay spans re-run one layer after the request):\n")
	fmt.Fprintf(out, "  %-22s %8s %10s %12s %14s\n", "span", "spans", "calls", "self ms", "self/call us")
	for _, n := range names {
		l := layers[n]
		perCall := 0.0
		if l.Calls > 0 {
			perCall = float64(l.Self) / float64(l.Calls) / 1e3
		}
		fmt.Fprintf(out, "  %-22s %8d %10d %12.3f %14.3f\n", n, l.Spans, l.Calls, float64(l.Self)/1e6, perCall)
	}
}

// scaleToHost rescales the time and rate metrics by the host-speed factor
// (see calib.go) and notes each raw value.
func scaleToHost(defs []metricDef, m map[string]float64, notes map[string]string, factor float64) {
	for _, d := range defs {
		raw := m[d.name]
		switch d.unit {
		case "s", "ms", "ns":
			m[d.name] = raw * factor
		case "1/s":
			m[d.name] = raw / factor
		default:
			continue
		}
		note, ok := notes[d.name]
		if !ok {
			note = d.kind
		}
		notes[d.name] = fmt.Sprintf("%s; raw %.6g", note, raw)
	}
}

// printMetrics prints one line per metric: name, value, unit, and the
// note, or else how the metric is measured.
func printMetrics(out io.Writer, defs []metricDef, values map[string]float64, notes map[string]string) {
	for _, d := range defs {
		note, ok := notes[d.name]
		if !ok {
			note = d.kind
		}
		fmt.Fprintf(out, "  %-30s %14.6g %-8s %s\n", d.name, values[d.name], d.unit, note)
	}
}
