package main

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
	// kind says how the value is measured: a time (self time per call for
	// a layer), a count, allocations read through runtime/metrics, or a
	// ratio and its base.
	kind string
	// tableOnly metrics are printed but left out of the result line:
	// failed_ratio is 0 on a healthy run, and the result line already
	// carries attempted and failed.
	tableOnly bool
}

var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", kind: "time before the first timed request, median of the set-ups"},
	{name: "requests_per_s", unit: "1/s", kind: "completed requests over wall time"},
	{name: "variants_per_s", unit: "1/s", kind: "machine variants answered over wall time"},
	{name: "latency_p50_ms", unit: "ms", kind: "request latency, median"},
	{name: "latency_p90_ms", unit: "ms", kind: "request latency, 90th percentile"},
	{name: "latency_p99_ms", unit: "ms", kind: "request latency, 99th percentile"},
	{name: "failed_ratio", unit: "ratio", kind: "failed or wrong requests over attempted", tableOnly: true},
	{name: "peak_rss_mb", unit: "MB", kind: "VmHWM of the working process, MiB"},
	{name: "quality_avg", unit: "ratio", kind: "top-10 selection quality, mean of 10 cases"},
	{name: "quality_min", unit: "ratio", kind: "top-10 selection quality, minimum of 10 cases"},
}

var perLayerDefs = []metricDef{
	// frontend and model, per preparation
	{name: "frontend.parse.ms", unit: "ms", kind: "self time per call: minilang parse + check"},
	{name: "frontend.parse.allocs", unit: "allocs", kind: "allocations per call"},
	{name: "profile.interp.ms", unit: "ms", kind: "self time per call: profiling run"},
	{name: "profile.interp.allocs", unit: "allocs", kind: "allocations per call"},
	{name: "profile.interp.steps", unit: "count", kind: "interpreter steps per call"},
	{name: "profile.interp.ns_per_step", unit: "ns", kind: "profiling self time over steps"},
	{name: "translate.ms", unit: "ms", kind: "self time per call: skeleton translation"},
	{name: "translate.allocs", unit: "allocs", kind: "allocations per call"},
	{name: "bst.ms", unit: "ms", kind: "self time per call: block skeleton tree"},
	{name: "bet.build.ms", unit: "ms", kind: "self time per call: core.Build"},
	{name: "bet.build.allocs", unit: "allocs", kind: "allocations per call"},
	{name: "bet.nodes", unit: "count", kind: "BET nodes per build"},
	{name: "layout.ms", unit: "ms", kind: "self time per call: hotspot.NewLayout (replay)"},
	// evaluation, per variant
	{name: "variant.comp.ns", unit: "ns", kind: "self time per call: NewModel + CompTimes (replay)"},
	{name: "variant.comp.per_variant", unit: "ratio", kind: "CompTimes calls the memo left over computed variants"},
	{name: "variant.assemble.ns", unit: "ns", kind: "self time per call: Assemble (replay)"},
	{name: "variant.assemble.allocs", unit: "allocs", kind: "allocations per call"},
	{name: "select.ns", unit: "ns", kind: "self time per call: hotspot.Select (replay)"},
	{name: "select.allocs", unit: "allocs", kind: "allocations per call"},
	{name: "explore.memo.hit_ratio", unit: "ratio", kind: "memo hits over memo lookups"},
	{name: "explore.overhead.ns", unit: "ns", kind: "pool worker time no layer accounts for, per variant"},
	// durability, per call
	{name: "store.get.ns", unit: "ns", kind: "self time per call: GetEval hit, decode included (replay)"},
	{name: "store.codec.decode.ns", unit: "ns", kind: "self time per call: DecodeAnalysis (replay)"},
	{name: "store.codec.decode.allocs", unit: "allocs", kind: "allocations per call"},
	{name: "store.graft.ns", unit: "ns", kind: "self time per call: Layout.Graft (replay)"},
	{name: "store.put.ns", unit: "ns", kind: "self time per call: PutEval, fsync included (replay)"},
	{name: "store.codec.encode.ns", unit: "ns", kind: "self time per call: EncodeAnalysis (replay)"},
	{name: "journal.append.ns", unit: "ns", kind: "store.put.ns minus store.codec.encode.ns"},
	{name: "store.record_bytes", unit: "B", kind: "encoded analysis size per record"},
	{name: "store.hit_ratio", unit: "ratio", kind: "store hits over GetEval lookups"},
	{name: "fingerprint.layout.ns", unit: "ns", kind: "self time per call: Layout.Fingerprint (replay)"},
	{name: "fingerprint.machine.ns", unit: "ns", kind: "self time per call: Machine.Fingerprint (replay)"},
	// serving, per session, timed from the client
	{name: "serve.submit.ms", unit: "ms", kind: "POST /v1/sessions round trip"},
	{name: "serve.first_line.ms", unit: "ms", kind: "results GET until its first line"},
	{name: "serve.stream.ms", unit: "ms", kind: "first line to the summary line"},
	{name: "serve.lines", unit: "count", kind: "NDJSON lines per session"},
	{name: "serve.bytes", unit: "B", kind: "NDJSON bytes per session"},
	{name: "serve.warm_ratio", unit: "ratio", kind: "sessions served without preparation over sessions"},
	{name: "serve.sweep.ms", unit: "ms", kind: "in-process SweepCached of a warm session on a store copy (replay)"},
	{name: "serve.overhead.ms", unit: "ms", kind: "warm session time minus serve.sweep.ms"},
	// runtime, per untraced request
	{name: "gc.cycles_per_request", unit: "count", kind: "GC cycles over untraced requests"},
	{name: "gc.pause_ms_per_request", unit: "ms", kind: "stop-the-world pause over untraced requests"},
	{name: "heap.alloc_bytes_per_request", unit: "B", kind: "bytes allocated over untraced requests"},
	{name: "heap.allocs_per_request", unit: "allocs", kind: "objects allocated over untraced requests"},
	{name: "trace.overhead_pct", unit: "%", kind: "traced over untraced request time, same classes"},
	{name: "reconcile.gap_pct", unit: "%", kind: "summed span time over untraced request time, same classes"},
}
