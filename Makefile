GO ?= go

.PHONY: all build vet fmt-check test race allocs bench bench-profile bench-store bench-adaptive bench-smoke chaos-disk fuzz-short loc deadnames check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails if any file needs reformatting (gofmt -l prints offenders).
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# One gate: vet + the full suite under the race detector (worker pools,
# the result store, and fault-injection points are all
# concurrency-sensitive).
test: vet
	$(GO) test -race ./...

# Race-detect the concurrency-heavy packages (worker pools, store writes).
race:
	$(GO) test -race ./internal/pipeline/... ./internal/explore/...

# The allocation gates. They skip themselves under the race detector,
# where allocation counts vary, so `make test` never runs them: a loop
# without user calls allocates as much at 10^5 iterations as at 10^3, a
# projection as much at 41 blocks as at 4, a 2,048-variant sweep at
# most 6.2 objects per variant, building a workload's BET as much at 10^9
# times its inputs as at 1, and a Prepare of each workload at most about
# 2% above the allocation count its bound records (measured with go1.24;
# the test skips under other releases).
allocs:
	$(GO) test -count=1 -run '^(TestLoopAllocsFlat|TestAssembleAllocsFlat|TestSweepAllocsPerVariant|TestBuildSizeInputInvariance|TestPrepareAllocs)$$' ./internal/interp/ ./internal/hotspot/ ./internal/pipeline/

bench:
	$(GO) test -bench=. -benchmem ./...

# The profiling pass (interp.New + Run with the branch profiler) on each
# workload: time, steps and ns/step, allocations. This is the layer that
# sets what preparing a workload costs.
bench-profile:
	$(GO) test -run '^$$' -bench BenchmarkProfile -benchmem ./internal/interp/

# Cold-vs-warm throughput of the content-addressed result store; the
# pinned numbers live in BENCH_store.json.
bench-store:
	$(GO) test -run '^$$' -bench 'BenchmarkSweepCached' -benchmem ./internal/pipeline/

# Exhaustive vs surrogate-guided evals-to-optimum on the 600-variant
# parity grid; the adaptive side asserts it found the exact exhaustive
# optimum. Pinned numbers live in BENCH_adaptive.json.
bench-adaptive:
	$(GO) test -run '^$$' -bench 'BenchmarkAdaptiveVsExhaustive' -benchtime 3x ./internal/explore/

# One-iteration smoke over the store benchmarks: proves the cold and warm
# paths still run (and that warm is actually warm — the benchmark fails if
# preparation is not skipped) without paying for a full measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSweepCached' -benchtime 1x ./internal/pipeline/

# The durability layer under disk fire: the scriptable-fault suites of
# iofault, journal (the store's log) and store, the pipeline chaos-disk
# scenarios against the store (failing fsync, ENOSPC mid-sweep, torn final
# record, EIO on reopen — all five workloads, bit-identical-or-explicitly-
# degraded, and a rerun on the healed disk served the durable prefix), and
# the daemon robustness tests (overload shedding, session GC, stalled
# streams, the self-healing scrubber), all under the race detector.
chaos-disk:
	$(GO) test -race -count=1 ./internal/iofault/ ./internal/journal/ ./internal/store/
	$(GO) test -race -count=1 -run 'TestChaosDisk' ./internal/pipeline/
	$(GO) test -race -count=1 -run 'TestOverloadShedding|TestSessionGC|TestStalledStreamReader|TestScrubberQuarantinesAndHeals' ./cmd/skoped/

# Short fuzz smoke over the three parser frontiers and the adaptive
# planner's axis-spec surface (10s per target).
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test ./internal/expr -run FuzzExprParse -fuzz FuzzExprParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/skeleton -run FuzzSkeletonParse -fuzz FuzzSkeletonParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/minilang -run FuzzMinilangParse -fuzz FuzzMinilangParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/explore -run '^$$' -fuzz FuzzAdaptivePlannerAxes -fuzztime $(FUZZTIME)

# Non-test Go lines per package of the root module, then the total
# (bench/ is a module of its own and is not counted; a package of test
# files only, such as internal/tools/deadnames, has none). CHANGES.md
# records these figures before and after every deletion.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		[ -n "$$files" ] || continue; \
		printf '%7d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%7d total\n", total }'

# The dead-name check alone: fails, naming file:line, on every name of the
# root module that no non-test file of the root module or of bench/ uses.
# It also runs inside `go test ./...`.
deadnames:
	$(GO) test -count=1 ./internal/tools/deadnames/

# bench/ is a module of its own, so `vet` does not reach it; vetting it
# here keeps every root-module name it uses compiling.
check: build vet fmt-check test
	cd bench && $(GO) vet ./...
