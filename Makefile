GO ?= go

.PHONY: all build vet fmt-check test race bench bench-profile bench-store bench-adaptive bench-smoke chaos-disk fuzz-short loc check

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
# memo caches, and fault-injection points are all concurrency-sensitive).
test: vet
	$(GO) test -race ./...

# Race-detect the concurrency-heavy packages (worker pools, memo caches).
race:
	$(GO) test -race ./internal/pipeline/... ./internal/explore/...

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

# The durability layers under disk fire: the scriptable-fault suites of
# iofault, journal, and store, the pipeline chaos-disk scenarios (failing
# fsync, ENOSPC mid-sweep, torn final record, EIO on reopen — all five
# workloads, bit-identical-or-explicitly-degraded), and the daemon
# robustness tests (overload shedding, session GC, stalled streams, the
# self-healing scrubber), all under the race detector.
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
# (bench/ is a module of its own and is not counted). CHANGES.md records
# these figures before and after every deletion.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		printf '%7d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%7d total\n", total }'

# bench/ is a module of its own, so `vet` does not reach it; vetting it
# here keeps every root-module name it uses compiling.
check: build vet fmt-check test
	cd bench && $(GO) vet ./...
