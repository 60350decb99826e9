# Development targets. The repo is stdlib-only Go; everything here wraps
# the standard toolchain.
#
# check is the CI gate and runs in this order:
#   1. build  — the whole tree compiles;
#   2. lint   — pqlint's determinism invariants (fast, fails early);
#   3. chaos  — the fault-injection acceptance sweep;
#   4. shards — the sharded-phase determinism gate (bit-identity at shard
#               widths 1/2/4/8 against a serial run);
#   5. perfbench-test — the benchmark's own fidelity tests (traced ==
#               untraced digests: the gate that the route memo stays pure);
#   6. vet    — the standard toolchain's analyzers;
#   7. race   — the short test set under the race detector, which enforces
#               the per-engine isolation invariant (sim.TestEnginesIsolated
#               and the parallel-vs-serial sweep determinism tests in
#               internal/experiment run concurrent full stacks).

GO ?= go

.PHONY: build test check lint bench bench-sweep quick chaos shards perfbench-test mega-smoke load-smoke adapt-smoke giga-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check: build lint chaos shards perfbench-test load-smoke adapt-smoke
	$(GO) vet ./...
	$(GO) test -race -short ./...

# lint runs pqlint, the determinism- and invariant-enforcing static
# analysis suite (internal/lint): no global math/rand, no wall clock in
# simulation code, no order-sensitive map iteration, no exact float
# comparison, no wall-clock-derived seeds — plus the whole-program,
# call-graph-aware analyzers: parsafe (parallel-phase purity) and noalloc
# (annotated hot paths must not allocate along the call chain).
# Suppressions are reasoned //pqlint:allow directives; see DESIGN.md §8.
# On a clean tree pqlint emits its wall-time benchmark line, which folds
# into BENCH.json; on findings there is no bench line, benchjson errors,
# and the pipeline (hence the target) fails with the findings echoed.
lint:
	$(GO) run ./cmd/pqlint -bench ./... | $(GO) run ./cmd/benchjson -merge -out BENCH.json

# chaos runs the fault-injection acceptance sweep: ≥50 randomized fault
# schedules with the invariant checkers armed (skipped under -short, so it
# gets its own target; see internal/experiment/chaos_test.go).
chaos:
	$(GO) test -run 'TestChaos' -count=1 ./internal/experiment

# shards runs the sharded-phase determinism gate (DESIGN.md §15): a full
# experiment over the route cache's parallel prefetch path must render
# bit-identically with sharding off and at widths 1/2/4/8, plus the mid-run
# SetShards resize test. CI additionally race-stresses single widths via
# PQ_SHARDS_STRESS.
shards:
	$(GO) test -run 'TestShards' -count=1 ./internal/experiment

# perfbench-test runs the repository benchmark's own tests (_perfbench is a
# separate module, so the root `go test ./...` does not see it) on their
# short sizes, about 10 s: every workload reproduces the experiment
# harness, and a traced run — which does not prefetch routes — gives the
# same digest as an untraced one, so a route memo that changed an answer
# would fail here.
perfbench-test:
	cd _perfbench && $(GO) test -short ./...

# bench runs the full benchmark suite (figure pipelines, substrate
# micro-benchmarks, ablations) with allocation reporting and converts the
# output into the committed benchmark trajectory BENCH.json (ns/op, B/op,
# allocs/op, custom metrics per benchmark). Compare against the committed
# file to spot perf or allocation regressions. Takes a few minutes: the
# default benchtime is what lets the pooled hot paths reach their
# steady-state (zero-alloc) numbers — CI's smoke step runs the same suite
# at -benchtime=1x as a cheap does-it-run gate.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' . > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	$(GO) run ./cmd/benchjson -out BENCH.json < bench.out
	rm -f bench.out

# mega-smoke runs the 10k-node scale scenario (DESIGN.md §12) on a
# shortened horizon: SINR/DCF with cell-noise interference, churn and a
# fault schedule live, invariant checkers armed. No -race — the point is
# that 10k nodes complete in CI time — and the go-bench metrics line
# (wall clock, allocations, peak heap) is folded into BENCH.json so the
# scale trajectory rides along with the micro-benchmarks.
mega-smoke:
	$(GO) run ./cmd/pqexp -megashort mega | $(GO) run ./cmd/benchjson -merge -out BENCH.json

# giga-smoke runs the giga tier (DESIGN.md §15: oracle neighbors, lazy
# membership, route cache, sharded prefetch) at a CI-sized 25k nodes on the
# shortened horizon, churn/faults/invariants armed, 4 shards wide. The full
# 100k run is `pqexp giga`; this is the does-it-scale gate, and its
# wall-clock/alloc/peak-heap line folds into BENCH.json like mega-smoke's.
giga-smoke:
	$(GO) run ./cmd/pqexp -megashort -gigan 25000 -shards 4 giga | $(GO) run ./cmd/benchjson -merge -out BENCH.json

# load-smoke runs the open-loop workload figure (DESIGN.md §13) on a
# shortened horizon: Poisson and MMPP arrivals against every strategy mix
# with the invariant checkers armed (any violation — including a pending-op
# leak — makes the run nonzero and fails check). The per-mix throughput and
# latency-percentile lines fold into BENCH.json alongside the other suites.
load-smoke:
	$(GO) run ./cmd/pqexp -loadshort load | $(GO) run ./cmd/benchjson -merge -out BENCH.json

# adapt-smoke runs the adaptive-sizing chaos figure (DESIGN.md §14) on a
# shortened horizon: static vs closed-loop quorum sizing under mass-join,
# mass-failure, and ramp drifts, with the invariant checkers (incl. the
# controller's resize-bounds watch and the pending-op drain) armed and
# fatal. The per-drift settled-intersection and message-cost lines fold
# into BENCH.json alongside the other suites.
adapt-smoke:
	$(GO) run ./cmd/pqexp -adaptshort adapt | $(GO) run ./cmd/benchjson -merge -out BENCH.json

# bench-sweep surfaces only the parallel sweep executor's scaling.
bench-sweep:
	$(GO) test -bench=BenchmarkParallelSweep -benchtime=1x -run='^$$' .

# quick regenerates the recorded quick-profile results (with per-figure
# wall clock and effective parallelism).
quick:
	$(GO) run ./cmd/pqexp all > results_quick.txt
