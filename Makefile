# Build/verify entry points. `make ci` is what the repo considers green:
# vet, gofmt, the documentation linter, and the full test suite under the race
# detector (the wear engine and pim.Sweep are concurrent; racing them is
# part of tier-1).

GO ?= go

# Packages whose exported symbols must all carry doc comments (public
# API + instrumented engine layers). Enforced by `make doclint`.
DOC_PKGS = ./pim ./pim/kernel ./internal/obs ./internal/core ./internal/pool ./internal/serve ./internal/system ./internal/device ./internal/fleet

.PHONY: all build vet test race race-obs race-core race-serve race-system race-fleet bench bench-alloc bench-json bench-current benchdiff bench-module report report-diff ci doclint promlint fmt

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Per-layer race targets, for local use (`race` covers them all in `ci`).
# The telemetry layer (event ring, series registry, live servers) is the
# most lock-sensitive code in the repo; run its suite under the race
# detector explicitly so a failure names the layer, not the world.
race-obs:
	$(GO) test -race ./internal/obs/...

# The wear engine shards epoch groups over the worker pool and shares one
# immutable WearPlan across concurrent strategies; race their suite
# explicitly so an engine-level data race is named as such.
race-core:
	$(GO) test -race ./internal/core/...

# The serving layer multiplexes one queue, one plan cache and one jobs
# map across every concurrent request — including a 1000-connection
# storm test; race it explicitly so a serving-path data race is named.
race-serve:
	$(GO) test -race ./internal/serve/...

# The bank scheduler runs per-bank simulations concurrently over one
# shared WearPlan (and the pim facade layers a PlanCache on top); race
# the system suite explicitly so a cross-bank data race is named.
race-system:
	$(GO) test -race ./internal/system/...

# The fleet engine shards device batches over the worker pool, caches
# hazard tables on shared Groups and recycles sample buffers through a
# package free list; race its suite (plus the pim.Fleet facade tests)
# explicitly so a draw-path data race is named.
race-fleet:
	$(GO) test -race ./internal/fleet/... ./pim/...

# Format check: fail when gofmt would rewrite any Go file in the tree
# (`gofmt -w <file>` fixes one).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: unformatted files:"; echo "$$out"; exit 1; fi

# Doc-lint: fail on undocumented exported symbols (revive `exported`
# rule stand-in, zero dependencies).
doclint:
	$(GO) run ./internal/tools/doclint $(DOC_PKGS)

# Metrics-lint: self-test the repository's Prometheus exposition —
# every family needs # HELP/# TYPE, names must stay in the metric-name
# alphabet, histogram buckets must be cumulative and close at an
# le="+Inf" equal to _count. Point it at a live server with
# `go run ./internal/tools/promlint -target http://localhost:8090`.
promlint:
	$(GO) run ./internal/tools/promlint

# One benchmark pass; BenchmarkHwEngine/speedup reports the parallel +
# memoized engine's gain over the serial reference as `speedup_x`, and
# BenchmarkHwEngine/obs-overhead reports the observability layer's
# enabled-vs-disabled cost on the same sweep as `obs_overhead_x`
# (disabled cost is the <2% design budget).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Allocation smoke: run the steady-state hot-path benchmarks (the shared-
# plan sweeps, the serving path and the packed array) once with -benchmem
# and print one line per benchmark — B/op and allocs/op at a glance. The
# arena discipline (internal/core/arena.go) is what keeps these flat;
# `make ci` runs this as a 1x smoke so an allocation leak in the hot path
# is visible even before the benchdiff gate compares snapshots.
bench-alloc:
	@$(GO) test -run '^$$' -bench 'BenchmarkSweep$$|BenchmarkServeSweep|BenchmarkArrayIteration|BenchmarkHwEngine|BenchmarkFleet' \
		-benchmem -benchtime=1x . \
		| awk '/^Benchmark/ { name=$$1; bop="-"; aop="-"; \
			for (i=2; i<NF; i++) { if ($$(i+1)=="B/op") bop=$$i; if ($$(i+1)=="allocs/op") aop=$$i } \
			printf "%-60s %14s B/op %10s allocs/op\n", name, bop, aop }'

# Machine-readable benchmark snapshot: run the engine benchmark suite
# (the root package's per-figure benchmarks) and convert the output to
# BENCH_engine.json via internal/tools/benchjson. Committed so perf
# claims (speedup_x of the closed-cycle +Hw replay and the bit-packed
# array) are diffable; regenerate after engine changes with
# BENCHTIME=5x or higher for steadier numbers.
BENCHTIME ?= 1x
bench-json:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) . \
		| $(GO) run ./internal/tools/benchjson -o BENCH_engine.json

# Fresh benchmark snapshot for the regression gate, kept out of the
# committed baseline's path (out/ is gitignored).
bench-current:
	@mkdir -p out
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) . \
		| $(GO) run ./internal/tools/benchjson -o out/bench_current.json

# Benchmark regression gate: compare a fresh run against the committed
# BENCH_engine.json and report ns/op deltas. Advisory by default (single
# -benchtime=1x runs are noisy); pass BENCHDIFF_FLAGS=-strict to fail on
# a >25% regression, e.g. in a scheduled CI job with BENCHTIME=5x.
BENCHDIFF_FLAGS ?=
benchdiff: bench-current
	$(GO) run ./internal/tools/benchdiff -new out/bench_current.json $(BENCHDIFF_FLAGS)

# The bench/ module has its own go.mod, so the root ./... neither builds
# nor tests it; yet it compiles against obs, serve, pim and fleet. Vet
# and test it on its own, offline and outside any workspace.
BENCH_MODULE_ENV = GOPROXY=off GOFLAGS= GOWORK=off
bench-module:
	$(BENCH_MODULE_ENV) $(GO) -C bench vet ./...
	$(BENCH_MODULE_ENV) $(GO) -C bench test ./...

# Full paper reproduction (use -quick via REPORT_FLAGS for a fast pass).
report:
	$(GO) run ./cmd/endurance-report $(REPORT_FLAGS)

# Report determinism: the quick report at -workers 1 and at -workers 2,
# into two temporary directories, must write the same files byte for
# byte. Only the run manifest (args, timings) and the trace timeline may
# differ. With BASE=<rev>, the same quick report is also built from a
# temporary export of <rev> (local git only, removed on exit) and must
# match this tree's — the check for a change that must leave every
# result unchanged.
REPORT_DIFF_FLAGS = -quick -lanes 64 -iters 400 -trials 20
report-diff:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	report() { \
		"$$1" $(REPORT_DIFF_FLAGS) -workers $$2 -out "$$tmp/$$3" >"$$tmp/log" 2>&1 \
			|| { cat "$$tmp/log"; echo "report-diff: the $$3 report failed"; exit 1; }; \
	}; \
	$(GO) build -o "$$tmp/endurance-report" ./cmd/endurance-report; \
	report "$$tmp/endurance-report" 1 w1; \
	report "$$tmp/endurance-report" 2 w2; \
	diff -r -x 'manifest_*' -x 'trace_*' "$$tmp/w1" "$$tmp/w2"; \
	echo "report-diff: -workers 1 and 2 wrote the same $$(ls "$$tmp/w1" | wc -l) files"; \
	if [ -n "$(BASE)" ]; then \
		mkdir "$$tmp/src"; \
		git archive "$(BASE)" | tar -x -C "$$tmp/src"; \
		$(GO) -C "$$tmp/src" build -o "$$tmp/base-report" ./cmd/endurance-report; \
		report "$$tmp/base-report" 1 base; \
		diff -r -x 'manifest_*' -x 'trace_*' "$$tmp/base" "$$tmp/w1"; \
		echo "report-diff: $(BASE) and this tree wrote the same $$(ls "$$tmp/w1" | wc -l) files"; \
	fi

# `race` runs every package under the race detector exactly once; the
# per-layer race-obs/core/serve/system/fleet targets race subsets of the
# same packages and stay out of `ci` for local use, when a failure should
# name its layer.
# `bench` doubles as the CI benchmark smoke: -benchtime=1x executes every
# benchmark body once, catching bit-rot in the measurement harness.
# `bench-alloc` prints the hot-path B/op / allocs/op one-liners, and
# `benchdiff` then diffs a fresh snapshot — BenchmarkHwEngine, the
# BenchmarkSweep sweep benchmarks, BenchmarkServeSweep's cold/cached
# serving-throughput pair and BenchmarkFleet's draws/cold/cached/speedup
# quartet included, timing and allocs/op both — against the committed
# baseline: advisory locally, strict when BENCHDIFF_FLAGS=-strict.
# `report-diff` checks that the report is identical across worker counts
# (`make report-diff BASE=<rev>` also checks it against <rev>).
# `bench-module` vets and tests the nested bench/ module.
ci: vet fmt doclint promlint race bench bench-alloc benchdiff report-diff bench-module
