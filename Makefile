# Build/verify entry points. `make ci` is what the repo considers green:
# vet, gofmt, the documentation linter, and the full test suite under the race
# detector (the wear engine and pim.Sweep are concurrent; racing them is
# part of tier-1).

GO ?= go

# Packages whose exported symbols must all carry doc comments (public
# API + instrumented engine layers). Enforced by `make doclint`.
DOC_PKGS = ./pim ./pim/kernel ./internal/obs ./internal/core ./internal/pool ./internal/serve ./internal/system ./internal/device ./internal/fleet ./internal/faults ./internal/stats

.PHONY: all build vet test race race-obs race-core race-serve race-system race-fleet bench bench-alloc bench-json bench-current benchdiff bench-module report report-diff report-check abtest ci doclint promlint fmt

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

# The bank scheduler routes blocks through per-bank steppers on one
# shared WearPlan, and pim.BankStripe then runs the banks concurrently
# through pim's run fan-out, so the bank runs execute in pim: race both
# suites explicitly so a cross-bank data race is named.
race-system:
	$(GO) test -race ./internal/system/... ./pim/...

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

# One benchmark pass. The root package's per-figure benchmarks run once,
# in bench-current; this target smokes every other package's tests and
# benchmarks. BenchmarkHwEngine/speedup reports the parallel + memoized
# engine's gain over the serial reference as `speedup_x`, and
# BenchmarkHwEngine/obs-overhead reports the observability layer's
# enabled-vs-disabled cost on the same sweep as `obs_overhead_x`
# (disabled cost is the <2% design budget).
bench: bench-current
	$(GO) test -bench=. -benchmem -benchtime=1x $$($(GO) list ./... | grep -vx pimendure)

# Allocation smoke: print one line per steady-state hot-path benchmark
# (the shared-plan sweeps, the serving path and the packed array) of
# bench-current's run — B/op and allocs/op at a glance. The arena
# discipline (internal/core/arena.go) is what keeps these flat; `make ci`
# prints them so an allocation leak in the hot path is visible even
# before the benchdiff gate compares snapshots.
bench-alloc: bench-current
	@awk '/^Benchmark(Sweep\/|ServeSweep|ArrayIteration|HwEngine|Fleet|GiniCoV)/ { name=$$1; bop="-"; aop="-"; \
			for (i=2; i<NF; i++) { if ($$(i+1)=="B/op") bop=$$i; if ($$(i+1)=="allocs/op") aop=$$i } \
			printf "%-60s %14s B/op %10s allocs/op\n", name, bop, aop }' out/bench_current.txt

# Machine-readable benchmark snapshot: run the engine benchmark suite
# (the root package's per-figure benchmarks) and convert the output to
# BENCH_engine.json via internal/tools/benchjson. Committed so perf
# claims (speedup_x of the closed-cycle +Hw replay and the bit-packed
# array) are diffable. Record it at the BENCHTIME `make ci` runs (1x,
# the default): benchdiff compares only entries measured over the same
# iteration count.
BENCHTIME ?= 1x
bench-json:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) . \
		| $(GO) run ./internal/tools/benchjson -o BENCH_engine.json

# Fresh benchmark snapshot for the regression gate, kept out of the
# committed baseline's path (out/bench_current.* is gitignored): the one
# run of the root package's benchmarks per `make ci`, which bench,
# bench-alloc and benchdiff share. The raw output goes to
# out/bench_current.txt and is printed, and a failing benchmark fails the
# target; benchjson converts it to out/bench_current.json.
bench-current:
	@mkdir -p out
	@$(GO) test -run '^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) . >out/bench_current.txt; \
		status=$$?; cat out/bench_current.txt; exit $$status
	$(GO) run ./internal/tools/benchjson -o out/bench_current.json <out/bench_current.txt

# Benchmark regression gate: compare a fresh run against the committed
# BENCH_engine.json and report ns/op deltas. Only entries run over the
# baseline's iteration count are compared (it is recorded at 1x, the
# default BENCHTIME); the others are listed as not comparable. Advisory
# by default; pass BENCHDIFF_FLAGS=-strict to fail on a >25% regression
# or an entry that could not be compared, e.g. in a scheduled CI job.
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

# Report determinism: the quick report and a small fleet study (all 18
# strategies × 4 technologies × 2 σ), each at -workers 1 and at -workers
# 2 into temporary directories, must write the same files byte for
# byte. Only the run manifest (args, timings) and the trace timeline may
# differ. With BASE=<rev>, both are also built from a temporary export
# of <rev> (local git only, removed on exit) and must match this tree's
# — the check for a change that must leave every result unchanged.
REPORT_DIFF_FLAGS = -quick -lanes 64
report-diff:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/bin"; \
	build() { \
		$(GO) -C "$$1" build -o "$$tmp/bin/$$2-report" ./cmd/endurance-report; \
		$(GO) -C "$$1" build -o "$$tmp/bin/$$2-fleet" ./cmd/fleet; \
	}; \
	run() { \
		"$$tmp/bin/$$1-report" $(REPORT_DIFF_FLAGS) -workers $$2 -out "$$tmp/$$3" >"$$tmp/log" 2>&1 \
			|| { cat "$$tmp/log"; echo "report-diff: the $$3 report failed"; exit 1; }; \
		"$$tmp/bin/$$1-fleet" -lanes 64 -rows 256 -bits 8 -iters 400 -devices 20000 -sigmas 0.3,0.6 \
			-workers $$2 -out "$$tmp/$$3-fleet" >"$$tmp/log" 2>&1 \
			|| { cat "$$tmp/log"; echo "report-diff: the $$3 fleet study failed"; exit 1; }; \
	}; \
	same() { \
		diff -r -x 'manifest_*' -x 'trace_*' "$$tmp/$$1" "$$tmp/$$2"; \
		diff -r -x 'manifest_*' -x 'trace_*' "$$tmp/$$1-fleet" "$$tmp/$$2-fleet"; \
		echo "report-diff: $$3 wrote the same $$(ls "$$tmp/$$2" | wc -l) report files and $$(ls "$$tmp/$$2-fleet" | wc -l) fleet files"; \
	}; \
	build . head; \
	run head 1 w1; \
	run head 2 w2; \
	same w1 w2 "-workers 1 and 2"; \
	if [ -n "$(BASE)" ]; then \
		mkdir "$$tmp/src"; \
		git archive "$(BASE)" | tar -x -C "$$tmp/src"; \
		build "$$tmp/src" base; \
		run base 1 base; \
		same base w1 "$(BASE) and this tree"; \
	fi

# Committed artifacts are checked, not trusted: regenerate the
# full-fidelity report and the paper-scale fleet study (`cmd/fleet
# -sigmas 0.3,0.6`) into a temporary directory and compare every file
# that git tracks under out/ with what the code writes now, byte for
# byte. PNGs, manifests, traces, event logs and series are never
# tracked, so never compared. About 40 s on 2 cores, so it stays out of
# `ci`; run it for any change that regenerates the reports or claims
# them unchanged at full fidelity.
report-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/endurance-report" ./cmd/endurance-report; \
	$(GO) build -o "$$tmp/fleet" ./cmd/fleet; \
	"$$tmp/endurance-report" -out "$$tmp/out" >"$$tmp/log" 2>&1 \
		|| { cat "$$tmp/log"; echo "report-check: the report failed"; exit 1; }; \
	"$$tmp/fleet" -sigmas 0.3,0.6 -out "$$tmp/out" >"$$tmp/log" 2>&1 \
		|| { cat "$$tmp/log"; echo "report-check: the fleet study failed"; exit 1; }; \
	files=$$(git ls-files out/ | grep -Ev '\.png$$|/(manifest|trace|events|series)_'); \
	bad=0; for f in $$files; do \
		diff "$$f" "$$tmp/$$f" >"$$tmp/diff" 2>&1 || { echo "report-check: $$f differs:"; head -20 "$$tmp/diff"; bad=$$((bad+1)); }; \
	done; \
	n=$$(echo "$$files" | wc -w); \
	if [ $$bad -ne 0 ]; then echo "report-check: $$bad of $$n committed files differ from what the code writes"; exit 1; fi; \
	echo "report-check: all $$n committed files under out/ match what the code writes"

# Paired A/B measurement of this tree against BASE (default HEAD):
# `make abtest BASE=<rev> BENCH=<regex> PAIRS=N` alternates the two
# trees' `go test -c` binaries over the root package's benchmarks, and
# `make abtest BASE=<rev> WORKLOAD=<name> PAIRS=N` alternates
# `bash bench/run.sh -workload <name> -record` in the two trees. Either
# prints each side's median and quartiles, the median ratio, the pairs
# won and whether the change clears both the percentage threshold and
# k×MAD; ABTEST_FLAGS passes more (-seed for a workload). BASE
# is exported with `git archive` into a temporary directory, removed on
# exit; nothing is downloaded.
PAIRS ?= 10
ABTEST_FLAGS ?=
abtest:
	$(GO) run ./internal/tools/abtest -base '$(or $(BASE),HEAD)' -pairs $(PAIRS) \
		$(if $(WORKLOAD),-workload '$(WORKLOAD)',-bench '$(or $(BENCH),.)') $(ABTEST_FLAGS)

# `race` runs every package under the race detector exactly once; the
# per-layer race-obs/core/serve/system/fleet targets race subsets of the
# same packages and stay out of `ci` for local use, when a failure should
# name its layer.
# `bench` doubles as the CI benchmark smoke: -benchtime=1x executes every
# benchmark body once, catching bit-rot in the measurement harness; the
# root package's benchmarks run once, in bench-current, whose snapshot
# `bench-alloc` prints as hot-path B/op / allocs/op one-liners and
# `benchdiff` diffs — BenchmarkHwEngine, the
# BenchmarkSweep sweep benchmarks, BenchmarkServeSweep's cold/cached
# serving-throughput pair and BenchmarkFleet's draws/cold/cached/speedup
# quartet included, timing and allocs/op both — against the committed
# baseline: advisory locally, strict when BENCHDIFF_FLAGS=-strict.
# `report-diff` checks that the report and a small fleet study are
# identical across worker counts (`make report-diff BASE=<rev>` also
# checks them against <rev>).
# `bench-module` vets and tests the nested bench/ module.
ci: vet fmt doclint promlint race bench bench-alloc benchdiff report-diff bench-module
