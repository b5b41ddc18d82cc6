# Repo verification. `make verify` is the tier-1 gate every PR must pass:
# build + full test suite, plus a race-detector pass over every package,
# so data races in the hot path are caught on every change. `make lint`
# runs the project's own invariant analyzers (cmd/emcgm-lint) and, when
# installed, golangci-lint; `make fuzz` smoke-runs the native fuzz targets.

GO ?= go
FUZZTIME ?= 10s

.PHONY: verify build test race bench bench-smoke benchmark benchmark-compare benchmark-smoke allocs lint lint-tool lint-selftest contract-selftest lint-timing fuzz

verify: build test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second pass sets GOMAXPROCS to 1 and then 4 (-cpu), so the engine's
# concurrent compute (c > 1 VPs of a processor at once) is raced on any
# runner, whatever its core count.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,4 . ./internal/core

bench:
	$(GO) test -bench=. -benchmem

# Brief race-detector pass over the superstep hot path driven by the
# real benchmarks: the split-phase dispatch benchmarks and one
# end-to-end sort under the default (auto-depth) window. A fixed
# small -benchtime keeps this a smoke test — the race detector needs
# iterations, not statistics.
bench-smoke:
	$(GO) test -race -run '^$$' -bench 'BenchmarkSplitPhaseOp|BenchmarkDiskArrayOp' -benchtime 50x ./internal/pdm/
	$(GO) test -race -run '^$$' -bench 'BenchmarkFig5GroupA/sort-emcgm' -benchtime 2x .

# The repository's benchmark (BENCHMARK.json, benchmark/README.md): every
# workload, the untraced end-to-end run and the traced per-layer run, as
# a table; pass flags through ARGS, e.g.
#
#	make benchmark ARGS='-workloads sort_seq_model -seconds 5 -out a.json'
#
# benchmark-compare judges two such recordings against the per-workload
# bounds (exit 1 on a regression). benchmark-smoke is the CI step: one
# short untraced run of sort_seq_model must verify its output, repeat
# the pinned PDM count (384 at every seed since images stopped carrying a
# count header, which took each 16-block context to 17; 400 with the
# header, the sort in three supersteps and bursts packed by disk; 504
# with four rounds, once contexts moved only when their reader needed
# them moved; 736 with the live-prefix transfer alone; 2664 when every
# context run and message slot moved whole) and allocate under 64 MB per
# iteration (41.5; the figure repeats to 0.001 MB), and one short traced
# run must keep the disk footprint core.max_tracks at or under the
# full-image layout's 396 tracks (395 today). The header's word did not
# move it: c_b = 41 and b′ = 6 blocks either way. It is 32 above what
# four rounds took because the slots of this machine sit 7 blocks apart,
# not b′ = 6, which is what starts consecutive one-block messages on
# consecutive disks when D = 2 divides b′.
benchmark:
	bash benchmark/run.sh $(ARGS)

benchmark-compare:
	bash benchmark/run.sh -compare $(A) $(B)

benchmark-smoke:
	@out=$$($(GO) run ./benchmark -workload sort_seq_model -seconds 2 -trace 0 | tail -n 1); \
	echo "$$out"; \
	echo "$$out" | grep -q '"correct":true' || { echo "benchmark-smoke: output not verified"; exit 1; }; \
	echo "$$out" | grep -q '"parallel_ios":{"value":384,' || { echo "benchmark-smoke: parallel_ios is not 384"; exit 1; }; \
	mb=$$(echo "$$out" | sed -n 's/.*"alloc_mb":{"value":\([0-9.]*\).*/\1/p'); \
	awk -v mb="$$mb" 'BEGIN { exit !(mb != "" && mb + 0 < 64) }' || { echo "benchmark-smoke: alloc_mb '$$mb' is not below 64"; exit 1; }; \
	out=$$($(GO) run ./benchmark -workload sort_seq_model -seconds 2 -trace 1 | tail -n 1); \
	echo "$$out" | grep -q '"correct":true' || { echo "benchmark-smoke: traced output not verified"; exit 1; }; \
	tr=$$(echo "$$out" | sed -n 's/.*"core.max_tracks":{"value":\([0-9.]*\).*/\1/p'); \
	echo "core.max_tracks $$tr"; \
	awk -v tr="$$tr" 'BEGIN { exit !(tr != "" && tr + 0 <= 396) }' || { echo "benchmark-smoke: core.max_tracks '$$tr' is above 396"; exit 1; }

# Allocation profile of the hot path: the dispatch benchmark and the
# local sort's radix kernel must report 0 allocs/op (BenchmarkLocalSort
# prints slices.Sort beside it); BenchmarkPSRSRounds splits the sorter's
# compute by round (init+r0, r1, r2), one VP at the benchmark's per-VP
# size a line. The end-to-end sort should stay well
# under the seed's 38287 allocs/op. The last line also prints B/op of the
# end-to-end sort and permute — the program-boundary allocation (decode
# arenas, outboxes, outputs) that benchmark/'s alloc_mb gates at full scale.
allocs:
	$(GO) test -run '^$$' -bench 'BenchmarkDiskArrayOp' -benchmem ./internal/pdm/
	$(GO) test -run '^$$' -bench 'BenchmarkLocalSort|BenchmarkPSRSRounds' -benchmem ./internal/sortalg/
	$(GO) test -run '^$$' -bench 'BenchmarkFig5GroupA/(sort-emcgm|permute)$$' -benchmem .

# Build the invariant lint suite as a standalone vet tool and print its
# absolute path, so shell substitution composes:
#
#	go vet -vettool=$$(make -s lint-tool) ./...
lint-tool:
	@$(GO) build -o bin/emcgm-lint ./cmd/emcgm-lint
	@echo $(CURDIR)/bin/emcgm-lint

# Invariant lint, the four contracts only a static check can hold:
# hotpathalloc (no heap allocation in emcgm:hotpath functions), detorder
# and iopurity (no nondeterminism source and no I/O but pdm/layout in
# emcgm:deterministic scope), ioerrcheck (no dropped I/O errors). The
# split-phase, barrier, span and config contracts are held by the
# engine's own tests (DESIGN.md §10; `make contract-selftest`). Driven
# through `go vet -vettool` so per-package results land in the build
# cache; golangci-lint runs too when present — it is not vendored, so
# the target degrades gracefully without it.
lint:
	$(GO) vet ./...
	$(GO) vet -vettool=$$($(MAKE) -s lint-tool) ./...
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; skipped (CI runs it)"; \
	fi

# Seeded-negative self-test: run each analyzer alone over its own
# violation fixtures and require findings (exit 1). A refactor that
# silences an analyzer fails here, not in code review. The second loop
# requires a "via" witness chain in the output of every interprocedural
# analyzer, so the summary propagation cannot silently degrade to the
# old intraprocedural behavior. The waived fixtures in the same packages
# double as false-positive coverage: any unexpected diagnostic fails the
# antest suites under `make test`.
lint-selftest:
	@tool=$$($(MAKE) -s lint-tool); \
	for f in iopurity:iop hotpathalloc:hp detorder:det ioerrcheck:ioe; do \
		name=$${f%%:*}; pkg=$${f##*:}; \
		if $$tool -run $$name ./internal/analysis/testdata/src/$$name/$$pkg >/dev/null; then \
			echo "lint-selftest: $$name reported nothing on its seeded violations"; exit 1; \
		fi; \
		echo "lint-selftest: $$name still fires"; \
	done; \
	for f in hotpathalloc:hp detorder:det ioerrcheck:ioe iopurity:iop; do \
		name=$${f%%:*}; pkg=$${f##*:}; \
		if ! $$tool -run $$name ./internal/analysis/testdata/src/$$name/$$pkg 2>/dev/null | grep -q ' (via \| via '; then \
			echo "lint-selftest: $$name lost its interprocedural witness chains"; exit 1; \
		fi; \
		echo "lint-selftest: $$name prints witness chains"; \
	done

# The same self-test for the contracts the engine's tests hold instead of
# an analyzer (DESIGN.md §10): scripts/contract_mutations.sh breaks each
# one in a scratch copy of the tree — touch a loaned buffer, drop a read
# or a write hand-off, leak the superstep span, drop the barrier's
# compensating sends — and requires the owning test to fail by name.
# A minute and a half; one mutation wedges a run until its 30 s watchdog.
contract-selftest:
	@sh scripts/contract_mutations.sh

# Lint wall-time budget: the suite's cost relative to a plain `go vet`
# of the same tree, gated against the committed baseline ratio. An
# analyzer change that more than doubles relative lint cost fails here
# and must either be optimised or deliberately recorded by refreshing
# scripts/lint_timing.baseline.
lint-timing:
	@sh scripts/lint_timing.sh

# Native fuzz smoke: go test -fuzz accepts one target per invocation, so
# each property gets its own run. FUZZTIME=2m make fuzz for a longer soak.
fuzz:
	$(GO) test ./internal/wordcodec -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/balance -run '^$$' -fuzz FuzzBalancedRouting -fuzztime $(FUZZTIME)
	$(GO) test ./internal/layout -run '^$$' -fuzz FuzzStaggeredLayout -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pdm -run '^$$' -fuzz FuzzBatchCoalesce -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sortalg -run '^$$' -fuzz FuzzSortKeys -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sortalg -run '^$$' -fuzz FuzzMergeTwo -fuzztime $(FUZZTIME)
