# Development entry points. `make check` is what CI runs.

GO ?= go

# Every package with benchmarks: the root experiment benches (E1–E12),
# the script kernels (VM, plus the test-only tree-walking reference for
# comparison), the ORB invocation/pipelining suites (E13),
# the sharded-trader E14 suite, the metrics hot paths, and the
# internal/experiment macro benches (E16 SLO routing).
BENCHPKGS = . ./internal/script ./internal/orb ./internal/trading/... ./internal/metrics ./internal/experiment

# Knobs for bench-smoke, overridden by bench-regression/bench-baseline.
SMOKE_BENCHTIME ?= 1x
SMOKE_COUNT ?= 1

# Settings for the perf gate. Time-based benchtime so nanosecond-scale
# benches get millions of iterations while macro benches run a handful.
# The suite is run REGRESSION_PASSES separate times and benchdiff takes
# the min per bench across all passes — a transient CPU-steal burst on a
# shared runner hits consecutive benches within one pass, not the same
# bench in every pass. The ignore list excludes open-loop/concurrency/
# whole-simulation benches whose timings and allocation counts depend on
# scheduler and timer interleaving — those still run (bench-smoke covers
# breakage) but are not gated.
REGRESSION_BENCHTIME ?= 50ms
REGRESSION_PASSES ?= 1 2 3
BENCH_IGNORE ?= OpenLoop|Concurrent|Oneway|RemoteQuery|LoadSharing|SLORouting|RelaxedRequery|EventVsPolling|Postponed|TCP
BENCH_BASELINE ?= bench_baseline.json

# Fuzz budget per target in `make chaos`; nightly CI raises it to 5m.
FUZZTIME ?= 10s

.PHONY: check vet build test race bench bench-smoke bench-regression bench-baseline chaos

check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem $(BENCHPKGS)

# One iteration of every benchmark: catches benches that break (compile
# errors, Fatal paths) without paying for stable numbers. CI runs this.
bench-smoke:
	$(GO) test -run xxx -bench . -benchmem -benchtime=$(SMOKE_BENCHTIME) -count=$(SMOKE_COUNT) $(BENCHPKGS)

# Perf gate: re-run the bench suite and compare ns/op (+15% budget,
# machine-speed rescaled) and allocs/op (any increase fails) against the
# committed baseline. CI runs this on every PR; the delta table lands in
# the job summary.
# On failure, one retry pass is min-merged in before the final verdict:
# extra samples can clear a noise-induced false positive but can never
# mask a real regression (the min cannot drop below the code's true
# speed).
bench-regression:
	rm -f bench_new_*.txt
	for i in $(REGRESSION_PASSES); do \
		$(MAKE) --no-print-directory bench-smoke SMOKE_BENCHTIME=$(REGRESSION_BENCHTIME) > bench_new_$$i.txt || exit 1; \
	done
	$(GO) run ./cmd/benchdiff -baseline $(BENCH_BASELINE) -ignore '$(BENCH_IGNORE)' -md benchdiff.md bench_new_*.txt || ( \
		echo "bench-regression: retrying once to rule out runner noise" && \
		$(MAKE) --no-print-directory bench-smoke SMOKE_BENCHTIME=$(REGRESSION_BENCHTIME) > bench_new_retry.txt && \
		$(GO) run ./cmd/benchdiff -baseline $(BENCH_BASELINE) -ignore '$(BENCH_IGNORE)' -md benchdiff.md bench_new_*.txt )

# Refresh the committed baseline after an intentional perf change.
bench-baseline:
	rm -f bench_new_*.txt
	for i in $(REGRESSION_PASSES); do \
		$(MAKE) --no-print-directory bench-smoke SMOKE_BENCHTIME=$(REGRESSION_BENCHTIME) > bench_new_$$i.txt || exit 1; \
	done
	$(GO) run ./cmd/benchdiff -write -o $(BENCH_BASELINE) -ignore '$(BENCH_IGNORE)' bench_new_*.txt

# Hostile-input and overload robustness suites: admission control
# under request storms, the frame batcher's failure handling, budget
# sandboxing of shipped scripts (including the hostile differential
# corpus, run on the VM and the tree-walking reference), the script
# parser's depth limit on megabyte-deep chunks and the VM's register and
# constant limits, script/aspect/strategy quarantine, the wire fuzz
# properties, the trader's depth limit on megabyte-deep constraint and
# preference strings and its per-type index differential, plus a short
# run of the native fuzzers — including the VM/tree-walker differential
# fuzzer, the constraint/preference fuzzers, which check Query against a
# reference scan, and the IDL loader fuzzer, which checks a loaded
# repository against itself — and the E15 governed-vs-ungoverned
# overload experiment.
chaos:
	$(GO) test -count=1 -run 'Admission|Overloaded|LegacySpill|Batcher' ./internal/orb
	$(GO) test -count=1 -run 'Budget|CallCtx|MemBudget|Differential|DeepRecursion|TooDeep|DepthLimit|Compile.*Limit' ./internal/script
	$(GO) test -count=1 -run 'Quarantine|OrdinaryScriptErrors' ./internal/monitor ./internal/core
	$(GO) test -count=1 -run 'Property|Decode|Frame|Truncat|Overloaded' ./internal/wire
	$(GO) test -count=1 -run '^$$' -fuzz FuzzDecodeMessage -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -count=1 -run '^$$' -fuzz FuzzCompileResolve -fuzztime $(FUZZTIME) ./internal/script
	$(GO) test -count=1 -run '^$$' -fuzz FuzzVMDiff -fuzztime $(FUZZTIME) ./internal/script
	$(GO) test -count=1 -run 'TooDeep|DepthLimit|IndexDifferential' ./internal/trading
	$(GO) test -count=1 -run '^$$' -fuzz FuzzConstraint -fuzztime $(FUZZTIME) ./internal/trading
	$(GO) test -count=1 -run '^$$' -fuzz FuzzPreference -fuzztime $(FUZZTIME) ./internal/trading
	$(GO) test -count=1 -run '^$$' -fuzz FuzzIDL -fuzztime $(FUZZTIME) ./internal/idl
	$(GO) test -count=1 -run 'Overload|HostileQuarantine' ./internal/experiment
