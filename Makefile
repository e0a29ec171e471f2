# Tier-1 verification plus the race-detector gate for the concurrent
# packages. `make` (or `make all`) is what CI runs.
GO ?= go

.PHONY: all vet build test race allocguard ratchet schedbench sparsebench bench fuzz lint vuln loc

all: vet build test race ratchet

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on surfaces order-dependent tests (CI runs the same).
test:
	$(GO) test -shuffle=on ./...

# The scheduling service, the system facade and the HTTP front door are
# the packages with concurrency (or concurrent callers); their stress
# tests — including the priority differential traces, the preemption
# chaos stress and the 64-client overload+chaos front-door stress — must
# stay race-clean.
race:
	$(GO) test -race -shuffle=on ./internal/sched ./internal/system ./internal/obs ./internal/server

# Warm-solver pivot ratchet plus the three-engine min-cost cross-check:
# the warm network simplex must pivot strictly less than cold on the
# reference trace, and out-of-kilter / SSP / simplex must agree. The ops
# ratchet holds arc scans per granted task on the pinned warm-cold trace
# within 10% of the recorded baseline (the counters are deterministic,
# so the threshold is absolute), and the parity test pins the counting
# convention itself. The rsinbench smoke run evaluates its whole gate
# table (warm-start, tier, ops, gang, multi): among the rest, zero partial
# grants, intact accounting identities, bounded multicommodity gaps on a
# probe that reached both the bound-certified path and the LP behind it.
ratchet:
	$(GO) test -run 'TestWarmSimplexPivotRatchet|TestMinCostIncremental' ./internal/core
	$(GO) test -run 'TestQuickCrossSolver|TestNegativeCostRegressions' ./internal/netsimplex
	$(GO) test -run 'TestOpsCounterParity' ./internal/maxflow
	$(GO) test -run 'TestOpsGateRatchet' ./cmd/rsinbench
	$(GO) run ./cmd/rsinbench -sched -smoke

# The instrumentation hot path must not allocate (disabled or enabled),
# and a bound-certified typed epoch on a warm planner allocates only the
# Mapping it returns; CI runs the same guards.
allocguard:
	$(GO) test -run 'TestDisabledObsAllocFree|TestNilInstruments|TestLiveInstrumentsAllocFree' ./internal/sched ./internal/obs
	$(GO) test -run 'TestTypedEpochAllocs' ./internal/core

# Machine-readable scheduling-service benchmark (see EXPERIMENTS.md for
# the BENCH_sched.json format; the file is an artifact, not committed).
# Every gate in rsinbench's table runs; -openloop adds the overload sweep
# and its shed gate.
schedbench:
	$(GO) run ./cmd/rsinbench -sched -openloop -json BENCH_sched.json

# Flush-policy smoke: 8 closed-loop clients keep far less than one batch
# in flight, so their median latency is the flush policy's. It must stay
# under 0.5 ms — 20x what flushing on an idle queue measures, half of
# what any 500 us flush timer would read (one tick for the grant, one for
# the release) — and the run must pass the harness's own checks. Needs jq.
sparsebench:
	bash bench/run.sh --workload untyped_sparse --seed 1 --seconds 2 --trace 0 | tee /dev/stderr | \
		jq -e '.correct == true and .metrics.lat_p50_ms.value < 0.5'

# lint/vuln need staticcheck / govulncheck on PATH (CI installs them);
# they are not part of `all` so an offline checkout still builds.
lint:
	staticcheck ./...

vuln:
	govulncheck ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Non-test lines of the packages ROADMAP item 2 wants smaller, counted the
# way CHANGES.md has counted them since PR 12, so "less code" is a number
# in every CI log.
loc:
	@for d in internal/system internal/sched internal/server cmd/rsinbench; do \
		printf '%-16s %s\n' $$d $$(ls $$d/*.go | grep -v _test | xargs cat | wc -l); \
	done

# Short smoke-fuzz of the life-cycle, typed-solver, parser and front-door
# fuzzers.
fuzz:
	$(GO) test -fuzz FuzzSubmitCycle -fuzztime 30s ./internal/system
	$(GO) test -fuzz FuzzGangSubmit -fuzztime 30s ./internal/system
	$(GO) test -fuzz FuzzTypedSubmit -fuzztime 30s ./internal/system
	$(GO) test -fuzz FuzzHeteroBound -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/dimacs
	$(GO) test -fuzz FuzzHTTPSubmitDecode -fuzztime 30s ./internal/server
