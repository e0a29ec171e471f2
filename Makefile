# Tier-1 verification plus the race-detector gate for the concurrent
# packages. `make` (or `make all`) is what CI runs.
GO ?= go

.PHONY: all vet build test race allocguard ratchet sparsebench benchsmoke bench fuzz lint vuln loc

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
# reference trace, at exactly the pinned pivot counts, out-of-kilter / SSP
# / simplex must agree, and after every pivot the subtree-updated tree
# must equal a from-scratch rebuild. The ops
# ratchet holds arc scans per granted task on the pinned warm-cold trace
# within 10% of the recorded baseline and warm solve work at or below cold
# on both pinned traces (the counters are deterministic, so the thresholds
# are absolute), and the parity test pins the counting convention itself.
ratchet:
	$(GO) test -run 'TestWarmSimplexPivotRatchet|TestMinCostIncremental' ./internal/core
	$(GO) test -run 'TestQuickCrossSolver|TestNegativeCostRegressions|TestPivotTreeDifferential' ./internal/netsimplex
	$(GO) test -run 'TestOpsCounterParity' ./internal/maxflow
	$(GO) test -run 'TestOpsGateRatchet' ./internal/core

# The instrumentation hot path must not allocate (disabled or enabled),
# a service round trip allocates only what it hands back (plus the task
# record and its share of the epoch's result), a bound-certified typed
# epoch on a warm planner allocates only the Mapping it returns, a cycle under the banker only its CycleResult and
# the empty Mapping, a warm simplex solve on a reused basis nothing, and a
# banker'd MinCost cycle stays within its recorded bound; CI runs the same
# guards.
allocguard:
	$(GO) test -run 'TestDisabledObsAllocFree|TestNilInstruments|TestLiveInstrumentsAllocFree|TestRoundTripAllocs' ./internal/sched ./internal/obs
	$(GO) test -run 'TestTypedEpochAllocs' ./internal/core
	$(GO) test -run 'TestBankerCycleAllocs|TestPricedCycleAllocs' ./internal/system

# Flush-policy smoke: 8 closed-loop clients keep far less than one batch
# in flight, so their median latency is the flush policy's. It must stay
# under 0.5 ms — 20x what flushing on an idle queue measures, half of
# what any 500 us flush timer would read (one tick for the grant, one for
# the release) — and the run must pass the harness's own checks. Needs jq.
sparsebench:
	bash bench/run.sh --workload untyped_sparse --seed 1 --seconds 2 --trace 0 | tee /dev/stderr | \
		jq -e '.correct == true and .metrics.lat_p50_ms.value < 0.5'

# End-to-end smoke of the service: every workload of the repo's benchmark
# for 2 s with the harness's own checks on, the did-not-exercise rules
# among them (a tiered run that preempts nothing, a fault run that severs
# nothing, an overload run that sheds nothing is a failure). sparsebench
# covers the seventh workload. Needs jq.
benchsmoke: sparsebench
	@set -e; for w in untyped_sat typed_pool tiered_faults gangs frontdoor_zero_hold frontdoor_overload; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tee /dev/stderr | jq -e '.correct == true' >/dev/null; \
	done

# lint/vuln need staticcheck / govulncheck on PATH (CI installs them);
# they are not part of `all` so an offline checkout still builds.
lint:
	staticcheck ./...

vuln:
	govulncheck ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Non-test lines of the packages ROADMAP item 2 wants smaller and of the
# two programs item 6 wants to be one harness, counted the way CHANGES.md
# has counted them since PR 12, so "less code" is a number in every CI log.
loc:
	@total=0; for d in internal/system internal/sched internal/server cmd/rsinbench bench; do \
		n=$$(ls $$d/*.go | grep -v _test | xargs cat | wc -l); total=$$((total + n)); \
		printf '%-16s %s\n' $$d $$n; \
	done; printf '%-16s %s\n' total $$total

# Short smoke-fuzz of the life-cycle, typed-solver, min-cost engine,
# parser and front-door fuzzers.
fuzz:
	$(GO) test -fuzz FuzzSubmitCycle -fuzztime 30s ./internal/system
	$(GO) test -fuzz FuzzGangSubmit -fuzztime 30s ./internal/system
	$(GO) test -fuzz FuzzTypedSubmit -fuzztime 30s ./internal/system
	$(GO) test -fuzz FuzzHeteroBound -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzMinCostEngines -fuzztime 30s ./internal/netsimplex
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/dimacs
	$(GO) test -fuzz FuzzHTTPSubmitDecode -fuzztime 30s ./internal/server
