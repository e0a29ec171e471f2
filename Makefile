# Tier-1 verification plus the race-detector gate for the concurrent
# packages. `make` (or `make all`) is what CI runs.
GO ?= go

.PHONY: all vet build test race allocguard ratchet deps port386 sparsebench benchsmoke bench fuzz lint vuln loc

all: vet build test race ratchet deps port386

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
# stay race-clean. internal/core is the solver every shard runs; its
# allocation guard is built only without -race (alloc_guard_test.go) and
# runs under allocguard instead.
#
# The service has no goroutine of its own: callers run its epochs (flat
# combining), so coalescing and liveness depend on how many of them run at
# once. The stress test, the combining tests and the collective tests run
# again at GOMAXPROCS 1, 2 and 4, their assertions unchanged: a collective
# posts one member buffer uncopied and reuses one job from phase to phase,
# which is what -race must hold.
race:
	$(GO) test -race -shuffle=on ./internal/sched ./internal/system ./internal/obs ./internal/server ./internal/core
	$(GO) test -race -cpu 1,2,4 -count 5 -run 'TestStressBenes|TestPostedDuringEpochIsApplied|TestCloseDrainsCombiners|TestCombinerTurnIsBounded|TestCloseRacesSpentTurn|TestRunCollective|TestRunCollectiveConcurrent|TestRunCollectiveErrors|TestRunCollectiveReusedHandle' ./internal/sched

# Warm-solver pivot ratchet plus the three-engine min-cost cross-check:
# the warm network simplex must pivot strictly less than cold on the
# reference trace, at exactly the pinned pivot counts, out-of-kilter / SSP
# / simplex must agree, and after every pivot the subtree-updated tree
# must equal a from-scratch rebuild. The TestMinCostIncremental* pattern
# also selects the certified differential
# (TestMinCostIncrementalCertified): MinCost epochs settled on the
# max-flow arena must match the cold engine and the oracle. The ops
# ratchet holds arc scans per granted task on the pinned warm-cold trace
# within 10% of the recorded baseline and warm solve work at or below cold
# on both pinned traces (the counters are deterministic, so the thresholds
# are absolute), and the parity test pins the counting convention itself.
ratchet:
	$(GO) test -run 'TestWarmSimplexPivotRatchet|TestMinCostIncremental' ./internal/core
	$(GO) test -run 'TestQuickCrossSolver|TestNegativeCostRegressions|TestPivotTreeDifferential' ./internal/netsimplex
	$(GO) test -run 'TestOpsCounterParity' ./internal/maxflow
	$(GO) test -run 'TestOpsGateRatchet' ./internal/core

# The packages of this module that the service binary links must be
# exactly the checked-in allow-list (cmd/rsinserve/deps.txt, one import
# path a line, byte-sorted): a new package fails as a `+` line, and one
# the binary no longer links fails as a `-` line until the list drops it,
# so the list only shrinks with the code. The service (internal/sched) is
# the one recorder: internal/system, and everything it links, must not
# import internal/obs.
deps:
	$(GO) list -deps ./cmd/rsinserve | grep '^rsin/' | LC_ALL=C sort | diff -u cmd/rsinserve/deps.txt -
	@if $(GO) list -deps ./internal/system | grep -qx 'rsin/internal/obs'; then \
		echo 'deps: internal/system links rsin/internal/obs; only the service records' >&2; exit 1; \
	fi

# The instrumentation hot path must not allocate (disabled or enabled),
# a service round trip allocates only what it hands back — singleton,
# three-type and gang alike: 2, 2 and 5 objects, the gang's demand summed
# once and its record a reused task's — a warm 4-rank ring allreduce
# allocates its plan and one job once and only a Done channel per phase
# (13 objects for 6 phases), a bound-certified typed epoch on a
# warm planner allocates nothing, and neither does a warm cycle under
# MaxFlow, certified MinCost or typed (the System reuses its CycleResult
# and the planner its Mapping), a cycle under the banker with nothing to
# solve, or a warm simplex solve on a reused basis; a banker'd MinCost
# cycle stays within its recorded bound, and a fault batch makes one
# census and no copy of it (its reachability sweep runs on the network's
# scratch); CI runs the same guards.
allocguard:
	$(GO) test -run 'TestDisabledObsAllocFree|TestNilInstruments|TestLiveInstrumentsAllocFree|TestRoundTripAllocs|TestTypedRoundTripAllocs|TestCollectiveAllocs' ./internal/sched ./internal/obs
	$(GO) test -run 'TestTypedEpochAllocs' ./internal/core
	$(GO) test -run 'TestCycleAllocs|TestBankerCycleAllocs|TestPricedCycleAllocs|TestFaultBatchAllocs' ./internal/system

# The TaskID packing (slot and generation in one int) must build where int
# is 32 bits: a shift that only fits a 64-bit int fails here. CI runs the
# same.
port386:
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) vet ./internal/system ./internal/sched

# Flush-policy smoke: 8 closed-loop clients keep far less than one batch
# in flight, so their median latency is the flush policy's. It must stay
# under 0.5 ms — 20x what flushing on an idle queue measures, half of
# what any 500 us flush timer would read (one tick for the grant, one for
# the release) — and the run must pass the harness's own checks. Needs jq.
sparsebench:
	bash bench/run.sh --workload untyped_sparse --seed 1 --seconds 2 --trace 0 | tee -a /dev/stderr | \
		jq -e '.correct == true and .metrics.lat_p50_ms.value < 0.5'

# End-to-end smoke of the service: every workload of the repo's benchmark
# for 2 s with the harness's own checks on, the did-not-exercise rules
# among them (a tiered run that preempts nothing, a fault run that severs
# nothing, an overload run that sheds nothing is a failure). sparsebench
# covers the seventh workload. Needs jq.
benchsmoke: sparsebench
	@set -e; for w in untyped_sat typed_pool tiered_faults gangs frontdoor_zero_hold frontdoor_overload; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tee -a /dev/stderr | jq -e '.correct == true' >/dev/null; \
	done

# lint/vuln need staticcheck / govulncheck on PATH (CI installs them);
# they are not part of `all` so an offline checkout still builds.
lint:
	staticcheck ./...

vuln:
	govulncheck ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Non-test lines of the packages the north star's aim 2 (the same
# behaviour from the least code) wants smaller — the solvers of
# internal/core and internal/maxflow, the fabric model of
# internal/topology, the System and the service, the fault scripting of
# internal/faultinject, the service driver cmd/rsinserve and the
# benchmark programs cmd/rsinbench and bench — counted the way CHANGES.md
# counts them (every line of the non-test .go files), so "less code" is a
# number in every CI log. The last row counts every non-test .go file of
# the repo outside dot directories (the benchmark's .bench_build/ among
# them): code that leaves a package the rows above do not list shows there.
loc:
	@total=0; for d in internal/core internal/maxflow internal/topology internal/system internal/sched internal/server internal/faultinject cmd/rsinserve cmd/rsinbench bench; do \
		n=$$(ls $$d/*.go | grep -v _test | xargs cat | wc -l); total=$$((total + n)); \
		printf '%-21s %s\n' $$d $$n; \
	done; printf '%-21s %s\n' total $$total; \
	printf '%-21s %s\n' repo $$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)

# Short smoke-fuzz of the life-cycle, typed-solver, fast-path/search
# boundary, fault-batch, min-cost engine, parser and front-door fuzzers;
# CI's fuzz smoke runs the same list.
fuzz:
	$(GO) test -fuzz FuzzSubmitCycle -fuzztime 30s ./internal/system
	$(GO) test -fuzz FuzzGangSubmit -fuzztime 30s ./internal/system
	$(GO) test -fuzz FuzzTypedSubmit -fuzztime 30s ./internal/system
	$(GO) test -fuzz FuzzHeteroBound -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzRoutingFallbackBoundary -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzShardScript -fuzztime 30s ./internal/sched
	$(GO) test -fuzz FuzzMinCostEngines -fuzztime 30s ./internal/netsimplex
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/dimacs
	$(GO) test -fuzz FuzzHTTPSubmitDecode -fuzztime 30s ./internal/server
