package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"rsin/internal/obs"
	"rsin/internal/sched"
	"rsin/internal/stats"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// schedBenchSchema identifies the BENCH_sched.json layout; bump it on any
// incompatible change so downstream tooling can reject files it cannot
// parse (EXPERIMENTS.md documents the format). v2 added the warm_cold
// section and the warm-start counters inside sched_stats; v3 added the
// tiered section (the SLO-tier comparison with per-tier p50/p99 against
// an untiered baseline) and the Preempts counter inside sched_stats.
// v4 fixed the measured window (warmup barrier, chaos off the timing
// goroutine), made empty tiered percentiles null instead of zero, and
// added ops_per_task plus the deterministic ops_gate section that the
// ops gate enforces. v5 added the optional openloop section —
// the Poisson offered-load sweep through the internal/server front door
// (knee rate, per-multiplier goodput/latency/shed/timeout curves) that
// the shed gate enforces. v6 added the gang section —
// concurrent ring-allreduce collectives and explicit all-or-nothing
// gangs under link chaos (partial-grant census, gang sever counters,
// gang queue latency) that the gang gate enforces — and
// the Gangs* / GangSevers counters inside sched_stats. v7 added the multi
// section — the heterogeneous multicommodity workload (typed-vector
// clients over a pooled multi-type fabric under chaos, plus the
// deterministic gap probe against the exact branch-and-bound oracle) that
// the multi gate enforces — and the Multi* counters
// inside sched_stats.
const schedBenchSchema = "rsin-bench-sched/v7"

// The ops gate solves one pinned warm-cold trace — pure computation on a
// seeded RNG, so its counters are bit-identical on every machine and the
// ratchet can use absolute thresholds. The baseline is the value
// recorded by the CSR arena + routing fast path on this trace
// (10339 arc scans / 1034 grants); the pre-optimization solver measured
// 35.56 arc scans per grant on the identical trace (32602/917 — the
// grant count differs because assignment choice shifts the evolution),
// so the baseline itself is the 3.6x win. The ops gate fails a run more
// than 10% over baseline, or one that stopped using the fast path.
const (
	opsGateSeed  = 1
	opsGateN     = 16
	opsGateSteps = 600

	opsGateBaselineArcScansPerGrant = 10.0
	opsGateSlack                    = 1.10
)

// schedBenchConfig records the load shape a run used, so a BENCH file is
// self-describing.
type schedBenchConfig struct {
	Topology string `json:"topology"`
	N        int    `json:"n"`
	Shards   int    `json:"shards"`
	Clients  int    `json:"clients"`
	Tasks    int    `json:"tasks_per_client"`
	Warmup   int    `json:"warmup_per_client"`
	Need     int    `json:"need"`
	Faults   int    `json:"fault_heal_pairs"`
	Seed     int64  `json:"seed"`
	Smoke    bool   `json:"smoke"`
}

// schedBenchReport is the machine-readable result written to -json: wall
// time, throughput, end-to-end latency percentiles, the scheduler's own
// counters and the full observability snapshot (metrics registry dump).
// WallSecs, Throughput, LatencyMS and OpsPerTask cover the measured
// window only — every client has finished its warmup tasks before the
// clock starts — while Sched and Obs are cumulative over the process.
type schedBenchReport struct {
	Schema     string             `json:"schema"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	Config     schedBenchConfig   `json:"config"`
	WallSecs   float64            `json:"wall_seconds"`
	Completed  int                `json:"tasks_completed"`
	Throughput float64            `json:"tasks_per_second"`
	LatencyMS  map[string]float64 `json:"latency_ms"`
	// OpsPerTask is the solver work (arc scans + node visits, the §IV
	// monitor cost model) spent inside the measured window divided by
	// the tasks completed in it.
	OpsPerTask float64     `json:"ops_per_task"`
	Sched      sched.Stats `json:"sched_stats"`
	// WarmCold is the deterministic cold-vs-warm solver comparison: the
	// same steady-state trace solved by both paths, operation counters
	// side by side (see cmd/rsinbench/warmcold.go).
	WarmCold warmColdReport `json:"warm_cold"`
	// OpsGate is the pinned ratchet trace (always seed=1, omega(16),
	// 600 steps, in smoke and full runs alike) whose arc_scans_per_grant
	// the ops gate checks against the recorded baseline.
	OpsGate warmColdReport `json:"ops_gate"`
	// Tiered is the SLO-tier comparison: one contended workload driven
	// untiered (baseline) and tiered (min-cost + preemption), per-tier
	// latency percentiles side by side (see cmd/rsinbench/tiered.go).
	Tiered tieredReport `json:"tiered"`
	// OpenLoop is the offered-load overload sweep through the HTTP front
	// door (cmd/rsinbench/openloop.go); present only on -openloop runs.
	OpenLoop *openLoopReport `json:"openloop,omitempty"`
	// Gang is the all-or-nothing gang + collective workload under link
	// chaos (cmd/rsinbench/gang.go) whose invariants the gang gate enforces.
	Gang gangBenchReport `json:"gang"`
	// Multi is the heterogeneous multicommodity workload — typed-vector
	// clients pooling several resource types on one fabric under chaos,
	// plus the deterministic gap probe against the exact oracle
	// (cmd/rsinbench/multi.go) — whose invariants the multi gate enforces.
	Multi multiBenchReport `json:"multi"`
	Obs   obs.Snapshot     `json:"obs"`
}

// runSchedBench drives the batched scheduling service at load — including
// a deterministic fail→heal hardware chaos pass inside the measured
// window — runs the cold-vs-warm solver trace and the pinned ops-gate
// trace, writes the machine-readable report to jsonPath ("" = stdout only
// prints the summary lines) and evaluates the gate table (gates, below)
// over it. smoke shrinks the run for CI.
func runSchedBench(seed int64, smoke, openLoop bool, jsonPath string) error {
	cfg := schedBenchConfig{
		Topology: "omega", N: 64, Shards: 2,
		Clients: 64, Tasks: 200, Warmup: 20, Need: 1, Faults: 16,
		Seed: seed, Smoke: smoke,
	}
	if smoke {
		cfg.N, cfg.Shards, cfg.Clients, cfg.Tasks, cfg.Warmup, cfg.Faults = 16, 1, 8, 40, 5, 4
	}

	reg := obs.NewRegistry()
	scfg := sched.Config{Obs: reg}
	for i := 0; i < cfg.Shards; i++ {
		scfg.Shards = append(scfg.Shards, system.Config{Net: topology.Omega(cfg.N)})
	}
	s, err := sched.New(scfg)
	if err != nil {
		return err
	}
	defer s.Close()

	// Warmup then barrier: every client runs cfg.Warmup unmeasured tasks
	// (arena builds, routing tables, scheduler queues all reach steady
	// state), parks on startCh, and only then does the wall clock start.
	// Earlier versions started the clock before the goroutines launched
	// and ran the chaos loop — 1ms sleep per fault — on the timing
	// goroutine, so ramp-up and chaos pacing both inflated wall time and
	// depressed the reported throughput.
	latencies := make([][]float64, cfg.Clients)
	startCh := make(chan struct{})
	var ready, wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		ready.Add(1)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			shard := c % cfg.Shards
			task := system.Task{Proc: (c / cfg.Shards) % cfg.N, Need: cfg.Need}
			for i := 0; i < cfg.Warmup; i++ {
				if h, err := s.Submit(shard, task); err == nil {
					<-h.Done()
					if h.Err() == nil {
						_ = s.EndService(h)
					}
				}
			}
			ready.Done()
			<-startCh
			lat := make([]float64, 0, cfg.Tasks)
			for i := 0; i < cfg.Tasks; i++ {
				t0 := time.Now()
				h, err := s.Submit(shard, task)
				if err != nil {
					continue // degraded-capacity rejection during a fault window
				}
				<-h.Done()
				if h.Err() != nil {
					continue // severed past budget or withdrawn by a capacity drop
				}
				lat = append(lat, time.Since(t0).Seconds()*1e3)
				_ = s.EndService(h)
			}
			latencies[c] = lat
		}(c)
	}
	ready.Wait()
	pre := s.Stats()
	start := time.Now()
	close(startCh)

	// Deterministic chaos alongside the load, on its own goroutine: fail
	// a random link, let the fabric schedule degraded briefly, heal it.
	// The clients' completion alone stops the clock.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(seed))
		nLinks := len(scfg.Shards[0].Net.Links)
		for f := 0; f < cfg.Faults; f++ {
			flapLink(s, rng.Intn(cfg.Shards), rng.Intn(nLinks), time.Millisecond)
		}
	}()
	wg.Wait()
	wall := time.Since(start)
	post := s.Stats()
	<-chaosDone

	wcN, wcSteps := 32, 4000
	if smoke {
		wcN, wcSteps = 16, 600
	}
	wc, err := runWarmColdTrace(seed, wcN, wcSteps)
	if err != nil {
		return fmt.Errorf("warm-cold trace: %w", err)
	}
	og, err := runWarmColdTrace(opsGateSeed, opsGateN, opsGateSteps)
	if err != nil {
		return fmt.Errorf("ops-gate trace: %w", err)
	}
	tiered, err := runTieredComparison(smoke)
	if err != nil {
		return fmt.Errorf("tiered comparison: %w", err)
	}
	var openLoopRep *openLoopReport
	if openLoop {
		olr, err := runOpenLoop(seed, smoke)
		if err != nil {
			return fmt.Errorf("open-loop sweep: %w", err)
		}
		openLoopRep = &olr
	}
	gang, err := runGangBench(seed, smoke)
	if err != nil {
		return fmt.Errorf("gang workload: %w", err)
	}
	multi, err := runMultiBench(seed, smoke)
	if err != nil {
		return fmt.Errorf("multicommodity workload: %w", err)
	}

	var all []float64
	for _, lat := range latencies {
		all = append(all, lat...)
	}
	qs := stats.Percentiles(all, 0.50, 0.90, 0.99, 1)
	opsPerTask := 0.0
	if len(all) > 0 {
		work := (post.Ops.ArcScans - pre.Ops.ArcScans) + (post.Ops.NodeVisits - pre.Ops.NodeVisits)
		opsPerTask = float64(work) / float64(len(all))
	}
	rep := schedBenchReport{
		Schema:     schedBenchSchema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Config:     cfg,
		WallSecs:   wall.Seconds(),
		Completed:  len(all),
		Throughput: float64(len(all)) / wall.Seconds(),
		LatencyMS:  map[string]float64{"p50": qs[0], "p90": qs[1], "p99": qs[2], "max": qs[3]},
		OpsPerTask: opsPerTask,
		Sched:      s.Stats(),
		WarmCold:   wc,
		OpsGate:    og,
		Tiered:     tiered,
		OpenLoop:   openLoopRep,
		Gang:       gang,
		Multi:      multi,
		Obs:        reg.Snapshot(),
	}

	fmt.Printf("sched bench   %d shard(s) x omega(%d): %d tasks in %v (%.0f tasks/s, p99=%.3fms, %.1f ops/task, faults=%d severed=%d)\n",
		cfg.Shards, cfg.N, rep.Completed, wall.Round(time.Millisecond), rep.Throughput,
		rep.LatencyMS["p99"], rep.OpsPerTask, rep.Sched.LinkFaults, rep.Sched.Severed)
	fmt.Printf("warm vs cold  omega(%d) x %d steps: warm work %d, cold work %d (ratio %.3f, %d warm solves, %d cold rebuilds, %d retractions)\n",
		wc.N, wc.SolvedSteps, wc.WarmWork, wc.ColdWork, wc.WorkRatio,
		wc.WarmSolves, wc.ColdRebuilds, wc.Retractions)
	fmt.Printf("ops gate      omega(%d) x %d steps: %.2f arc scans/grant (baseline %.2f, fast paths %d of %d grants)\n",
		og.N, og.Steps, og.ArcScansPerGrant, opsGateBaselineArcScansPerGrant, og.FastPaths, og.Granted)
	fmt.Printf("tiered qos    crossbar(%dx%d) %d clients x %d tiers: tier0 p99=%s vs untiered p99=%s (tier%d p99=%s, preempts=%d)\n",
		tiered.Procs, tiered.Ress, tiered.Clients, tiered.Tiers,
		ms(tiered.PerTier[0].P99), ms(tiered.BaselineP99),
		tiered.Tiers-1, ms(tiered.PerTier[tiered.Tiers-1].P99), tiered.Preempts)
	fmt.Printf("gang          omega(%d) %d collectives x %d rounds + %d gang clients: collectives ok=%d phases=%d, gangs ok=%d failed=%d, severs=%d, partial-grants=%d, gang p99=%.3fms\n",
		gang.Config.N, gang.Config.Collectives, gang.Config.Rounds, gang.Config.Explicit,
		gang.CollectivesOK, gang.PhasesServiced, gang.GangsOK, gang.GangsFailed,
		gang.Severs, gang.PartialGrants, gang.GangQueueMS["p99"])
	fmt.Printf("multicommod.  omega(%d) x %d types, %d typed clients: ok=%d failed=%d partial=%d, epochs fast-path=%d greedy=%d gap-units=%d, probe %d/%d certified (%d on the bound, %d bound misses to the LP; greedy gap %d vs oracle, violations=%d), typed p99=%.3fms\n",
		multi.Config.N, multi.Config.Types, multi.Config.Clients,
		multi.TasksOK, multi.TasksFailed, multi.PartialTypedGrants,
		multi.FastPathEpochs, multi.GreedyEpochs, multi.GapUnits,
		multi.Probe.FastPath, multi.Probe.Trials, multi.Probe.BoundCertified, multi.Probe.BoundMisses,
		multi.Probe.GapUnits, multi.Probe.BoundViolations, multi.TypedQueueMS["p99"])
	if openLoopRep != nil {
		fmt.Printf("open loop     omega(%d) front door: knee %.0f req/s\n", openLoopRep.Config.N, openLoopRep.KneePerS)
		for _, p := range openLoopRep.Points {
			fmt.Printf("  %.2fx       offered %.0f/s: goodput %.0f/s (tier0 %.0f/s), shed %.1f%%, timeouts %d, p99=%s tier0-p99=%s health-p99=%s overflow=%d\n",
				p.Multiplier, p.OfferedRate, p.GoodputPerS, p.Tier0GoodputPerS,
				100*p.ShedRate, p.Timeouts, ms(p.P99MS), ms(p.Tier0P99MS), ms(p.HealthP99MS), p.Overflow)
		}
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, g := range gates {
		if err := g.check(&rep); err != nil {
			return fmt.Errorf("%s gate: %w", g.name, err)
		}
	}
	return nil
}

// flapLink fails one link, lets the fabric schedule degraded for down, and
// heals it — the chaos step every workload here shares.
func flapLink(s *sched.Scheduler, shard, link int, down time.Duration) {
	if s.FailLink(shard, link) == nil {
		time.Sleep(down)
		_ = s.RepairLink(shard, link)
	}
}

// gates is the one table of regression checks over the report. Every
// -sched run evaluates every gate whose section it produced — smoke and
// full runs, CI and `make schedbench` alike; the only section a caller
// chooses is the slow open-loop sweep (-openloop), and the shed gate rides
// on it.
var gates = []struct {
	name  string
	check func(*schedBenchReport) error
}{
	// The warm path's solve work (arc scans + node visits) must be no
	// worse than the cold path's on the steady-state trace.
	{"warm-start", func(rep *schedBenchReport) error {
		if wc := rep.WarmCold; wc.WarmWork > wc.ColdWork {
			return fmt.Errorf("warm solve work %d exceeds cold %d (ratio %.3f) on the steady-state trace",
				wc.WarmWork, wc.ColdWork, wc.WorkRatio)
		}
		return nil
	}},
	// Tier 0's p99 in the tiered comparison must not exceed the untiered
	// baseline's p99 on the identical load; missing percentile data (an
	// empty bin) fails the gate rather than passing it vacuously.
	{"tier", func(rep *schedBenchReport) error {
		tiered := rep.Tiered
		if len(tiered.PerTier) == 0 || tiered.PerTier[0].P99 == nil || tiered.BaselineP99 == nil {
			return fmt.Errorf("percentile data missing (tier-0 p99 %s, untiered baseline p99 %s) — an empty bin must fail the gate, not pass it",
				ms(tiered.PerTier[0].P99), ms(tiered.BaselineP99))
		}
		if *tiered.PerTier[0].P99 > *tiered.BaselineP99 {
			return fmt.Errorf("tier-0 p99 %.3fms exceeds the untiered baseline p99 %.3fms on the contended comparison load",
				*tiered.PerTier[0].P99, *tiered.BaselineP99)
		}
		return nil
	}},
	// Arc scans per granted task on the pinned ops-gate trace must stay
	// within 10% of the recorded baseline, with the routing fast path
	// still carrying grants.
	{"ops", func(rep *schedBenchReport) error {
		og := rep.OpsGate
		limit := opsGateBaselineArcScansPerGrant * opsGateSlack
		if og.Granted == 0 {
			return fmt.Errorf("the pinned trace granted nothing (solved %d steps)", og.SolvedSteps)
		}
		if og.ArcScansPerGrant > limit {
			return fmt.Errorf("%.2f arc scans/grant exceeds %.2f (baseline %.2f +10%%) on the pinned trace",
				og.ArcScansPerGrant, limit, opsGateBaselineArcScansPerGrant)
		}
		if og.FastPaths == 0 {
			return fmt.Errorf("the routing fast path carried no grants on the pinned trace (%d granted)", og.Granted)
		}
		return nil
	}},
	// With -openloop: the overload sweep must shed past the knee with
	// Retry-After on every shed, keep tier-0 goodput at 2x within 90% of
	// its knee value, bound the admitted tier-0 p99 and the queue depth,
	// and keep /healthz responsive.
	{"shed", func(rep *schedBenchReport) error {
		if rep.OpenLoop == nil {
			return nil
		}
		return gateShedCheck(*rep.OpenLoop)
	}},
	// Zero partial grants, an intact member-wise accounting identity, and
	// serviced gangs from both the collective and explicit families.
	{"gang", func(rep *schedBenchReport) error { return gateGangCheck(rep.Gang) }},
	// Exact typed grants only, a bounded greedy gap on the restricted
	// chaos fabric, and a gap probe whose recorded gaps bound the exact
	// oracle on every instance.
	{"multi", func(rep *schedBenchReport) error { return gateMultiCheck(rep.Multi) }},
}
