package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rsin/internal/core"
	"rsin/internal/multiflow"
	"rsin/internal/sched"
	"rsin/internal/stats"
	"rsin/internal/system"
	"rsin/internal/topology"
	"rsin/internal/workload"
)

// The multi section drives the heterogeneous multicommodity scheduler two
// ways. The chaos workload pools three resource types on one banyan-class
// (omega) fabric and hammers it with concurrent typed-vector clients under
// fail→heal hardware chaos; on a restricted topology nearly every
// multicommodity epoch comes back certified optimal (sequential per-type
// max-flow meeting the combinatorial bound, or on a bound miss the rounded
// LP decomposition proven legal and optimal — zero gap by construction
// either way), so the gate demands zero partial typed grants and bounds
// the rare greedy epoch's recorded gap at one unit. The deterministic
// probe then replays a seeded ensemble of typed instances across
// omega/benes/clos fabrics under fault churn, plus the adversarial
// instances of workload.AdversarialTyped, against the exact
// branch-and-bound oracle on the raw multicommodity network, so every
// path's claim is audited — alloc + gap must bound the oracle on every
// instance — and the gate refuses a probe that never missed the bound or
// never met it.

type multiBenchConfig struct {
	N       int   `json:"n"`
	Types   int   `json:"resource_types"`
	Clients int   `json:"clients"`
	Tasks   int   `json:"tasks_per_client"`
	Faults  int   `json:"fault_heal_pairs"`
	Seed    int64 `json:"seed"`
	Smoke   bool  `json:"smoke"`
}

// multiProbeReport is the deterministic gap probe inside the v7 "multi"
// section: ScheduleHetero's default path versus the exact oracle on a
// seeded instance ensemble plus the adversarial instances.
type multiProbeReport struct {
	Trials   int `json:"trials"`
	FastPath int `json:"fast_path_solves"`
	Greedy   int `json:"greedy_solves"`
	Retries  int `json:"greedy_retries"`
	// BoundCertified counts instances decided on the arena: sequential
	// per-type max-flow met the combinatorial bound, no LP ran.
	// BoundMisses counts the instances that missed it and solved the LP.
	// The gate needs both nonzero, or the probe did not exercise a path.
	BoundCertified int `json:"bound_certified"`
	BoundMisses    int `json:"bound_misses"`
	// GapUnits sums Solve.MultiGap over the ensemble: units the default
	// path may have left on the table versus its LP bound.
	GapUnits int `json:"gap_units"`
	// Allocated / OracleAllocated compare totals over the ensemble.
	Allocated       int `json:"allocated"`
	OracleAllocated int `json:"oracle_allocated"`
	// BoundViolations counts instances where alloc + recorded gap < the
	// oracle's allocation — the recorded gap failed to bound the loss.
	// Must be zero, always.
	BoundViolations int `json:"bound_violations"`
	// ZeroGapMismatches counts instances that claimed a zero gap yet
	// allocated less than the oracle. Must be zero, always.
	ZeroGapMismatches int `json:"zero_gap_mismatches"`
}

// multiBenchReport is the v7 "multi" section of BENCH_sched.json.
type multiBenchReport struct {
	Config multiBenchConfig `json:"config"`
	// Typed chaos workload outcomes.
	TasksOK     int64 `json:"tasks_ok"`
	TasksFailed int64 `json:"tasks_failed"`
	// PartialTypedGrants counts client-visible violations of the typed
	// all-or-nothing contract: a Done task whose per-type holdings did not
	// match its declared vector exactly. Must be zero, always.
	PartialTypedGrants int64 `json:"partial_typed_grants"`
	// Multicommodity epoch census over the chaos run (from sched.Stats):
	// certified-optimal epochs, greedy decompositions, orderings retried,
	// and gap units recorded. Certified epochs carry zero gap by
	// construction; the multi gate bounds the rest.
	FastPathEpochs int64 `json:"fast_path_epochs"`
	GreedyEpochs   int64 `json:"greedy_epochs"`
	GreedyRetries  int64 `json:"greedy_retries"`
	GapUnits       int64 `json:"gap_units"`
	// TypedQueueMS is submit→fully-provisioned latency over every typed
	// task that granted.
	TypedQueueMS map[string]float64 `json:"typed_queue_ms"`
	// IdentityHolds records Submitted == Serviced+Canceled+Failed at the
	// end of the chaos run.
	IdentityHolds bool             `json:"identity_holds"`
	Probe         multiProbeReport `json:"probe"`
	Sched         sched.Stats      `json:"sched_stats"`
}

// runMultiBench runs the typed chaos workload plus the deterministic gap
// probe and returns the report; gateMultiCheck turns it into a CI gate.
func runMultiBench(seed int64, smoke bool) (multiBenchReport, error) {
	cfg := multiBenchConfig{
		N: 32, Types: 3, Clients: 32, Tasks: 30, Faults: 24,
		Seed: seed, Smoke: smoke,
	}
	if smoke {
		cfg.N, cfg.Clients, cfg.Tasks, cfg.Faults = 16, 12, 12, 8
	}
	net := topology.Omega(cfg.N)
	types := make([]int, net.Ress)
	for r := range types {
		types[r] = r % cfg.Types
	}
	s, err := sched.New(sched.Config{
		Shards: []system.Config{{
			Net:        net,
			Discipline: system.Hetero,
			Types:      types,
			Avoidance:  system.AvoidanceBankers,
		}},
		SeverRetries: 8,
	})
	if err != nil {
		return multiBenchReport{}, err
	}
	defer s.Close()

	var (
		ok, failed, partial atomic.Int64
		mu                  sync.Mutex
		queueMS             []float64
	)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			for i := 0; i < cfg.Tasks; i++ {
				needs := map[int]int{}
				for ty := 0; ty < cfg.Types; ty++ {
					if rng.Intn(2) == 0 {
						needs[ty] = 1 + rng.Intn(2)
					}
				}
				if len(needs) == 0 {
					needs[rng.Intn(cfg.Types)] = 1
				}
				t0 := time.Now()
				h, err := s.Submit(0, system.Task{Proc: rng.Intn(net.Procs), Needs: needs})
				if err != nil {
					failed.Add(1)
					continue
				}
				<-h.Done()
				if h.Err() != nil {
					// Sever-budget exhaustion or a capacity drop under chaos
					// is an expected terminal outcome; the gate checks
					// invariants, not rates.
					failed.Add(1)
					continue
				}
				q := time.Since(t0).Seconds() * 1e3
				got := map[int]int{}
				for _, r := range h.Resources() {
					got[types[r]]++
				}
				exact := len(got) == len(needs)
				for ty, n := range needs {
					if got[ty] != n {
						exact = false
					}
				}
				if !exact {
					partial.Add(1)
				}
				mu.Lock()
				queueMS = append(queueMS, q)
				mu.Unlock()
				if err := s.EndService(h); err != nil {
					failed.Add(1)
					continue
				}
				ok.Add(1)
			}
		}(c)
	}

	// Chaos alongside: correlated resource-pair failures (one fault event
	// reshaping two commodities at once) interleaved with link fail→heal.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
		for f := 0; f < cfg.Faults; f++ {
			if f%2 == 0 {
				r := rng.Intn(net.Ress - 1)
				if err := s.FailResource(0, r); err != nil {
					continue
				}
				_ = s.FailResource(0, r+1)
				time.Sleep(500 * time.Microsecond)
				_ = s.RepairResource(0, r)
				_ = s.RepairResource(0, r+1)
			} else {
				flapLink(s, 0, rng.Intn(len(net.Links)), 500*time.Microsecond)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()
	<-chaosDone

	probe, err := runMultiProbe(smoke)
	if err != nil {
		return multiBenchReport{}, fmt.Errorf("gap probe: %w", err)
	}

	st := s.Stats()
	qs := stats.Percentiles(queueMS, 0.50, 0.99, 1)
	rep := multiBenchReport{
		Config:             cfg,
		TasksOK:            ok.Load(),
		TasksFailed:        failed.Load(),
		PartialTypedGrants: partial.Load(),
		FastPathEpochs:     st.MultiFastPath,
		GreedyEpochs:       st.MultiGreedy,
		GreedyRetries:      st.MultiRetries,
		GapUnits:           st.MultiGapUnits,
		TypedQueueMS:       map[string]float64{"p50": qs[0], "p99": qs[1], "max": qs[2]},
		IdentityHolds:      st.Submitted == st.Serviced+st.Canceled+st.Failed,
		Probe:              probe,
		Sched:              st,
	}
	return rep, nil
}

// runMultiProbe replays the seeded typed-instance ensemble — the
// restricted topologies under fault churn, random typed demand and supply
// — and then the adversarial instances through ScheduleHetero's default
// path and the exact branch-and-bound oracle. Pure seeded computation: the
// same numbers on every machine.
func runMultiProbe(smoke bool) (multiProbeReport, error) {
	rng := rand.New(rand.NewSource(1986))
	builders := []func() *topology.Network{
		func() *topology.Network { return topology.Omega(8) },
		func() *topology.Network { return topology.Benes(8) },
		func() *topology.Network { return topology.Clos(2, 2, 3) },
	}
	rep := multiProbeReport{}
	trials := 120
	if smoke {
		trials = 36
	}
	for trial := 0; trial < trials; trial++ {
		net := builders[trial%len(builders)]()
		for f := 0; f < rng.Intn(3); f++ {
			net.FailLink(rng.Intn(len(net.Links)))
		}
		if len(net.Boxes) > 0 && rng.Float64() < 0.25 {
			net.FailBox(rng.Intn(len(net.Boxes)))
		}
		var reqs []core.Request
		for p := 0; p < net.Procs; p++ {
			if rng.Float64() < 0.6 {
				reqs = append(reqs, core.Request{Proc: p, Type: rng.Intn(3)})
			}
		}
		var avail []core.Avail
		for r := 0; r < net.Ress; r++ {
			if rng.Float64() < 0.6 {
				avail = append(avail, core.Avail{Res: r, Type: rng.Intn(3)})
			}
		}
		if len(reqs) == 0 || len(avail) == 0 {
			continue
		}
		if err := rep.probe(fmt.Sprintf("trial %d (%s)", trial, net.Name), net, reqs, avail); err != nil {
			return rep, err
		}
	}
	for _, in := range workload.AdversarialTyped() {
		if err := rep.probe(in.Name, in.Net, in.Reqs, in.Avail); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// probe solves one instance on the default path and tallies it against
// the oracle: LP branch-and-bound on the raw multicommodity network, which
// shares no code with the bound-first solver.
func (rep *multiProbeReport) probe(name string, net *topology.Network, reqs []core.Request, avail []core.Avail) error {
	def, err := core.ScheduleHetero(net, reqs, avail, nil)
	if err != nil {
		return fmt.Errorf("%s: default: %w", name, err)
	}
	g, comms := core.BuildMulticommodity(net, reqs, avail)
	bb, err := multiflow.BranchAndBound(g, comms, nil, 0)
	if err != nil {
		return fmt.Errorf("%s: oracle: %w", name, err)
	}
	if bb.Truncated {
		return fmt.Errorf("%s: oracle ran out of branch-and-bound nodes", name)
	}
	oracle := int(math.Round(bb.Total))
	rep.Trials++
	if def.Solve.MultiFastPath {
		rep.FastPath++
	}
	if def.Solve.MultiGreedy {
		rep.Greedy++
	}
	if def.Solve.MultiLP {
		rep.BoundMisses++
	} else if def.Solve.MultiFastPath {
		rep.BoundCertified++
	}
	rep.Retries += def.Solve.MultiRetries
	rep.GapUnits += def.Solve.MultiGap
	rep.Allocated += def.Allocated()
	rep.OracleAllocated += oracle
	if def.Allocated()+def.Solve.MultiGap < oracle {
		rep.BoundViolations++
	}
	if def.Solve.MultiGap == 0 && def.Allocated() != oracle {
		rep.ZeroGapMismatches++
	}
	return nil
}

// gateMultiCheck enforces the multi section's invariants: exact typed
// grants (never partial), the terminal accounting identity, a bounded
// greedy gap on the restricted chaos fabric, and a probe whose recorded
// gaps bound the oracle on every instance.
func gateMultiCheck(rep multiBenchReport) error {
	if rep.PartialTypedGrants != 0 {
		return fmt.Errorf("%d partial typed grants observed — the typed all-or-nothing contract is broken", rep.PartialTypedGrants)
	}
	if !rep.IdentityHolds {
		return fmt.Errorf("terminal accounting identity broken: %+v", rep.Sched)
	}
	if rep.TasksOK == 0 {
		return fmt.Errorf("no typed task serviced (%d failed)", rep.TasksFailed)
	}
	if rep.FastPathEpochs == 0 {
		return fmt.Errorf("no certified multicommodity epoch on the chaos run: %+v", rep.Sched)
	}
	// Certified epochs carry zero gap by construction; the rare greedy
	// epoch (a bound miss whose LP vertex then failed certification) must
	// stay within one unit of its LP bound on the banyan-class fabric.
	if rep.GapUnits > rep.GreedyEpochs {
		return fmt.Errorf("%d gap units over %d greedy epochs on the restricted chaos fabric; the greedy decomposition must stay within one unit of the LP bound per epoch",
			rep.GapUnits, rep.GreedyEpochs)
	}
	if rep.Probe.BoundViolations != 0 {
		return fmt.Errorf("%d probe instances where alloc + recorded gap failed to bound the oracle", rep.Probe.BoundViolations)
	}
	if rep.Probe.ZeroGapMismatches != 0 {
		return fmt.Errorf("%d probe instances claimed zero gap yet under-allocated vs the oracle", rep.Probe.ZeroGapMismatches)
	}
	if rep.Probe.Trials == 0 || rep.Probe.FastPath == 0 {
		return fmt.Errorf("probe ran %d trials with %d certified fast paths", rep.Probe.Trials, rep.Probe.FastPath)
	}
	if rep.Probe.BoundMisses == 0 || rep.Probe.BoundCertified == 0 {
		return fmt.Errorf("did not exercise: the probe saw %d bound-certified instances and %d bound misses that went to the LP; the oracle comparison needs both",
			rep.Probe.BoundCertified, rep.Probe.BoundMisses)
	}
	return nil
}
