package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rsin/internal/core"
	"rsin/internal/sched"
	"rsin/internal/stats"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// The gang section drives the all-or-nothing gang scheduler the way a
// training fleet would: concurrent ring-allreduce collectives (each phase
// one gang, barriers between phases) and explicit gangs, over a
// banker's-mode fabric with fail→heal link chaos running the whole time.
// The gang gate checks invariants, not thresholds, so it is stable
// under chaos timing: zero partial grants ever observed on a client, the
// member-wise terminal accounting identity intact, severed gangs charged
// within budget, and real gang throughput (both collectives and explicit
// gangs serviced).

type gangBenchConfig struct {
	N           int   `json:"n"`
	Collectives int   `json:"collective_clients"`
	Ranks       int   `json:"ranks_per_collective"`
	Rounds      int   `json:"rounds_per_client"`
	Explicit    int   `json:"explicit_gang_clients"`
	Faults      int   `json:"fault_heal_pairs"`
	Seed        int64 `json:"seed"`
	Smoke       bool  `json:"smoke"`
}

// gangBenchReport is the v6 "gang" section of BENCH_sched.json.
type gangBenchReport struct {
	Config gangBenchConfig `json:"config"`
	// Collective outcomes: phase chains run to completion vs failed.
	CollectivesOK     int64 `json:"collectives_ok"`
	CollectivesFailed int64 `json:"collectives_failed"`
	PhasesServiced    int64 `json:"phases_serviced"`
	// Explicit gang outcomes.
	GangsOK     int64 `json:"gangs_ok"`
	GangsFailed int64 `json:"gangs_failed"`
	// PartialGrants counts client-visible violations of the
	// all-or-nothing contract: a Done gang whose members did not all hold
	// their full sets. Must be zero, always.
	PartialGrants int64 `json:"partial_grants"`
	// Severs is the atomic gang sever events absorbed across the run
	// (each charged exactly once against its gang's budget).
	Severs int64 `json:"gang_severs"`
	// GangQueueMS is submit→all-provisioned latency over every gang that
	// granted (explicit gangs and collective phases alike).
	GangQueueMS map[string]float64 `json:"gang_queue_ms"`
	// IdentityHolds records Submitted == Serviced+Canceled+Failed at the
	// end of the run (gangs count member-wise).
	IdentityHolds bool        `json:"identity_holds"`
	Sched         sched.Stats `json:"sched_stats"`
}

// runGangBench runs the gang+collective+chaos workload and returns the
// report; gateGangCheck turns it into a CI gate.
func runGangBench(seed int64, smoke bool) (gangBenchReport, error) {
	cfg := gangBenchConfig{
		N: 32, Collectives: 6, Ranks: 4, Rounds: 6, Explicit: 24, Faults: 24,
		Seed: seed, Smoke: smoke,
	}
	if smoke {
		cfg.N, cfg.Collectives, cfg.Rounds, cfg.Explicit, cfg.Faults = 16, 3, 3, 8, 8
	}
	net := topology.Omega(cfg.N)
	s, err := sched.New(sched.Config{
		Shards:       []system.Config{{Net: net, Avoidance: system.AvoidanceBankers}},
		SeverRetries: 8,
	})
	if err != nil {
		return gangBenchReport{}, err
	}
	defer s.Close()

	var (
		collOK, collFailed, phases  atomic.Int64
		gangOK, gangFailed, partial atomic.Int64
		mu                          sync.Mutex
		queueMS                     []float64
	)
	var wg sync.WaitGroup

	// Collective clients: each runs Rounds ring allreduces over its own
	// rank set (disjoint processor bands, so collectives contend for
	// resources, not processors).
	for c := 0; c < cfg.Collectives; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			procs := make([]int, cfg.Ranks)
			for r := range procs {
				procs[r] = (c*cfg.Ranks + r) % cfg.N
			}
			for round := 0; round < cfg.Rounds; round++ {
				res, err := s.RunCollective(context.Background(), 0, sched.CollectiveSpec{
					Pattern: core.RingAllReduce, Procs: procs,
					Label: fmt.Sprintf("bench-ar-%d-%d", c, round),
				})
				phases.Add(int64(res.Phases))
				if err != nil {
					collFailed.Add(1)
					continue
				}
				collOK.Add(1)
			}
		}(c)
	}

	// Explicit gang clients: random 2-3 member gangs on distinct random
	// processors, checked for all-or-nothing grants on every completion.
	for c := 0; c < cfg.Explicit; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			for i := 0; i < cfg.Rounds*2; i++ {
				k := 2 + rng.Intn(2)
				perm := rng.Perm(cfg.N)[:k]
				spec := sched.GangSpec{Members: make([]system.Task, k)}
				for m := range spec.Members {
					spec.Members[m] = system.Task{Proc: perm[m]}
				}
				t0 := time.Now()
				gh, err := s.SubmitGang(0, spec)
				if err != nil {
					gangFailed.Add(1)
					continue
				}
				<-gh.Done()
				if gh.Err() != nil {
					// Sever-budget exhaustion under chaos is an expected
					// terminal outcome; the gate checks invariants, not rates.
					gangFailed.Add(1)
					continue
				}
				q := time.Since(t0).Seconds() * 1e3
				res := gh.Resources()
				ok := len(res) == k
				for _, member := range res {
					if len(member) != 1 { // Need defaults to 1
						ok = false
					}
				}
				if !ok {
					partial.Add(1)
				}
				mu.Lock()
				queueMS = append(queueMS, q)
				mu.Unlock()
				if err := s.EndGang(gh); err != nil {
					gangFailed.Add(1)
					continue
				}
				gangOK.Add(1)
			}
		}(c)
	}

	// Chaos alongside: fail a random link, let the fabric run degraded,
	// heal it. Gang resets and sever charges happen here.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
		for f := 0; f < cfg.Faults; f++ {
			flapLink(s, 0, rng.Intn(len(net.Links)), 500*time.Microsecond)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()
	<-chaosDone

	st := s.Stats()
	qs := stats.Percentiles(queueMS, 0.50, 0.99, 1)
	rep := gangBenchReport{
		Config:            cfg,
		CollectivesOK:     collOK.Load(),
		CollectivesFailed: collFailed.Load(),
		PhasesServiced:    phases.Load(),
		GangsOK:           gangOK.Load(),
		GangsFailed:       gangFailed.Load(),
		PartialGrants:     partial.Load(),
		Severs:            st.GangSevers,
		GangQueueMS:       map[string]float64{"p50": qs[0], "p99": qs[1], "max": qs[2]},
		IdentityHolds:     st.Submitted == st.Serviced+st.Canceled+st.Failed,
		Sched:             st,
	}
	return rep, nil
}

// gateGangCheck enforces the gang section's invariants: the
// all-or-nothing contract (zero partial grants), the member-wise terminal
// accounting identity, and real throughput from both workload families.
func gateGangCheck(rep gangBenchReport) error {
	if rep.PartialGrants != 0 {
		return fmt.Errorf("%d partial grants observed — the all-or-nothing contract is broken", rep.PartialGrants)
	}
	if !rep.IdentityHolds {
		return fmt.Errorf("terminal accounting identity broken: %+v", rep.Sched)
	}
	if rep.CollectivesOK == 0 {
		return fmt.Errorf("no collective completed (%d failed)", rep.CollectivesFailed)
	}
	if rep.GangsOK == 0 {
		return fmt.Errorf("no explicit gang serviced (%d failed)", rep.GangsFailed)
	}
	if rep.Sched.GangsServiced == 0 || rep.Sched.GangsActivated < rep.Sched.GangsServiced {
		return fmt.Errorf("gang counters inconsistent: activated=%d serviced=%d",
			rep.Sched.GangsActivated, rep.Sched.GangsServiced)
	}
	return nil
}
