package system

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"rsin/internal/core"
	"rsin/internal/topology"
)

// TestWarmSolveMatchesOracle is the system-level differential for the
// incremental warm-start default: a randomized submit/transmit/service
// trace with hardware churn, where every cycle's grant count is checked
// against a cold ScheduleMaxFlow and the brute-force oracle applied to
// the pre-cycle fabric state and the exact request set the solver saw
// (Assigned + Blocked of the cycle's mapping). Runs under both deadlock
// disciplines; Bankers deferrals are fine — deferred processors never
// reach the solver, so the mapping's request set already excludes them.
func TestWarmSolveMatchesOracle(t *testing.T) {
	for _, av := range []Avoidance{AvoidanceNone, AvoidanceBankers} {
		av := av
		name := "none"
		if av == AvoidanceBankers {
			name = "bankers"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			net := topology.Omega(8)
			s, err := New(Config{Net: net, Avoidance: av})
			if err != nil {
				t.Fatal(err)
			}
			transmitting := map[int]TaskID{}
			acquired := map[TaskID]bool{}
			warm := 0
			for step := 0; step < 120; step++ {
				switch rng.Intn(8) {
				case 0:
					_, _ = s.fail(FaultTargetLink, rng.Intn(len(net.Links)))
				case 1:
					_, _ = s.fail(FaultTargetResource, rng.Intn(net.Ress))
				case 2, 3:
					_ = s.repair(FaultTargetLink, rng.Intn(len(net.Links)))
					_ = s.repair(FaultTargetResource, rng.Intn(net.Ress))
				}
				// New single-resource tasks on random processors. Random
				// churn can legitimately fault every resource at once, in
				// which case Submit's admission check correctly refuses the
				// task — skip it and let a later repair reopen the fabric.
				for i := 0; i < 1+rng.Intn(3); i++ {
					if _, err := s.Submit(Task{Proc: rng.Intn(net.Procs)}); err != nil &&
						!errors.Is(err, ErrUnsatisfiable) {
						t.Fatalf("step %d: submit: %v", step, err)
					}
				}

				// Pre-cycle snapshot: the fabric and the free-resource set
				// the solver will see.
				snap := s.net.Clone()
				var avail []core.Avail
				for r := 0; r < s.net.Ress; r++ {
					if s.resHolder[r] == -1 && !s.net.ResourceFaulted(r) {
						avail = append(avail, core.Avail{Res: r})
					}
				}

				r, err := s.Cycle()
				if err != nil {
					t.Fatalf("step %d: cycle: %v", step, err)
				}
				var reqs []core.Request
				for _, a := range r.Mapping.Assigned {
					reqs = append(reqs, core.Request{Proc: a.Req.Proc})
				}
				for _, b := range r.Mapping.Blocked {
					reqs = append(reqs, core.Request{Proc: b.Proc})
				}
				if len(reqs) > 0 && len(avail) > 0 {
					if r.Mapping.Solve.Warm {
						warm++
					} else if !r.Mapping.Solve.Cold {
						t.Fatalf("step %d: solve neither warm nor cold: %+v", step, r.Mapping.Solve)
					}
					oracle := core.BruteForceMax(snap, reqs, avail)
					cold, err := core.ScheduleMaxFlow(snap, reqs, avail)
					if err != nil {
						t.Fatalf("step %d: cold reference: %v", step, err)
					}
					if r.Granted != oracle || cold.Allocated() != oracle {
						t.Fatalf("step %d: warm granted %d, cold %d, brute %d",
							step, r.Granted, cold.Allocated(), oracle)
					}
				}
				for _, a := range r.Mapping.Assigned {
					transmitting[a.Req.Proc] = s.Transmitting(a.Req.Proc)
				}

				// Random transmission completions and service completions.
				// Iterate in sorted key order: ranging over the maps directly
				// while drawing from rng would consume random values in map
				// iteration order, making the "seeded" trace different every
				// run.
				procs := make([]int, 0, len(transmitting))
				for p := range transmitting {
					procs = append(procs, p)
				}
				sort.Ints(procs)
				for _, p := range procs {
					if rng.Intn(2) == 0 {
						if err := s.EndTransmission(p); err == nil {
							acquired[transmitting[p]] = true
						}
						delete(transmitting, p)
					}
				}
				ids := make([]TaskID, 0, len(acquired))
				for id := range acquired {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				for _, id := range ids {
					if rng.Intn(3) == 0 {
						if err := s.EndService(id); err != nil {
							t.Fatalf("step %d: end service %d: %v", step, id, err)
						}
						delete(acquired, id)
					}
				}
			}
			if warm == 0 {
				t.Fatal("trace never exercised the warm path")
			}
		})
	}
}

// TestWarmSolveCounters checks the solve flags under the default
// configuration: first flow cycle cold (arena build), then warm.
func TestWarmSolveCounters(t *testing.T) {
	s, err := New(Config{Net: topology.Omega(8)})
	if err != nil {
		t.Fatal(err)
	}
	a := mustSubmit(t, s, Task{Proc: 0})
	r := cycle(t, s)
	if !r.Mapping.Solve.Cold {
		t.Fatalf("first solve should be cold, got %+v", r.Mapping.Solve)
	}
	if err := s.EndTransmission(0); err != nil {
		t.Fatal(err)
	}
	if err := s.EndService(a); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, s, Task{Proc: 1})
	r = cycle(t, s)
	if !r.Mapping.Solve.Warm {
		t.Fatalf("steady-state solve should be warm, got %+v", r.Mapping.Solve)
	}
}
