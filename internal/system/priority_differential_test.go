package system

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"rsin/internal/core"
	"rsin/internal/topology"
)

// TestPriorityDifferentialTraces is the differential suite for the
// MinCost priority discipline: randomized arrival/release/fault traces
// on four fabric families, run under both deadlock-avoidance modes, with
// preemption exercised or not, and with random or flat (nil) resource
// preferences, holding every scheduling cycle to the brute-force
// weighted-value oracle. Equality is on total weighted value
// (core.WeightedValue), not on assignments — equal-value optima are
// legitimately non-unique. Each row fails as "did not exercise" unless
// its cycles reach both of the discipline's paths: the certified max-flow
// trial and the simplex.
func TestPriorityDifferentialTraces(t *testing.T) {
	for _, av := range []Avoidance{AvoidanceNone, AvoidanceBankers} {
		for _, preempt := range []bool{false, true} {
			t.Run(fmt.Sprintf("avoid=%d/preempt=%v", av, preempt), func(t *testing.T) {
				for _, row := range []string{"random", "flat"} {
					flat := row == "flat"
					t.Run(row, func(t *testing.T) {
						seed := 4211 + int64(av)*17
						if preempt {
							seed += 1000
						}
						if flat {
							seed += 500
						}
						x := runPriorityDifferential(t, rand.New(rand.NewSource(seed)), av, preempt, flat)
						if x.certified == 0 || x.simplex == 0 {
							t.Fatalf("did not exercise: %d certified and %d simplex cycles", x.certified, x.simplex)
						}
						t.Logf("%d certified and %d simplex cycles", x.certified, x.simplex)
					})
				}
			})
		}
	}
}

// solvePaths counts a MinCost trace's solved cycles by the path that
// settled them: the certified max-flow trial or the simplex.
type solvePaths struct{ certified, simplex int }

func (x *solvePaths) add(m *core.Mapping) {
	if m.Solve.Certified {
		x.certified++
	} else {
		x.simplex++
	}
}

// randomPrefs draws one preference in [0,12) per resource, or returns
// nil for a flat row.
func randomPrefs(rng *rand.Rand, ress int, flat bool) []int64 {
	if flat {
		return nil
	}
	prefs := make([]int64, ress)
	for r := range prefs {
		prefs[r] = rng.Int63n(12)
	}
	return prefs
}

func runPriorityDifferential(t *testing.T, rng *rand.Rand, av Avoidance, preempt, flat bool) (x solvePaths) {
	nets := []*topology.Network{
		topology.Omega(4),
		topology.Benes(4),
		topology.Clos(2, 2, 2),
		topology.RandomLoopFree(rng, 4, 4, 2, 3),
	}
	steps := 50
	if testing.Short() {
		steps = 15
	}
	for _, net := range nets {
		prefs := randomPrefs(rng, net.Ress, flat)
		raw, err := New(Config{Net: net, Discipline: MinCost, Avoidance: av, Preferences: prefs})
		if err != nil {
			t.Fatal(err)
		}
		sys := audit(t, raw)             // the ledger differential rides every operation
		live := map[TaskID]bool{}        // submitted, not yet EndServiced
		provisioned := map[TaskID]bool{} // Remaining == 0, awaiting EndService
		failedLinks := map[int]bool{}
		failedRes := map[int]bool{}
		for step := 0; step < steps; step++ {
			// Arrivals: tiered tasks with random fine-grain priorities.
			for p := 0; p < net.Procs; p++ {
				if rng.Float64() > 0.5 {
					continue
				}
				need := 1
				if rng.Float64() < 0.2 {
					need = 2
				}
				task := Task{Proc: p, Tier: rng.Intn(MaxTier + 1), Priority: rng.Int63n(1000), Need: need}
				id, err := sys.Submit(task)
				if err != nil {
					if errors.Is(err, ErrUnsatisfiable) {
						continue // demand exceeds degraded capacity; legal rejection
					}
					t.Fatalf("%s step %d: submit: %v", net.Name, step, err)
				}
				live[id] = true
			}
			// Releases: finished tasks leave, freeing their resources.
			for id := range provisioned {
				if rng.Float64() < 0.5 {
					if err := sys.EndService(id); err != nil {
						t.Fatalf("%s step %d: end service %d: %v", net.Name, step, id, err)
					}
					delete(live, id)
					delete(provisioned, id)
				}
			}
			// Hardware churn: fail or repair a random link or resource.
			if rng.Float64() < 0.25 {
				applyRandomFault(t, rng, sys, net, failedLinks, failedRes)
			}
			// Preemption: revoke a held unit from a random still-acquiring
			// task (the system primitive the sched policy drives).
			if preempt && rng.Float64() < 0.3 {
				for id := range live {
					if sys.Remaining(id) == 0 {
						continue
					}
					held := sys.Holding(id)
					if len(held) == 0 {
						continue
					}
					if err := sys.Preempt(id, held[0]); err != nil {
						t.Fatalf("%s step %d: preempt %d res %d: %v", net.Name, step, id, held[0], err)
					}
					break
				}
			}
			// Cycle to quiescence, checking every solve against the oracle.
			for {
				avail := snapshotAvail(sys, prefs)
				r, err := sys.Cycle()
				if err != nil {
					t.Fatalf("%s step %d: cycle: %v", net.Name, step, err)
				}
				checkRoutableHeld(t, sys.System, live)
				for _, a := range r.Mapping.Assigned {
					if err := sys.EndTransmission(a.Req.Proc); err != nil {
						t.Fatalf("%s step %d: end transmission %d: %v", net.Name, step, a.Req.Proc, err)
					}
				}
				reqs := make([]core.Request, 0, len(r.Mapping.Assigned)+len(r.Mapping.Blocked))
				for _, a := range r.Mapping.Assigned {
					reqs = append(reqs, a.Req)
				}
				reqs = append(reqs, r.Mapping.Blocked...)
				if len(reqs) > 0 && len(avail) > 0 {
					x.add(r.Mapping)
					got := core.WeightedValue(reqs, avail, r.Mapping)
					want := core.BruteForceBestValue(sys.net, reqs, avail)
					if got != want {
						t.Fatalf("%s step %d: discipline value %d, brute force %d (reqs %v)",
							net.Name, step, got, want, reqs)
					}
				}
				for id := range live {
					if sys.Remaining(id) == 0 {
						provisioned[id] = true
					}
				}
				if r.Granted == 0 {
					break
				}
			}
		}
	}
	return x
}

// snapshotAvail rebuilds the avail list the next cycle will price,
// exactly as Cycle does for Prefs-free tasks: every unheld, unfaulted
// resource at its configured preference (0 for all when prefs is nil).
func snapshotAvail(sys audited, prefs []int64) []core.Avail {
	var avail []core.Avail
	for r := 0; r < sys.net.Ress; r++ {
		if sys.resHolder[r] != -1 || sys.net.ResourceFaulted(r) {
			continue
		}
		avail = append(avail, core.Avail{Res: r, Preference: prefOf(prefs, r)})
	}
	return avail
}

// prefOf is resource r's configured preference, 0 when prefs is nil.
func prefOf(prefs []int64, r int) int64 {
	if prefs == nil {
		return 0
	}
	return prefs[r]
}

// applyRandomFault fails a random healthy component or repairs the
// lowest-numbered failed one, keeping the trace's shadow fault sets in sync;
// a seed replays the same churn.
func applyRandomFault(t *testing.T, rng *rand.Rand, sys audited, net *topology.Network, failedLinks, failedRes map[int]bool) {
	t.Helper()
	if rng.Float64() < 0.5 && net.Ress > 1 {
		// Resource fault or repair; keep at least one resource alive.
		if len(failedRes) > 0 && rng.Float64() < 0.5 {
			r := slices.Min(slices.Collect(maps.Keys(failedRes)))
			if err := sys.repair(FaultTargetResource, r); err != nil {
				t.Fatalf("repair resource %d: %v", r, err)
			}
			delete(failedRes, r)
			return
		}
		if len(failedRes) >= net.Ress-1 {
			return
		}
		r := rng.Intn(net.Ress)
		if failedRes[r] {
			return
		}
		if _, err := sys.fail(FaultTargetResource, r); err != nil {
			t.Fatalf("fail resource %d: %v", r, err)
		}
		failedRes[r] = true
		return
	}
	if len(failedLinks) > 0 && rng.Float64() < 0.5 {
		l := slices.Min(slices.Collect(maps.Keys(failedLinks)))
		if err := sys.repair(FaultTargetLink, l); err != nil {
			t.Fatalf("repair link %d: %v", l, err)
		}
		delete(failedLinks, l)
		return
	}
	l := rng.Intn(len(net.Links))
	if failedLinks[l] {
		return
	}
	if _, err := sys.fail(FaultTargetLink, l); err != nil {
		t.Fatalf("fail link %d: %v", l, err)
	}
	failedLinks[l] = true
}

// TestPrefsSteerAssignment pins the per-task preference aggregation
// semantics: a single requester's Prefs raise the cycle's global price
// of a resource, steering the min-cost solve toward it when everything
// else ties.
func TestPrefsSteerAssignment(t *testing.T) {
	net := topology.Crossbar(1, 2)
	sys, err := New(Config{Net: net, Discipline: MinCost})
	if err != nil {
		t.Fatal(err)
	}
	prefs := make([]int64, net.Ress)
	prefs[1] = 5
	id, err := sys.Submit(Task{Proc: 0, Prefs: prefs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Cycle(); err != nil {
		t.Fatal(err)
	}
	if err := sys.EndTransmission(0); err != nil {
		t.Fatal(err)
	}
	held := sys.Holding(id)
	if len(held) != 1 || held[0] != 1 {
		t.Fatalf("holding %v, want the preferred resource 1", held)
	}
}

// checkRoutableHeld holds the planner's reachability probe to its
// definition — the first held unit, in acquisition order, that is healthy
// and that FindPath reaches from the processor — for every live task and
// every processor, while the cycle's circuits still occupy their links.
func checkRoutableHeld(t *testing.T, sys *System, live map[TaskID]bool) {
	t.Helper()
	var pr routeProbe
	for p := 0; p < sys.net.Procs; p++ {
		pr.sweep(sys.net, p)
		for id := range live {
			want := -1
			for _, r := range sys.Holding(id) {
				if !sys.net.ResourceFaulted(r) && sys.net.FindPath(p, func(res int) bool { return res == r }) != nil {
					want = r
					break
				}
			}
			got := -1
			if ts := sys.task(id); ts != nil {
				got = pr.routableHeld(sys.net, ts)
			}
			if got != want {
				t.Fatalf("routableHeld(%d) from p%d = %d, reference %d (holding %v)", id, p, got, want, sys.Holding(id))
			}
		}
	}
}
