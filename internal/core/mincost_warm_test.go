package core

import (
	"math/rand"
	"testing"

	"rsin/internal/topology"
)

// TestPriorityPricingFixture is the regression fixture for the pricing
// bug the cross-solver battery exposed: under the original uniform bypass
// cost, every request arc was saturated in every solution, so the total
// request-arc cost was constant and priorities never influenced which
// equal-cardinality optimum an engine picked — successive shortest paths
// happened to favor high priorities, the other engines legitimately did
// not. With the per-request bypass surcharge (base + y_p), forfeiting a
// high-priority request is strictly more expensive, and every optimal
// engine must allocate the y=9 request on a 2x1 crossbar. The priced
// multicommodity LP of ScheduleHetero is held to the same pricing, and
// every engine runs both orientations (y=9 on p0, then on p1), so no
// engine passes by serving whichever processor it happens to reach last.
func TestPriorityPricingFixture(t *testing.T) {
	engines := []struct {
		name string
		run  func(*topology.Network, []Request, []Avail) (*Mapping, error)
	}{
		{"ssp", ScheduleMinCost},
		{"out-of-kilter", ScheduleMinCostOutOfKilter},
		{"netsimplex", ScheduleMinCostNetworkSimplex},
		{"netsimplex-warm", func(n *topology.Network, r []Request, a []Avail) (*Mapping, error) {
			var p Planner
			return p.ScheduleMinCostIncremental(n, r, a)
		}},
		{"hetero-priced", func(n *topology.Network, r []Request, a []Avail) (*Mapping, error) {
			return ScheduleHetero(n, r, a, &HeteroOptions{UsePriorities: true})
		}},
	}
	for _, e := range engines {
		for hi := 0; hi < 2; hi++ {
			net := topology.Crossbar(2, 1)
			reqs := []Request{{Proc: 0}, {Proc: 1}}
			reqs[hi].Priority = 9
			avail := []Avail{{Res: 0}}
			m, err := e.run(net, reqs, avail)
			if err != nil {
				t.Fatalf("%s, y=9 on p%d: %v", e.name, hi, err)
			}
			if len(m.Assigned) != 1 || m.Assigned[0].Req.Proc != hi {
				t.Fatalf("%s: assigned %+v, want the priority-9 request from proc %d", e.name, m.Assigned, hi)
			}
			if got, want := WeightedValue(reqs, avail, m), BruteForceBestValue(net, reqs, avail); got != want {
				t.Fatalf("%s, y=9 on p%d: weighted value %d, brute force %d", e.name, hi, got, want)
			}
		}
	}
}

// traceNets builds the four fabric families the epoch-trace suites run on.
func traceNets(rng *rand.Rand) []*topology.Network {
	return []*topology.Network{
		topology.Omega(4),
		topology.Benes(4),
		topology.Clos(2, 2, 2),
		topology.RandomLoopFree(rng, 4, 4, 2, 3),
	}
}

// randomInstance draws one epoch's workload: a random subset of
// processors with random priorities, and every currently reachable
// resource with a random preference.
func randomInstance(rng *rand.Rand, net *topology.Network, busy map[int]bool) ([]Request, []Avail) {
	var reqs []Request
	for p := 0; p < net.Procs; p++ {
		if rng.Float64() < 0.7 {
			reqs = append(reqs, Request{Proc: p, Priority: rng.Int63n(12)})
		}
	}
	var avail []Avail
	for r := 0; r < net.Ress; r++ {
		if !busy[r] {
			avail = append(avail, Avail{Res: r, Preference: rng.Int63n(12)})
		}
	}
	return reqs, avail
}

// TestMinCostIncrementalMatchesColdOnTraces drives the warm-basis planner
// through randomized epoch traces — establish the granted circuits, hold
// them for random spans, release — on Omega, Benes, Clos and random
// loop-free fabrics, holding every epoch's warm solve to the cold SSP
// solve on objective (equal weighted value and equal transformation cost;
// assignments may legally differ between equal-cost optima).
func TestMinCostIncrementalMatchesColdOnTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(613))
	epochs := 40
	if testing.Short() {
		epochs = 12
	}
	for _, net := range traceNets(rng) {
		var pl Planner
		busy := map[int]bool{}
		var live []topology.Circuit
		warmSeen := false
		for epoch := 0; epoch < epochs; epoch++ {
			reqs, avail := randomInstance(rng, net, busy)
			if len(reqs) == 0 {
				continue
			}
			cold, err := ScheduleMinCost(net, reqs, avail)
			if err != nil {
				t.Fatalf("%s epoch %d: cold: %v", net.Name, epoch, err)
			}
			warm, err := pl.ScheduleMinCostIncremental(net, reqs, avail)
			if err != nil {
				t.Fatalf("%s epoch %d: warm: %v", net.Name, epoch, err)
			}
			if warm.Cost != cold.Cost || warm.Allocated() != cold.Allocated() {
				t.Fatalf("%s epoch %d: warm cost %d (%d allocs) vs cold cost %d (%d allocs)",
					net.Name, epoch, warm.Cost, warm.Allocated(), cold.Cost, cold.Allocated())
			}
			wv, cv := WeightedValue(reqs, avail, warm), WeightedValue(reqs, avail, cold)
			if wv != cv {
				t.Fatalf("%s epoch %d: warm value %d, cold value %d", net.Name, epoch, wv, cv)
			}
			if warm.Solve.Warm {
				warmSeen = true
			}
			// Evolve the fabric: establish this epoch's grants, then
			// release a random subset of all live circuits.
			if err := warm.Apply(net); err != nil {
				t.Fatalf("%s epoch %d: apply: %v", net.Name, epoch, err)
			}
			for _, a := range warm.Assigned {
				busy[a.Res] = true
				live = append(live, a.Circuit)
			}
			keep := live[:0]
			for _, c := range live {
				if rng.Float64() < 0.4 {
					if err := net.Release(c); err != nil {
						t.Fatalf("%s epoch %d: release: %v", net.Name, epoch, err)
					}
					delete(busy, c.Res)
				} else {
					keep = append(keep, c)
				}
			}
			live = append([]topology.Circuit(nil), keep...)
		}
		if !warmSeen {
			t.Fatalf("%s: no epoch used the warm basis", net.Name)
		}
	}
}

// TestMinCostIncrementalFaultEpochFallsCold verifies the cold-rebuild
// contract: a fault-epoch advance on the fabric invalidates the banked
// basis (the next solve reports Cold), after which the arena warms back
// up, and results stay optimal throughout.
func TestMinCostIncrementalFaultEpochFallsCold(t *testing.T) {
	net := topology.Omega(4)
	var pl Planner
	reqs := []Request{{Proc: 0, Priority: 3}, {Proc: 1, Priority: 1}, {Proc: 2, Priority: 7}}
	avail := []Avail{{Res: 0, Preference: 1}, {Res: 1}, {Res: 2, Preference: 4}, {Res: 3}}

	m1, err := pl.ScheduleMinCostIncremental(net, reqs, avail)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Solve.Warm || !m1.Solve.Cold {
		t.Fatalf("first solve: %+v, want cold", m1.Solve)
	}
	coldCost := m1.Cost // m1 is the planner's: the next solve refills it
	m2, err := pl.ScheduleMinCostIncremental(net, reqs, avail)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Solve.Warm {
		t.Fatalf("second solve: %+v, want warm", m2.Solve)
	}
	if m2.Cost != coldCost {
		t.Fatalf("warm cost %d, cold cost %d", m2.Cost, coldCost)
	}

	if err := net.FailLink(net.ProcLink[3]); err != nil {
		t.Fatal(err)
	}
	m3, err := pl.ScheduleMinCostIncremental(net, reqs, avail)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Solve.Warm || !m3.Solve.Cold {
		t.Fatalf("post-fault solve: %+v, want cold", m3.Solve)
	}
	cold, err := ScheduleMinCost(net, reqs, avail)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Cost != cold.Cost || m3.Allocated() != cold.Allocated() {
		t.Fatalf("post-fault warm cost %d (%d), cold %d (%d)", m3.Cost, m3.Allocated(), cold.Cost, cold.Allocated())
	}
	m4, err := pl.ScheduleMinCostIncremental(net, reqs, avail)
	if err != nil {
		t.Fatal(err)
	}
	if !m4.Solve.Warm {
		t.Fatalf("post-fault second solve: %+v, want warm again", m4.Solve)
	}
	if m4.Solve.ArcsTouched != 0 {
		t.Fatalf("identical re-solve touched %d arcs, want 0", m4.Solve.ArcsTouched)
	}
}

// TestWarmSimplexPivotRatchet is the performance ratchet behind the CI
// warm gate: over an epoch trace, the warm-basis planner must do strictly
// less total pivot work (simplex flow changes) than one-shot cold network
// simplex solves of the same instances. A refactor that silently stops
// reusing the basis fails here before it reaches a benchmark. The exact
// counts are pinned too: the trace is seeded and pricing is
// deterministic, so any change to the pivot sequence — a tree update
// that leaves a potential stale, a different entering or leaving rule —
// moves them.
func TestWarmSimplexPivotRatchet(t *testing.T) {
	const wantWarm, wantCold = 938, 1783
	rng := rand.New(rand.NewSource(1986))
	net := topology.Benes(8)
	var pl Planner
	busy := map[int]bool{}
	var live []topology.Circuit
	var warmPivots, coldPivots int
	for epoch := 0; epoch < 30; epoch++ {
		reqs, avail := randomInstance(rng, net, busy)
		if len(reqs) == 0 {
			continue
		}
		warm, err := pl.ScheduleMinCostIncremental(net, reqs, avail)
		if err != nil {
			t.Fatalf("epoch %d: warm: %v", epoch, err)
		}
		cold, err := ScheduleMinCostNetworkSimplex(net, reqs, avail)
		if err != nil {
			t.Fatalf("epoch %d: cold: %v", epoch, err)
		}
		if warm.Cost != cold.Cost {
			t.Fatalf("epoch %d: warm cost %d, cold cost %d", epoch, warm.Cost, cold.Cost)
		}
		warmPivots += warm.Ops.Augmentations
		coldPivots += cold.Ops.Augmentations
		if err := warm.Apply(net); err != nil {
			t.Fatalf("epoch %d: apply: %v", epoch, err)
		}
		for _, a := range warm.Assigned {
			busy[a.Res] = true
			live = append(live, a.Circuit)
		}
		keep := live[:0]
		for _, c := range live {
			if rng.Float64() < 0.5 {
				if err := net.Release(c); err != nil {
					t.Fatal(err)
				}
				delete(busy, c.Res)
			} else {
				keep = append(keep, c)
			}
		}
		live = append([]topology.Circuit(nil), keep...)
	}
	if warmPivots >= coldPivots {
		t.Fatalf("warm planner did %d pivots, cold did %d: warm start is not paying for itself",
			warmPivots, coldPivots)
	}
	if warmPivots != wantWarm || coldPivots != wantCold {
		t.Fatalf("pivot sequence changed: warm %d, cold %d pivots, pinned %d and %d",
			warmPivots, coldPivots, wantWarm, wantCold)
	}
	t.Logf("pivot ratchet: warm %d, cold %d", warmPivots, coldPivots)
}
