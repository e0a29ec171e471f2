package core

import (
	"math/rand"
	"testing"

	"rsin/internal/graph"
	"rsin/internal/maxflow"
	"rsin/internal/testutil"
	"rsin/internal/topology"
)

// TestDifferentialFlowEngines cross-checks every max-flow engine on ~200
// random Transformation-1-shaped unit networks: Ford-Fulkerson,
// Edmonds-Karp, Dinic and push-relabel must agree on the flow value, and
// each write-back must be a legal flow of that value.
func TestDifferentialFlowEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(1986))
	trials := 200
	if testing.Short() {
		trials = 50
	}
	engines := []struct {
		name string
		run  func(*graph.Network) maxflow.Result
	}{
		{"ford-fulkerson", maxflow.FordFulkerson},
		{"edmonds-karp", maxflow.EdmondsKarp},
		{"dinic", maxflow.Dinic},
		{"push-relabel", maxflow.PushRelabel},
	}
	for trial := 0; trial < trials; trial++ {
		stages := 2 + rng.Intn(3)
		width := 2 + rng.Intn(6)
		g := testutil.RandomUnitNetwork(rng, stages, width, 0.15+0.7*rng.Float64())
		want := int64(-1)
		for _, e := range engines {
			h := g.Clone()
			res := e.run(h)
			if want == -1 {
				want = res.Value
			} else if res.Value != want {
				t.Fatalf("trial %d (stages=%d width=%d): %s found %d, first engine found %d",
					trial, stages, width, e.name, res.Value, want)
			}
			if err := h.CheckLegal(); err != nil {
				t.Fatalf("trial %d: %s wrote an illegal flow: %v", trial, e.name, err)
			}
			if h.Value() != want {
				t.Fatalf("trial %d: %s write-back carries %d, reported %d",
					trial, e.name, h.Value(), want)
			}
		}
	}
}

// TestDifferentialSchedulersVsBrute cross-checks the whole scheduling
// stack on random loop-free fabrics: the flow engines must agree with each
// other on the Transformation-1 graph, ScheduleMaxFlow must allocate
// exactly that flow value, and both must match the exhaustive brute-force
// oracle of §III.
func TestDifferentialSchedulersVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	trials := 80
	if testing.Short() {
		trials = 25
	}
	for trial := 0; trial < trials; trial++ {
		net := topology.RandomLoopFree(rng, 3+rng.Intn(3), 3+rng.Intn(3), 1+rng.Intn(2), 3)
		var reqs []Request
		for p := 0; p < net.Procs; p++ {
			if rng.Float64() < 0.7 {
				reqs = append(reqs, Request{Proc: p})
			}
		}
		var avail []Avail
		for r := 0; r < net.Ress; r++ {
			if rng.Float64() < 0.7 {
				avail = append(avail, Avail{Res: r})
			}
		}
		tr := Transform1(net, reqs, avail)
		ff := maxflow.FordFulkerson(tr.G.Clone())
		ek := maxflow.EdmondsKarp(tr.G.Clone())
		di := maxflow.Dinic(tr.G.Clone())
		if ff.Value != ek.Value || ek.Value != di.Value {
			t.Fatalf("trial %d (%s): FF %d, EK %d, Dinic %d",
				trial, net.Name, ff.Value, ek.Value, di.Value)
		}
		m, err := ScheduleMaxFlow(net, reqs, avail)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, net.Name, err)
		}
		if int64(m.Allocated()) != di.Value {
			t.Fatalf("trial %d (%s): scheduler allocated %d, flow value %d",
				trial, net.Name, m.Allocated(), di.Value)
		}
		if want := BruteForceMax(net, reqs, avail); m.Allocated() != want {
			t.Fatalf("trial %d (%s): scheduler allocated %d, brute force %d",
				trial, net.Name, m.Allocated(), want)
		}
		if err := VerifyOptimal(net, reqs, avail, m); err != nil {
			t.Fatalf("trial %d (%s): %v", trial, net.Name, err)
		}
	}
}

// TestDifferentialMinCostEngines cross-checks the priced discipline on
// random fabrics and workloads: successive shortest paths and Fulkerson's
// out-of-kilter method must agree on both the allocation count and the
// total cost (each is optimal, so any disagreement is a bug in one).
func TestDifferentialMinCostEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	trials := 60
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		net := topology.RandomLoopFree(rng, 4+rng.Intn(3), 4+rng.Intn(3), 1+rng.Intn(2), 3)
		var reqs []Request
		for p := 0; p < net.Procs; p++ {
			if rng.Float64() < 0.6 {
				reqs = append(reqs, Request{Proc: p, Priority: rng.Int63n(10)})
			}
		}
		var avail []Avail
		for r := 0; r < net.Ress; r++ {
			if rng.Float64() < 0.6 {
				avail = append(avail, Avail{Res: r, Preference: rng.Int63n(10)})
			}
		}
		if len(reqs) == 0 {
			continue
		}
		ssp, err := ScheduleMinCost(net, reqs, avail)
		if err != nil {
			t.Fatalf("trial %d (%s): ssp: %v", trial, net.Name, err)
		}
		ook, err := ScheduleMinCostOutOfKilter(net, reqs, avail)
		if err != nil {
			t.Fatalf("trial %d (%s): out-of-kilter: %v", trial, net.Name, err)
		}
		if ssp.Allocated() != ook.Allocated() || ssp.Cost != ook.Cost {
			t.Fatalf("trial %d (%s): SSP (%d resources, cost %d) vs out-of-kilter (%d resources, cost %d)",
				trial, net.Name, ssp.Allocated(), ssp.Cost, ook.Allocated(), ook.Cost)
		}
		// Both must also allocate maximally (Theorem 3 ties Transformation 2
		// to the Transformation 1 optimum).
		opt, err := ScheduleMaxFlow(net, reqs, avail)
		if err != nil {
			t.Fatal(err)
		}
		if ssp.Allocated() != opt.Allocated() {
			t.Fatalf("trial %d (%s): min-cost allocated %d, optimum %d",
				trial, net.Name, ssp.Allocated(), opt.Allocated())
		}
	}
}
