package rsin

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rsin/internal/core"
	"rsin/internal/experiments"
	"rsin/internal/graph"
	"rsin/internal/heuristic"
	"rsin/internal/maxflow"
	"rsin/internal/mincost"
	"rsin/internal/monitorarch"
	"rsin/internal/multiflow"
	"rsin/internal/netsimplex"
	"rsin/internal/packetsim"
	"rsin/internal/placement"
	"rsin/internal/sched"
	"rsin/internal/sim"
	"rsin/internal/system"
	"rsin/internal/testutil"
	"rsin/internal/token"
	"rsin/internal/topology"
	"rsin/internal/workload"
)

// graphNet and newGraph shorten the flow-graph references in the benches.
type graphNet = graph.Network

var newGraph = graph.New

// fig2Net builds the Fig. 2 scenario: 8x8 Omega, circuits p2-r6 and p4-r4
// occupied (paper numbering).
func fig2Net() (*topology.Network, []core.Request, []core.Avail) {
	net := topology.Omega(8)
	for _, pr := range [][2]int{{1, 5}, {3, 3}} {
		c := net.FindPath(pr[0], func(r int) bool { return r == pr[1] })
		if err := net.Establish(*c); err != nil {
			panic(err)
		}
	}
	reqs := []core.Request{{Proc: 0}, {Proc: 2}, {Proc: 4}, {Proc: 6}, {Proc: 7}}
	avail := []core.Avail{{Res: 0}, {Res: 2}, {Res: 4}, {Res: 6}, {Res: 7}}
	return net, reqs, avail
}

// BenchmarkE1Fig2OmegaMapping regenerates Fig. 2: one optimal scheduling
// cycle on the worked example (all five resources allocated).
func BenchmarkE1Fig2OmegaMapping(b *testing.B) {
	net, reqs, avail := fig2Net()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := core.ScheduleMaxFlow(net, reqs, avail)
		if err != nil || m.Allocated() != 5 {
			b.Fatalf("allocated %d, err %v", m.Allocated(), err)
		}
	}
}

// BenchmarkE2Augment regenerates Fig. 3/4: flow augmentation with
// cancellation starting from the s-a-d-t assignment.
func BenchmarkE2Augment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := fig3Graph()
		res := maxflow.FordFulkerson(g)
		if res.Value != 2 {
			b.Fatalf("flow %d, want 2", res.Value)
		}
	}
}

// fig3Graph is the Fig. 3 network with the initial one-unit flow assigned
// along s-a-d-t.
func fig3Graph() *graphNet {
	g := newGraph(6, 0, 5)
	sa := g.AddArc(0, 1, 1, 0)
	g.AddArc(0, 3, 1, 0)
	g.AddArc(1, 2, 1, 0)
	ad := g.AddArc(1, 4, 1, 0)
	g.AddArc(3, 4, 1, 0)
	g.AddArc(2, 5, 1, 0)
	dt := g.AddArc(4, 5, 1, 0)
	g.Arcs[sa].Flow = 1
	g.Arcs[ad].Flow = 1
	g.Arcs[dt].Flow = 1
	return g
}

// BenchmarkE3Fig5MinCost regenerates Fig. 5: Transformation 2 with request
// priorities and resource preferences on the 8x8 Omega.
func BenchmarkE3Fig5MinCost(b *testing.B) {
	net := topology.Omega(8)
	// Fig. 5 (paper numbering p3, p5, p8 requesting; r1, r3, r5, r7, r8
	// free; priorities/preferences on a 1-10 scale).
	reqs := []core.Request{
		{Proc: 2, Priority: 9},
		{Proc: 4, Priority: 6},
		{Proc: 7, Priority: 2},
	}
	avail := []core.Avail{
		{Res: 0, Preference: 9},
		{Res: 2, Preference: 1},
		{Res: 4, Preference: 5},
		{Res: 6, Preference: 3},
		{Res: 7, Preference: 3},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := core.ScheduleMinCost(net, reqs, avail)
		if err != nil || m.Allocated() != 3 {
			b.Fatalf("allocated %d, err %v", m.Allocated(), err)
		}
	}
}

// benchBlocking runs one scheduling cycle per iteration on a fresh random
// pattern — the unit of work behind every blocking-probability figure.
func benchBlocking(b *testing.B, build func() *topology.Network, sched heuristic.Scheduler, occ float64) {
	rng := rand.New(rand.NewSource(1))
	cfg := workload.Config{PRequest: 0.75, PFree: 0.75}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := build()
		if occ > 0 {
			workload.OccupyRandom(rng, net, occ)
		}
		pat := workload.Generate(rng, net, cfg)
		_ = sched(net, pat.Requests, pat.Avail, rng)
	}
}

// BenchmarkE4CubeBlocking regenerates the §II blocking comparison on the
// 8x8 indirect binary cube (optimal ~2% vs heuristic ~20%).
func BenchmarkE4CubeBlocking(b *testing.B) {
	build := func() *topology.Network { return topology.IndirectCube(8) }
	b.Run("optimal", func(b *testing.B) { benchBlocking(b, build, heuristic.Optimal, 0) })
	b.Run("greedy", func(b *testing.B) { benchBlocking(b, build, heuristic.GreedyFirstFit, 0) })
	b.Run("address", func(b *testing.B) { benchBlocking(b, build, heuristic.AddressMapping, 0) })
}

// BenchmarkE5OmegaBlocking regenerates the Omega < 5% blockage claim across
// sizes.
func BenchmarkE5OmegaBlocking(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		n := n
		b.Run(fmt.Sprintf("omega-%d", n), func(b *testing.B) {
			benchBlocking(b, func() *topology.Network { return topology.Omega(n) }, heuristic.Optimal, 0)
		})
	}
}

// BenchmarkE6OccupancySweep regenerates the partially-occupied-network
// sweep on the 8x8 Omega.
func BenchmarkE6OccupancySweep(b *testing.B) {
	build := func() *topology.Network { return topology.Omega(8) }
	for _, occ := range []float64{0, 0.2, 0.4} {
		occ := occ
		b.Run(fmt.Sprintf("optimal-occ%.0f%%", occ*100), func(b *testing.B) {
			benchBlocking(b, build, heuristic.Optimal, occ)
		})
		b.Run(fmt.Sprintf("address-occ%.0f%%", occ*100), func(b *testing.B) {
			benchBlocking(b, build, heuristic.AddressMapping, occ)
		})
	}
}

// BenchmarkE7ExtraStages regenerates the extra-stage sweep.
func BenchmarkE7ExtraStages(b *testing.B) {
	for extra := 0; extra <= 2; extra++ {
		extra := extra
		b.Run(fmt.Sprintf("omega+%d", extra), func(b *testing.B) {
			benchBlocking(b, func() *topology.Network { return topology.OmegaExtra(8, extra) },
				heuristic.Optimal, 0)
		})
	}
	b.Run("gamma", func(b *testing.B) {
		benchBlocking(b, func() *topology.Network { return topology.Gamma(8) }, heuristic.Optimal, 0)
	})
}

// BenchmarkE8LayeredNetwork regenerates Fig. 8: constructing the layered
// network (one Dinic BFS phase) on a 4x4 MRSIN flow graph.
func BenchmarkE8LayeredNetwork(b *testing.B) {
	net := topology.Omega(4)
	reqs := []core.Request{{Proc: 0}, {Proc: 1}, {Proc: 3}}
	avail := []core.Avail{{Res: 0}, {Res: 2}, {Res: 3}}
	tr := core.Transform1(net, reqs, avail)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		levels := maxflow.LayeredNetwork(tr.G)
		if levels[tr.G.Sink] < 0 {
			b.Fatal("sink unreachable")
		}
	}
}

// BenchmarkE9StatusBus regenerates the Table I / Fig. 10 protocol: one full
// token-architecture cycle with bus recording on.
func BenchmarkE9StatusBus(b *testing.B) {
	net := topology.Omega(8)
	requesting := []bool{true, false, true, false, true, false, true, true}
	free := []bool{true, false, true, false, true, false, true, true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := token.Schedule(net, requesting, free, &token.Options{RecordBus: true})
		if err != nil || len(res.BusTrace) == 0 {
			b.Fatalf("bus trace empty, err %v", err)
		}
	}
}

// BenchmarkE10TokenVsMonitor regenerates the architecture comparison: one
// full-load scheduling cycle per iteration on each architecture.
func BenchmarkE10TokenVsMonitor(b *testing.B) {
	for _, n := range []int{8, 32} {
		n := n
		requesting := make([]bool, n)
		free := make([]bool, n)
		var reqs []core.Request
		var avail []core.Avail
		for i := 0; i < n; i++ {
			requesting[i], free[i] = true, true
			reqs = append(reqs, core.Request{Proc: i})
			avail = append(avail, core.Avail{Res: i})
		}
		b.Run(fmt.Sprintf("token-%d", n), func(b *testing.B) {
			net := topology.Omega(n)
			for i := 0; i < b.N; i++ {
				if _, err := token.Schedule(net, requesting, free, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("monitor-%d", n), func(b *testing.B) {
			net := topology.Omega(n)
			for i := 0; i < b.N; i++ {
				if _, err := monitorarch.Schedule(net, reqs, avail, monitorarch.Dinic, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11TableIIDisciplines times the four scheduling disciplines of
// Table II on a common 8x8 scenario.
func BenchmarkE11TableIIDisciplines(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	net := topology.Omega(8)
	pat := workload.Generate(rng, net, workload.Config{
		PRequest: 0.75, PFree: 0.75, Priorities: 10, Preferences: 10, Types: 2,
	})
	homoReq := append([]core.Request(nil), pat.Requests...)
	homoAvail := append([]core.Avail(nil), pat.Avail...)
	for i := range homoReq {
		homoReq[i].Type = 0
	}
	for i := range homoAvail {
		homoAvail[i].Type = 0
	}
	b.Run("maxflow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ScheduleMaxFlow(net, homoReq, homoAvail); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mincost", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ScheduleMinCost(net, homoReq, homoAvail); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mincost-outofkilter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ScheduleMinCostOutOfKilter(net, homoReq, homoAvail); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multicommodity-lp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ScheduleHetero(net, pat.Requests, pat.Avail, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("integer-multicommodity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ScheduleHetero(net, pat.Requests, pat.Avail,
				&core.HeteroOptions{Exact: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE12DinicScaling measures Dinic on growing unit-capacity
// networks (the O(V^{2/3}E) regime of §III-B).
func BenchmarkE12DinicScaling(b *testing.B) {
	for _, width := range []int{8, 16, 32, 64} {
		width := width
		b.Run(fmt.Sprintf("width-%d", width), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(width)))
			nets := make([]*graphNet, 16)
			for i := range nets {
				nets[i] = testutil.RandomUnitNetwork(rng, 4, width, 0.4)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := nets[i%len(nets)].Clone()
				maxflow.Dinic(g)
			}
		})
	}
}

// BenchmarkE13Integrality measures one multicommodity LP solve on an MRSIN
// transformation (the restricted-topology integrality workload).
func BenchmarkE13Integrality(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	net := topology.Omega(8)
	pat := workload.Generate(rng, net, workload.Config{PRequest: 0.6, PFree: 0.6, Types: 2})
	g, comms := core.BuildMulticommodity(net, pat.Requests, pat.Avail)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := multiflow.MaxFlow(g, comms, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14LoadBalance runs a short system simulation per iteration.
func BenchmarkE14LoadBalance(b *testing.B) {
	net := topology.Omega(8)
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Net: net,
			Schedule: func(n *topology.Network, r []core.Request, a []core.Avail) (*core.Mapping, error) {
				return core.ScheduleMaxFlow(n, r, a)
			},
			ArrivalRate: 1, TransmitTime: 0.4, ServiceTime: 0.6,
			Horizon: 50, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15CyclePolicy runs one short policy-ablation simulation per
// iteration (immediate vs batched cycle entry).
func BenchmarkE15CyclePolicy(b *testing.B) {
	for _, p := range []struct {
		name string
		pol  sim.CyclePolicy
	}{
		{"immediate", sim.CyclePolicy{}},
		{"batch4", sim.CyclePolicy{MinPending: 4}},
	} {
		p := p
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := sim.Run(sim.Config{
					Net: topology.Omega(8),
					Schedule: func(n *topology.Network, r []core.Request, a []core.Avail) (*core.Mapping, error) {
						return core.ScheduleMaxFlow(n, r, a)
					},
					ArrivalRate: 1, TransmitTime: 0.4, ServiceTime: 0.6,
					Horizon: 50, Seed: int64(i), Policy: p.pol,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE16Placement measures one Monte Carlo placement evaluation.
func BenchmarkE16Placement(b *testing.B) {
	net := topology.Omega(8)
	c := placement.Counts{0: 4, 1: 4}
	cont := placement.Contiguous(c)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		placement.Evaluate(net, cont, c, 0.9, 0.75, 20, int64(i))
	}
}

// BenchmarkE17CircuitVsPacket measures one full-load packet-switched
// delivery round on the Omega 16 (the E17 workload unit).
func BenchmarkE17CircuitVsPacket(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	net := topology.Omega(16)
	tasks := packetsim.RandomTasks(rng, net, 1.0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := packetsim.Run(packetsim.Config{Net: net, TaskLength: 16, BufferDepth: 2}, tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroDinic etc. give per-algorithm microbenchmarks on a common
// Transformation-1 graph.
func BenchmarkMicroFlowAlgorithms(b *testing.B) {
	net := topology.Omega(16)
	var reqs []core.Request
	var avail []core.Avail
	for i := 0; i < 16; i++ {
		reqs = append(reqs, core.Request{Proc: i})
		avail = append(avail, core.Avail{Res: i})
	}
	tr := core.Transform1(net, reqs, avail)
	algos := map[string]func(*graphNet) maxflow.Result{
		"dinic":          maxflow.Dinic,
		"edmonds-karp":   maxflow.EdmondsKarp,
		"ford-fulkerson": maxflow.FordFulkerson,
	}
	for name, algo := range algos {
		algo := algo
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			// The §IV monitor cost model charges by these counters, so a
			// regression here would silently skew it: accumulation across
			// iterations must stay non-negative and monotone.
			var acc maxflow.Counters
			for i := 0; i < b.N; i++ {
				g := tr.G.Clone()
				g.ResetFlow()
				res := algo(g)
				if res.Ops.Augmentations < 0 || res.Ops.Phases < 0 ||
					res.Ops.ArcScans < 0 || res.Ops.NodeVisits < 0 {
					b.Fatalf("negative counters: %+v", res.Ops)
				}
				prev := acc
				acc.Add(res.Ops)
				if acc.ArcScans < prev.ArcScans || acc.NodeVisits < prev.NodeVisits ||
					acc.Augmentations < prev.Augmentations || acc.Phases < prev.Phases {
					b.Fatalf("counter accumulation not monotone: %+v after %+v", acc, prev)
				}
			}
		})
	}
}

// BenchmarkSchedBatchedVsMutex contrasts the two ways to serve 64
// concurrent clients on an Omega(64): a naive mutex around a single
// System (one lock round-trip and one max-flow solve per task) versus the
// batched-epoch scheduling service (one solve amortized over the batch).
// The acceptance bar for the service is >= 2x the naive throughput.
func BenchmarkSchedBatchedVsMutex(b *testing.B) {
	const clients = 64
	b.Run("mutex", func(b *testing.B) {
		sys, err := system.New(system.Config{Net: topology.Omega(64)})
		if err != nil {
			b.Fatal(err)
		}
		var mu sync.Mutex
		runClients(b, clients, func(c, proc int) bool {
			mu.Lock()
			defer mu.Unlock()
			id, err := sys.Submit(system.Task{Proc: proc})
			if err != nil {
				b.Error(err)
				return false
			}
			r, err := sys.Cycle()
			if err != nil {
				b.Error(err)
				return false
			}
			if r.Granted > 0 {
				if err := sys.EndTransmission(proc); err != nil {
					b.Error(err)
					return false
				}
			}
			if sys.Remaining(id) == 0 {
				if err := sys.EndService(id); err != nil {
					b.Error(err)
					return false
				}
			}
			return true
		})
	})
	b.Run("batched", func(b *testing.B) {
		s, err := sched.New(sched.Config{
			Shards:    []system.Config{{Net: topology.Omega(64)}},
			BatchSize: clients,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		runClients(b, clients, func(c, proc int) bool { return schedRoundTrip(b, s, 0, proc) })
	})
}

// BenchmarkSchedSparseRoundTrip is the sparse shape of the scheduling
// service: 8 closed-loop clients on 2×Omega(64), far fewer operations in
// flight than one batch, so ns/op is the flush policy's latency (an op is
// served when the shard's queue runs dry, not when a batch fills) plus the
// per-cycle cost a small epoch pays for one to three tasks.
func BenchmarkSchedSparseRoundTrip(b *testing.B) {
	const clients, shards = 8, 2
	s, err := sched.New(sched.Config{
		Shards: []system.Config{{Net: topology.Omega(64)}, {Net: topology.Omega(64)}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	runClients(b, clients, func(c, proc int) bool { return schedRoundTrip(b, s, c%shards, proc) })
}

// runClients shares b.N round trips among closed-loop client goroutines;
// serve gets the client's index and a processor in [0,64), and returns
// false to stop the run.
func runClients(b *testing.B, clients int, serve func(client, proc int) bool) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				if !serve(c, int(i)%64) {
					next.Store(int64(b.N)) // stop the other clients
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// schedRoundTrip is one task through the service: Submit, wait for the
// grant, EndService.
func schedRoundTrip(b *testing.B, s *sched.Scheduler, shard, proc int) bool {
	h, err := s.Submit(shard, system.Task{Proc: proc})
	if err != nil {
		b.Error(err)
		return false
	}
	<-h.Done()
	if h.Err() != nil {
		b.Error(h.Err())
		return false
	}
	if err := s.EndService(h); err != nil {
		b.Error(err)
		return false
	}
	return true
}

func BenchmarkMicroMinCost(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := testutil.RandomNetwork(rng, 30, 0.2, 4, 6)
	target := maxflow.Dinic(g.Clone()).Value
	b.Run("ssp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := g.Clone()
			if _, err := mincost.SuccessiveShortestPaths(h, target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("out-of-kilter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := g.Clone()
			if _, err := mincost.OutOfKilter(h, target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("network-simplex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := g.Clone()
			if _, err := netsimplex.MinCostFlow(h, target); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCrossbarFastPath contrasts the Hopcroft-Karp crossbar scheduler
// against the generic flow transformation on the same instance.
func BenchmarkCrossbarFastPath(b *testing.B) {
	net := topology.Crossbar(32, 32)
	var reqs []core.Request
	var avail []core.Avail
	for i := 0; i < 32; i++ {
		reqs = append(reqs, core.Request{Proc: i})
		avail = append(avail, core.Avail{Res: i})
	}
	b.Run("hopcroft-karp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ScheduleCrossbar(net, reqs, avail); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flow-transformation", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ScheduleMaxFlow(net, reqs, avail); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMicroPushRelabel measures the fourth max-flow engine on the
// standard Transformation-1 instance.
func BenchmarkMicroPushRelabel(b *testing.B) {
	net := topology.Omega(16)
	var reqs []core.Request
	var avail []core.Avail
	for i := 0; i < 16; i++ {
		reqs = append(reqs, core.Request{Proc: i})
		avail = append(avail, core.Avail{Res: i})
	}
	tr := core.Transform1(net, reqs, avail)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := tr.G.Clone()
		maxflow.PushRelabel(g)
	}
}

// BenchmarkHarnessQuick regenerates the full experiment table set once per
// iteration at reduced trial counts — the end-to-end harness cost.
func BenchmarkHarnessQuick(b *testing.B) {
	if testing.Short() {
		b.Skip("harness too slow for -short")
	}
	for i := 0; i < b.N; i++ {
		tabs := experiments.All(int64(i+1), true)
		if len(tabs) != 14 {
			b.Fatalf("got %d tables", len(tabs))
		}
	}
}

// BenchmarkWarmVsColdEpochSolve measures one steady-state scheduling
// epoch — one release, one arrival, one solve on an Omega(32) fabric at
// half occupancy — under the incremental warm-start planner versus a
// cold per-epoch rebuild (Transformation 1 from scratch). The warm path
// syncs only the epoch's deltas against its persistent residual, which
// is the point of the tentpole; TestOpsGateRatchet in internal/core holds the
// operation-counter version of this comparison at break-even or better.
func BenchmarkWarmVsColdEpochSolve(b *testing.B) {
	const n = 32
	run := func(b *testing.B, warmStart bool) {
		net := topology.Omega(n)
		var p core.Planner
		solve := func(reqs []core.Request, avail []core.Avail) *core.Mapping {
			var m *core.Mapping
			var err error
			if warmStart {
				m, err = p.ScheduleIncremental(net, reqs, avail)
			} else {
				m, err = p.ScheduleMaxFlow(net, reqs, avail)
			}
			if err != nil {
				b.Fatal(err)
			}
			return m
		}
		// Fill to half occupancy, tracking grants oldest-first.
		var reqs []core.Request
		var avail []core.Avail
		for i := 0; i < n; i++ {
			if i < n/2 {
				reqs = append(reqs, core.Request{Proc: i})
			}
			avail = append(avail, core.Avail{Res: i})
		}
		m := solve(reqs, avail)
		if err := m.Apply(net); err != nil {
			b.Fatal(err)
		}
		held := append([]core.Assignment(nil), m.Assigned...)
		heldRes := make(map[int]bool)
		for _, a := range held {
			heldRes[a.Res] = true
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			old := held[0]
			held = held[1:]
			if err := net.Release(old.Circuit); err != nil {
				b.Fatal(err)
			}
			delete(heldRes, old.Res)
			reqs = reqs[:0]
			reqs = append(reqs, core.Request{Proc: old.Req.Proc})
			avail = avail[:0]
			for r := 0; r < n; r++ {
				if !heldRes[r] {
					avail = append(avail, core.Avail{Res: r})
				}
			}
			em := solve(reqs, avail)
			if len(em.Assigned) != 1 {
				b.Fatalf("epoch granted %d", len(em.Assigned))
			}
			if err := em.Apply(net); err != nil {
				b.Fatal(err)
			}
			held = append(held, em.Assigned...)
			heldRes[em.Assigned[0].Res] = true
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, false) })
	b.Run("warm", func(b *testing.B) { run(b, true) })
}

// typedEpochStream is a seeded stream of typed epochs on one Omega-16 with
// three striped resource types, the shape of the bench's typed_pool
// workload: each epoch a set of standing circuits occupying part of the
// fabric, typed requests from the idle processors and the free resources.
type typedEpoch struct {
	held  []topology.Circuit
	reqs  []core.Request
	avail []core.Avail
}

func typedEpochStream(net *topology.Network, n int) []typedEpoch {
	rng := rand.New(rand.NewSource(1986))
	out := make([]typedEpoch, n)
	for i := range out {
		e := &out[i]
		e.held = workload.OccupyRandom(rng, net, 0.3*rng.Float64())
		busyProc, busyRes := map[int]bool{}, map[int]bool{}
		for _, c := range e.held {
			busyProc[c.Proc], busyRes[c.Res] = true, true
		}
		for p := 0; p < net.Procs; p++ {
			if !busyProc[p] && rng.Float64() < 0.6 {
				e.reqs = append(e.reqs, core.Request{Proc: p, Type: rng.Intn(3)})
			}
		}
		for r := 0; r < net.Ress; r++ {
			if !busyRes[r] {
				e.avail = append(e.avail, core.Avail{Res: r, Type: r % 3})
			}
		}
		for _, c := range e.held {
			net.ForceRelease(c)
		}
	}
	return out
}

// BenchmarkTypedEpochSolve is the per-layer benchmark of the typed solve:
// one epoch of the stream per iteration, bound-first on a warm planner
// (what system.cycle runs) against the forced LP — building the labelled
// multicommodity network and solving the dense relaxation, the first two
// steps of the chain every epoch took before and a bound miss still takes.
// bound-first also reports lp_share, the share of epochs that missed the
// bound and went on to the LP.
func BenchmarkTypedEpochSolve(b *testing.B) {
	run := func(b *testing.B, solve func(*topology.Network, *typedEpoch) bool) {
		net := topology.Omega(16)
		stream := typedEpochStream(net, 256)
		lp := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := &stream[i%len(stream)]
			for _, c := range e.held {
				if err := net.Establish(c); err != nil {
					b.Fatal(err)
				}
			}
			if solve(net, e) {
				lp++
			}
			for _, c := range e.held {
				net.ForceRelease(c)
			}
		}
		b.ReportMetric(float64(lp)/float64(b.N), "lp_share")
	}
	b.Run("bound-first", func(b *testing.B) {
		var p core.Planner
		run(b, func(net *topology.Network, e *typedEpoch) bool {
			m, err := p.ScheduleHetero(net, e.reqs, e.avail, nil)
			if err != nil || !m.Solve.MultiFastPath && !m.Solve.MultiGreedy {
				b.Fatalf("epoch undecided: %+v, err %v", m, err)
			}
			return m.Solve.MultiLP
		})
	})
	b.Run("forced-LP", func(b *testing.B) {
		run(b, func(net *topology.Network, e *typedEpoch) bool {
			g, comms := core.BuildMulticommodity(net, e.reqs, e.avail)
			if _, err := multiflow.MaxFlow(g, comms, nil); err != nil {
				b.Fatal(err)
			}
			return true
		})
	})
}
