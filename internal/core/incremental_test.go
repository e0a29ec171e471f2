package core

import (
	"math/rand"
	"reflect"
	"testing"

	"rsin/internal/topology"
)

// incTraceTopologies are the fabrics the warm-start differential sweep
// runs on: the issue's four families, sized so the brute oracle stays
// tractable at every step.
func incTraceTopologies(rng *rand.Rand) []*topology.Network {
	return []*topology.Network{
		topology.Omega(8),
		topology.Benes(8),
		topology.Clos(3, 2, 4),
		topology.RandomLoopFree(rng, 6, 6, 3, 4),
	}
}

// incTrace drives one planner over a randomized arrival/release/fault
// trace on net, checking at EVERY step that the warm-start mapping
// value equals a cold ScheduleMaxFlow of the identical instance and the
// brute-force oracle. It returns how many steps solved warm.
func incTrace(t *testing.T, net *topology.Network, rng *rand.Rand, steps int) int {
	t.Helper()
	var warmPlanner Planner
	warmSolves := 0

	type standing struct{ c topology.Circuit }
	var circuits []standing
	heldRes := make(map[int]bool)
	heldProc := make(map[int]bool)

	release := func(i int) {
		s := circuits[i]
		if err := net.Release(s.c); err != nil {
			t.Fatalf("release: %v", err)
		}
		delete(heldRes, s.c.Res)
		delete(heldProc, s.c.Proc)
		circuits = append(circuits[:i], circuits[i+1:]...)
	}
	sever := func() {
		// Emulate system.severBroken: circuits over failed components are
		// force-released and their units returned.
		for i := len(circuits) - 1; i >= 0; i-- {
			s := circuits[i]
			usable := true
			for _, lid := range s.c.Links {
				if !net.LinkUsable(lid) {
					usable = false
					break
				}
			}
			if !usable {
				net.ForceRelease(s.c)
				delete(heldRes, s.c.Res)
				delete(heldProc, s.c.Proc)
				circuits = append(circuits[:i], circuits[i+1:]...)
			}
		}
	}

	for step := 0; step < steps; step++ {
		// Random hardware churn, biased toward repair so the fabric
		// oscillates between degraded and healthy.
		switch rng.Intn(6) {
		case 0:
			_ = net.FailLink(rng.Intn(len(net.Links)))
			sever()
		case 1:
			if len(net.Boxes) > 0 {
				_ = net.FailBox(rng.Intn(len(net.Boxes)))
				sever()
			}
		case 2:
			_ = net.FailResource(rng.Intn(net.Ress))
			sever()
		case 3, 4:
			_ = net.RepairLink(rng.Intn(len(net.Links)))
			if len(net.Boxes) > 0 {
				_ = net.RepairBox(rng.Intn(len(net.Boxes)))
			}
			_ = net.RepairResource(rng.Intn(net.Ress))
		}
		// Random releases (EndTransmission/EndService/Cancel deltas).
		for i := len(circuits) - 1; i >= 0; i-- {
			if rng.Intn(3) == 0 {
				release(i)
			}
		}
		// Arrivals: idle processors request with probability 1/2; free,
		// healthy resources are available (as system.cycle builds them).
		var reqs []Request
		for p := 0; p < net.Procs; p++ {
			if !heldProc[p] && rng.Intn(2) == 0 {
				reqs = append(reqs, Request{Proc: p})
			}
		}
		var avail []Avail
		for r := 0; r < net.Ress; r++ {
			if !heldRes[r] && !net.ResourceFaulted(r) {
				avail = append(avail, Avail{Res: r})
			}
		}
		if len(reqs) == 0 || len(avail) == 0 {
			continue
		}

		oracle := BruteForceMax(net, reqs, avail)
		coldM, err := ScheduleMaxFlow(net, reqs, avail)
		if err != nil {
			t.Fatalf("step %d: cold: %v", step, err)
		}
		warmM, err := warmPlanner.ScheduleIncremental(net, reqs, avail)
		if err != nil {
			t.Fatalf("step %d: warm: %v", step, err)
		}
		if warmM.Solve.Warm {
			warmSolves++
		}
		if warmM.Allocated() != coldM.Allocated() || warmM.Allocated() != oracle {
			t.Fatalf("step %d: warm=%d cold=%d brute=%d (reqs=%d avail=%d)",
				step, warmM.Allocated(), coldM.Allocated(), oracle, len(reqs), len(avail))
		}
		if len(warmM.Assigned)+len(warmM.Blocked) != len(reqs) {
			t.Fatalf("step %d: mapping covers %d+%d of %d requests",
				step, len(warmM.Assigned), len(warmM.Blocked), len(reqs))
		}
		// The warm mapping's circuits must establish: this drives the
		// next step's state, so the trace evolves under warm grants.
		if err := warmM.Apply(net); err != nil {
			t.Fatalf("step %d: applying warm mapping: %v", step, err)
		}
		for _, a := range warmM.Assigned {
			circuits = append(circuits, standing{a.Circuit})
			heldRes[a.Res] = true
			heldProc[a.Req.Proc] = true
		}
	}
	return warmSolves
}

// TestIncrementalDifferentialTraces is the tentpole correctness proof:
// randomized arrival/release/fault traces across the Omega, Benes, Clos
// and random loop-free families, warm == cold == brute at every step.
func TestIncrementalDifferentialTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, net := range incTraceTopologies(rng) {
		net := net
		t.Run(net.Name, func(t *testing.T) {
			warm := 0
			for trial := 0; trial < 4; trial++ {
				warm += incTrace(t, net.Clone(), rand.New(rand.NewSource(int64(1000+trial))), 40)
			}
			if warm == 0 {
				t.Fatal("trace never exercised the warm path")
			}
		})
	}
}

// TestIncrementalSeverUnderFault is the dedicated regression for a
// circuit established in epoch N and severed by a link fault in epoch
// N+1: the reused arena must still yield the brute-force-optimal mapping
// on the surviving fabric — and again after repair.
func TestIncrementalSeverUnderFault(t *testing.T) {
	for _, build := range []func() *topology.Network{
		func() *topology.Network { return topology.Omega(8) },
		func() *topology.Network { return topology.Benes(8) },
	} {
		net := build()
		var p Planner

		// Epoch N: three requests land and their circuits establish.
		reqs := []Request{{Proc: 0}, {Proc: 3}, {Proc: 5}}
		freeAvail := func(heldRes map[int]bool) []Avail {
			var a []Avail
			for r := 0; r < net.Ress; r++ {
				if !heldRes[r] && !net.ResourceFaulted(r) {
					a = append(a, Avail{Res: r})
				}
			}
			return a
		}
		heldRes := map[int]bool{}
		m, err := p.ScheduleIncremental(net, reqs, freeAvail(heldRes))
		if err != nil {
			t.Fatalf("%s: epoch N: %v", net.Name, err)
		}
		if m.Allocated() != len(reqs) {
			t.Fatalf("%s: epoch N allocated %d of %d", net.Name, m.Allocated(), len(reqs))
		}
		if err := m.Apply(net); err != nil {
			t.Fatalf("%s: apply: %v", net.Name, err)
		}
		var victim Assignment
		for _, a := range m.Assigned {
			heldRes[a.Res] = true
			if a.Req.Proc == 0 {
				victim = a
			}
		}

		// Epoch N+1: a link on processor 0's circuit fails; the system
		// force-releases the severed circuit and the unit is re-queued.
		if err := net.FailLink(victim.Circuit.Links[len(victim.Circuit.Links)/2]); err != nil {
			t.Fatalf("%s: fail link: %v", net.Name, err)
		}
		net.ForceRelease(victim.Circuit)
		delete(heldRes, victim.Res)

		reqs2 := []Request{{Proc: 0}}
		avail2 := freeAvail(heldRes)
		oracle := BruteForceMax(net, reqs2, avail2)
		m2, err := p.ScheduleIncremental(net, reqs2, avail2)
		if err != nil {
			t.Fatalf("%s: epoch N+1: %v", net.Name, err)
		}
		if !m2.Solve.Warm {
			t.Fatalf("%s: epoch N+1 rebuilt the arena; a sever should reuse it", net.Name)
		}
		if m2.Allocated() != oracle {
			t.Fatalf("%s: epoch N+1 allocated %d, brute says %d", net.Name, m2.Allocated(), oracle)
		}
		if err := m2.Apply(net); err != nil {
			t.Fatalf("%s: apply N+1: %v", net.Name, err)
		}
		for _, a := range m2.Assigned {
			heldRes[a.Res] = true
		}

		// Epoch N+2: repair; a fresh request must see restored capacity.
		if err := net.RepairLink(victim.Circuit.Links[len(victim.Circuit.Links)/2]); err != nil {
			t.Fatalf("%s: repair: %v", net.Name, err)
		}
		reqs3 := []Request{{Proc: 1}, {Proc: 6}}
		avail3 := freeAvail(heldRes)
		oracle3 := BruteForceMax(net, reqs3, avail3)
		m3, err := p.ScheduleIncremental(net, reqs3, avail3)
		if err != nil {
			t.Fatalf("%s: epoch N+2: %v", net.Name, err)
		}
		if m3.Allocated() != oracle3 {
			t.Fatalf("%s: epoch N+2 allocated %d, brute says %d", net.Name, m3.Allocated(), oracle3)
		}
	}
}

// TestIncrementalFallsBackCold pins when the arena is built: the first
// solve on a fabric and a solve against a different fabric are cold;
// steady-state repeats are warm.
func TestIncrementalFallsBackCold(t *testing.T) {
	var p Planner
	netA := topology.Omega(8)
	reqs := []Request{{Proc: 0}, {Proc: 1}}
	avail := []Avail{{Res: 0}, {Res: 1}, {Res: 2}}

	m, err := p.ScheduleIncremental(netA, reqs, avail)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Solve.Cold || m.Solve.Warm {
		t.Fatalf("first solve should be cold, got %+v", m.Solve)
	}
	m, err = p.ScheduleIncremental(netA, reqs, avail)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Solve.Warm {
		t.Fatalf("steady-state solve should be warm, got %+v", m.Solve)
	}
	netB := topology.Benes(8)
	m, err = p.ScheduleIncremental(netB, reqs, avail)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Solve.Cold {
		t.Fatalf("topology change should rebuild cold, got %+v", m.Solve)
	}
}

// TestIncrementalWorkBelowCold sanity-checks the point of the exercise
// on a steady-state loop: the warm path must do strictly less solve
// work (arc scans + node visits) than the cold path summed over the
// same trace.
func TestIncrementalWorkBelowCold(t *testing.T) {
	net := topology.Omega(16)
	var warm Planner
	warmWork, coldWork := 0, 0
	var held []Assignment
	for step := 0; step < 200; step++ {
		// One-in, one-out steady state.
		var reqs []Request
		heldProc := map[int]bool{}
		heldRes := map[int]bool{}
		for _, a := range held {
			heldProc[a.Req.Proc] = true
			heldRes[a.Res] = true
		}
		for p := 0; p < net.Procs; p++ {
			if !heldProc[p] {
				reqs = append(reqs, Request{Proc: p})
				break
			}
		}
		var avail []Avail
		for r := 0; r < net.Ress; r++ {
			if !heldRes[r] {
				avail = append(avail, Avail{Res: r})
			}
		}
		if len(reqs) == 0 || len(avail) == 0 {
			continue
		}
		cm, err := ScheduleMaxFlow(net, reqs, avail)
		if err != nil {
			t.Fatal(err)
		}
		wm, err := warm.ScheduleIncremental(net, reqs, avail)
		if err != nil {
			t.Fatal(err)
		}
		if wm.Allocated() != cm.Allocated() {
			t.Fatalf("step %d: warm %d != cold %d", step, wm.Allocated(), cm.Allocated())
		}
		warmWork += wm.Ops.ArcScans + wm.Ops.NodeVisits
		coldWork += cm.Ops.ArcScans + cm.Ops.NodeVisits
		if err := wm.Apply(net); err != nil {
			t.Fatal(err)
		}
		held = append(held, wm.Assigned...)
		if len(held) > net.Ress/2 {
			// Release the oldest grant.
			if err := net.Release(held[0].Circuit); err != nil {
				t.Fatal(err)
			}
			held = held[1:]
		}
	}
	if warmWork >= coldWork {
		t.Fatalf("warm start did not reduce solve work: warm=%d cold=%d", warmWork, coldWork)
	}
}

// TestIncrementalPlannerDeterministic is the determinism contract of the
// max-flow planner: every solve starts from an empty flow on the reused
// arena, so a long-lived planner returns exactly the mapping a fresh one
// returns on the same instance. The long-lived planner is driven through
// seeded traces of held circuits, releases and link, box and resource
// churn, and also runs typed epochs (ScheduleHetero) on the same arena
// between its max-flow solves; the typed circuits are held too. Some
// solves must block a request and some must grant through the residual
// search rather than the routing fast path, or the trace proved nothing.
func TestIncrementalPlannerDeterministic(t *testing.T) {
	builders := []func() *topology.Network{
		func() *topology.Network { return topology.Omega(16) },
		func() *topology.Network { return topology.Benes(8) },
		func() *topology.Network { return topology.OmegaExtra(8, 1) },
		func() *topology.Network { return topology.Clos(3, 2, 4) },
	}
	blocking, searched, typed := 0, 0, 0
	for bi, build := range builders {
		net := build()
		rng := rand.New(rand.NewSource(2024 + int64(bi)))
		var long Planner
		held := map[int]topology.Circuit{} // by processor
		heldRes := map[int]bool{}
		hold := func(m *Mapping) {
			if err := m.Apply(net); err != nil {
				t.Fatalf("%s: apply: %v", net.Name, err)
			}
			for _, a := range m.Assigned {
				// Copy: the links view the planner's slot, and this test
				// keeps them past later solves.
				c := a.Circuit
				c.Links = append([]int(nil), c.Links...)
				held[a.Req.Proc], heldRes[a.Res] = c, true
			}
		}
		for step := 0; step < 300; step++ {
			switch rng.Intn(8) {
			case 0:
				_ = net.FailLink(rng.Intn(len(net.Links)))
			case 1:
				_ = net.FailBox(rng.Intn(len(net.Boxes)))
			case 2:
				_ = net.FailResource(rng.Intn(net.Ress))
			case 3, 4:
				_ = net.RepairLink(rng.Intn(len(net.Links)))
				_ = net.RepairBox(rng.Intn(len(net.Boxes)))
				_ = net.RepairResource(rng.Intn(net.Ress))
			}
			for p := 0; p < net.Procs; p++ {
				c, ok := held[p]
				if !ok {
					continue
				}
				severed := net.ResourceFaulted(c.Res)
				for _, l := range c.Links {
					severed = severed || !net.LinkUsable(l)
				}
				if !severed && rng.Intn(2) != 0 {
					continue
				}
				net.ForceRelease(c)
				delete(held, p)
				delete(heldRes, c.Res)
			}
			var reqs []Request
			for p := 0; p < net.Procs; p++ {
				if _, busy := held[p]; !busy && rng.Intn(2) == 0 {
					reqs = append(reqs, Request{Proc: p, Type: p % 2})
				}
			}
			var avail []Avail
			for r := 0; r < net.Ress; r++ {
				if !heldRes[r] && !net.ResourceFaulted(r) && rng.Intn(4) != 0 {
					avail = append(avail, Avail{Res: r, Type: r % 2})
				}
			}
			if len(reqs) == 0 {
				continue
			}
			if step%3 == 2 {
				// A typed epoch on the long-lived planner's arena.
				got, err := long.ScheduleHetero(net, reqs, avail, nil)
				if err != nil {
					t.Fatalf("%s step %d: typed: %v", net.Name, step, err)
				}
				var fresh Planner
				want, err := fresh.ScheduleHetero(net, reqs, avail, nil)
				if err != nil {
					t.Fatalf("%s step %d: fresh typed: %v", net.Name, step, err)
				}
				if !reflect.DeepEqual(got.Assigned, want.Assigned) || !reflect.DeepEqual(got.Blocked, want.Blocked) {
					t.Fatalf("%s step %d: long-lived typed planner diverged from a fresh one:\n%+v\n%+v", net.Name, step, got, want)
				}
				typed++
				hold(got)
				continue
			}
			got, err := long.ScheduleIncremental(net, reqs, avail)
			if err != nil {
				t.Fatalf("%s step %d: %v", net.Name, step, err)
			}
			var fresh Planner
			want, err := fresh.ScheduleIncremental(net, reqs, avail)
			if err != nil {
				t.Fatalf("%s step %d: fresh: %v", net.Name, step, err)
			}
			if !reflect.DeepEqual(got.Assigned, want.Assigned) || !reflect.DeepEqual(got.Blocked, want.Blocked) {
				t.Fatalf("%s step %d: long-lived planner diverged from a fresh one:\n%+v\n%+v", net.Name, step, got, want)
			}
			if len(got.Blocked) > 0 {
				blocking++
			}
			if got.Allocated() > got.Solve.FastPaths {
				searched++
			}
			hold(got)
		}
	}
	t.Logf("%d max-flow solves blocked a request, %d granted through the search; %d typed epochs", blocking, searched, typed)
	if blocking == 0 || searched == 0 || typed == 0 {
		t.Fatal("the traces never blocked a request, never reached the search, or ran no typed epoch")
	}
}
