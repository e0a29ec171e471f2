package core

import (
	"math/rand"
	"testing"

	"rsin/internal/topology"
)

// disableRouting strips the planner's fast-path routing table so every
// grant goes through the flow search; re-applied after each solve because
// an arena built for another network would restore the table.
func disableRouting(p *Planner) {
	if p.ty != nil {
		p.ty.rt = nil
	}
}

// TestRoutingFastPathMatchesFlowSearch is the direct differential for
// the combinatorial fast path: at every step of a random occupancy/fault
// trace, the SAME instance is solved by a warm planner resolving grants
// through the routing table and by a warm planner forced onto the flow
// search, and both must grant a set of brute-force-optimal cardinality.
// The fast planner's mapping drives the world; the search-only planner
// re-solves without applying, so its arena periodically diverges from
// ground truth and exercises the fallback-to-cold path as well.
func TestRoutingFastPathMatchesFlowSearch(t *testing.T) {
	for _, build := range []func() *topology.Network{
		func() *topology.Network { return topology.Omega(8) },
		func() *topology.Network { return topology.Benes(8) },
		func() *topology.Network { return topology.OmegaExtra(8, 1) },
	} {
		net := build()
		t.Run(net.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			var fast, slow Planner
			fastPaths := 0

			var circuits []topology.Circuit
			heldProc := map[int]bool{}
			heldRes := map[int]bool{}

			for i := 0; i < 60; i++ {
				churn, rel, reqMask := rng.Uint64(), rng.Uint64(), rng.Uint64()
				switch churn % 6 {
				case 0:
					_ = net.FailLink(int(churn>>3) % len(net.Links))
				case 1, 2:
					_ = net.RepairLink(int(churn>>3) % len(net.Links))
				}
				for j := len(circuits) - 1; j >= 0; j-- {
					c := circuits[j]
					severed := false
					for _, lid := range c.Links {
						if !net.LinkUsable(lid) {
							severed = true
							break
						}
					}
					if severed {
						net.ForceRelease(c)
					} else if rel>>(uint(j)&63)&1 == 1 {
						if err := net.Release(c); err != nil {
							t.Fatalf("release: %v", err)
						}
					} else {
						continue
					}
					delete(heldProc, c.Proc)
					delete(heldRes, c.Res)
					circuits = append(circuits[:j], circuits[j+1:]...)
				}
				var reqs []Request
				for pr := 0; pr < net.Procs; pr++ {
					if !heldProc[pr] && reqMask>>uint(pr)&1 == 1 {
						reqs = append(reqs, Request{Proc: pr})
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
				sm, err := slow.ScheduleIncremental(net, reqs, avail)
				if err != nil {
					t.Fatalf("step %d: search-only: %v", i, err)
				}
				disableRouting(&slow)
				// A cold rebuild recreates the routing table mid-call, so
				// only warm solves are guaranteed search-only.
				if sm.Solve.Warm && sm.Solve.FastPaths != 0 {
					t.Fatalf("step %d: search-only planner used the fast path", i)
				}
				fm, err := fast.ScheduleIncremental(net, reqs, avail)
				if err != nil {
					t.Fatalf("step %d: fast: %v", i, err)
				}
				if fm.Allocated() != oracle || sm.Allocated() != oracle {
					t.Fatalf("step %d: fast=%d search-only=%d brute=%d (reqs=%d avail=%d)",
						i, fm.Allocated(), sm.Allocated(), oracle, len(reqs), len(avail))
				}
				fastPaths += fm.Solve.FastPaths
				if err := fm.Apply(net); err != nil {
					t.Fatalf("step %d: apply: %v", i, err)
				}
				for _, a := range fm.Assigned {
					circuits = append(circuits, a.Circuit)
					heldProc[a.Req.Proc] = true
					heldRes[a.Res] = true
				}
			}
			if fastPaths == 0 {
				t.Fatal("trace never exercised the routing fast path")
			}
		})
	}
}

// FuzzRoutingFallbackBoundary fuzzes the boundary between the
// combinatorial fast path and the flow-search fallback: arbitrary fault
// and occupancy masks, including ones that kill every table path of a
// pair (forcing fastMiss -> Augment) or free no sink arc (fastBlocked).
// Every epoch's warm allocation must match the cold solver and the
// brute-force oracle on the identical instance.
func FuzzRoutingFallbackBoundary(f *testing.F) {
	f.Add(int64(1), uint64(0), uint64(0), byte(0))
	f.Add(int64(2), uint64(0xFFFF), uint64(0xAA), byte(1))
	f.Add(int64(3), uint64(0x10421), uint64(0x3F), byte(2))
	f.Add(int64(4), ^uint64(0), ^uint64(0), byte(0))
	f.Fuzz(func(t *testing.T, seed int64, faults, occ uint64, topo byte) {
		var net *topology.Network
		switch topo % 3 {
		case 0:
			net = topology.Omega(8)
		case 1:
			net = topology.Benes(8)
		default:
			net = topology.OmegaExtra(8, 1)
		}
		for b := 0; b < 64; b++ {
			if faults>>uint(b)&1 == 1 {
				_ = net.FailLink((b * 7) % len(net.Links))
			}
		}
		rng := rand.New(rand.NewSource(seed))
		var warm Planner
		held := map[int]topology.Circuit{}
		heldRes := map[int]bool{}
		reqMask := occ
		for epoch := 0; epoch < 3; epoch++ {
			var reqs []Request
			for p := 0; p < net.Procs; p++ {
				if _, ok := held[p]; !ok && reqMask>>uint(p)&1 == 1 {
					reqs = append(reqs, Request{Proc: p})
				}
			}
			var avail []Avail
			for r := 0; r < net.Ress; r++ {
				if !heldRes[r] && !net.ResourceFaulted(r) {
					avail = append(avail, Avail{Res: r})
				}
			}
			if len(reqs) > 0 && len(avail) > 0 {
				oracle := BruteForceMax(net, reqs, avail)
				cm, err := ScheduleMaxFlow(net, reqs, avail)
				if err != nil {
					t.Fatalf("epoch %d: cold: %v", epoch, err)
				}
				wm, err := warm.ScheduleIncremental(net, reqs, avail)
				if err != nil {
					t.Fatalf("epoch %d: warm: %v", epoch, err)
				}
				if wm.Allocated() != oracle || cm.Allocated() != oracle {
					t.Fatalf("epoch %d: warm=%d cold=%d brute=%d",
						epoch, wm.Allocated(), cm.Allocated(), oracle)
				}
				if err := wm.Apply(net); err != nil {
					t.Fatalf("epoch %d: apply: %v", epoch, err)
				}
				for _, a := range wm.Assigned {
					held[a.Req.Proc] = a.Circuit
					heldRes[a.Res] = true
				}
			}
			// Mutate toward the next epoch: flip a link, release one
			// circuit, re-request the rest of the mask.
			lid := rng.Intn(len(net.Links))
			if net.LinkUsable(lid) {
				_ = net.FailLink(lid)
			} else {
				_ = net.RepairLink(lid)
			}
			for p, c := range held {
				severed := false
				for _, l := range c.Links {
					if !net.LinkUsable(l) {
						severed = true
						break
					}
				}
				if severed {
					net.ForceRelease(c)
				} else if rng.Intn(3) == 0 {
					if err := net.Release(c); err != nil {
						t.Fatalf("release: %v", err)
					}
				} else {
					continue
				}
				delete(held, p)
				delete(heldRes, c.Res)
			}
			reqMask = reqMask>>8 | reqMask<<56 // expose fresh occupancy bits
		}
	})
}

// TestPlannerSharesRoutingTable: a planner holds one whole-fabric arena
// per network and one solver on it, whichever kind of solve comes first —
// typed or one-commodity — and every later solve of either kind runs on
// that same solver, with the one routing table it built. Another network
// replaces the arena and the solver together.
func TestPlannerSharesRoutingTable(t *testing.T) {
	net := topology.Omega(8)
	// The chained-cuts instance of workload.AdversarialTyped: it misses the
	// bound, so the typed solve searches.
	reqs := []Request{{Proc: 0, Type: 0}, {Proc: 4, Type: 1}, {Proc: 5, Type: 1}, {Proc: 6, Type: 2}}
	avail := []Avail{{Res: 2, Type: 1}, {Res: 3, Type: 2}, {Res: 4, Type: 1}, {Res: 7, Type: 0}}
	untyped := []Request{{Proc: 1}}
	free := []Avail{{Res: 0}}

	for _, typedFirst := range []bool{true, false} {
		var p Planner
		typed := func() {
			m, err := p.ScheduleHetero(net, reqs, avail, nil)
			if err != nil || !m.Solve.MultiSearch {
				t.Fatalf("the instance must be settled by the search: %+v, %v", m, err)
			}
		}
		oneCommodity := func() {
			if _, err := p.ScheduleIncremental(net, untyped, free); err != nil {
				t.Fatal(err)
			}
		}
		first, second := typed, oneCommodity
		if !typedFirst {
			first, second = oneCommodity, typed
		}
		first()
		fab, solver := p.fab, p.ty
		if fab == nil || solver == nil || solver.fabricArena != fab || solver.rt == nil {
			t.Fatalf("typed first %v: the first solve must build the arena, one solver on it and its routing table", typedFirst)
		}
		rt := solver.rt
		second()
		if p.fab != fab || p.ty != solver || p.ty.rt != rt || solver.s.rt != rt {
			t.Fatalf("typed first %v: the second kind of solve built its own arena, solver or routing table", typedFirst)
		}

		other := topology.Omega(8)
		m, err := p.ScheduleIncremental(other, untyped, free)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Solve.Cold || p.fab == fab || p.fab.net != other || p.ty == solver || p.ty.fabricArena != p.fab {
			t.Fatalf("typed first %v: another network must replace the arena and its solver: %+v", typedFirst, m.Solve)
		}
	}
}
