package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rsin/internal/topology"
)

// TestPathSlotsHoldStandingCircuits drives each warm planner — max-flow,
// min-cost and typed — through a seeded trace of arrivals, releases and
// hardware faults, applying every mapping, and checks the path-slot
// contract after every solve: the links of every circuit still established
// read exactly as they did when it was granted, although the planner
// decoded later grants into the same slab. It also checks that a slot holds
// a whole path: no decode outgrew its slot and moved to a slice of its own.
func TestPathSlotsHoldStandingCircuits(t *testing.T) {
	solvers := []struct {
		name  string
		typed bool
		solve func(p *Planner, net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error)
	}{
		{"maxflow", false, (*Planner).ScheduleIncremental},
		{"mincost", false, (*Planner).ScheduleMinCostIncremental},
		{"typed", true, func(p *Planner, net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
			return p.ScheduleHetero(net, reqs, avail, nil)
		}},
	}
	rng := rand.New(rand.NewSource(1986))
	for _, sv := range solvers {
		for _, net := range incTraceTopologies(rng) {
			t.Run(fmt.Sprintf("%s/%s", sv.name, net.Name), func(t *testing.T) {
				granted := pathSlotTrace(t, net.Clone(), rand.New(rand.NewSource(int64(len(net.Links)))), sv.typed, sv.solve)
				if granted < 50 {
					t.Fatalf("did not exercise: %d grants", granted)
				}
			})
		}
	}
}

// TestPathSlotsRewriteUnappliedMapping shows the other half of the
// contract: a mapping that is never applied does not hold its processor's
// link, so the planner's next grant to that processor rewrites the slot its
// Links view. A caller that keeps such a mapping must copy the links first.
func TestPathSlotsRewriteUnappliedMapping(t *testing.T) {
	solvers := []struct {
		name  string
		solve func(p *Planner, net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error)
	}{
		{"maxflow", (*Planner).ScheduleIncremental},
		{"mincost", (*Planner).ScheduleMinCostIncremental},
		{"typed", func(p *Planner, net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
			return p.ScheduleHetero(net, reqs, avail, nil)
		}},
	}
	for _, sv := range solvers {
		t.Run(sv.name, func(t *testing.T) {
			var p Planner
			net := topology.Omega(8)
			reqs := []Request{{Proc: 0}}
			first, err := sv.solve(&p, net, reqs, []Avail{{Res: 0}})
			if err != nil || first.Allocated() != 1 {
				t.Fatalf("first solve: %v, %d granted", err, first.Allocated())
			}
			// first is the planner's mapping, which the next solve refills:
			// keep the first grant's links view itself, not the mapping.
			stale := first.Assigned[0].Circuit.Links
			kept := slices.Clone(stale)
			second, err := sv.solve(&p, net, reqs, []Avail{{Res: 7}})
			if err != nil || second.Allocated() != 1 {
				t.Fatalf("second solve: %v, %d granted", err, second.Allocated())
			}
			if sv.name == "typed" && !second.Solve.MultiFastPath {
				t.Fatal("did not exercise: the typed epoch was not bound-certified")
			}
			now := second.Assigned[0].Circuit.Links
			if slices.Equal(kept, now) {
				t.Fatalf("did not exercise: both grants took path %v", now)
			}
			if !slices.Equal(stale, now) {
				t.Fatalf("the unapplied mapping reads %v after the next grant %v: its links no longer view p0's slot", stale, now)
			}
		})
	}
}

// pathSlotTrace runs one planner over 300 steps and returns its grants.
func pathSlotTrace(t *testing.T, net *topology.Network, rng *rand.Rand, typed bool,
	solve func(*Planner, *topology.Network, []Request, []Avail) (*Mapping, error)) int {
	t.Helper()
	var p Planner
	width := net.NumStages() + 1
	type standing struct {
		c    topology.Circuit // the mapping's own view
		want []int            // its links, copied at grant time
	}
	var up []standing
	busyProc, busyRes := make([]bool, net.Procs), make([]bool, net.Ress)
	drop := func(i int) {
		busyProc[up[i].c.Proc], busyRes[up[i].c.Res] = false, false
		up = slices.Delete(up, i, i+1)
	}
	resType := func(r int) int {
		if typed {
			return r % 2
		}
		return 0
	}
	granted := 0
	for step := 0; step < 300; step++ {
		switch rng.Intn(8) {
		case 0:
			_ = net.FailLink(rng.Intn(len(net.Links)))
		case 1:
			_ = net.FailResource(rng.Intn(net.Ress))
		case 2, 3:
			_ = net.RepairLink(rng.Intn(len(net.Links)))
			_ = net.RepairResource(rng.Intn(net.Ress))
		}
		for i := len(up) - 1; i >= 0; i-- {
			c := up[i].c
			severed := net.ResourceFaulted(c.Res)
			for _, lid := range c.Links {
				severed = severed || !net.LinkUsable(lid)
			}
			switch {
			case severed:
				net.ForceRelease(c)
				drop(i)
			case rng.Intn(3) == 0:
				if err := net.Release(c); err != nil {
					t.Fatalf("step %d: releasing p%d's circuit: %v", step, c.Proc, err)
				}
				drop(i)
			}
		}
		var reqs []Request
		for pr := 0; pr < net.Procs; pr++ {
			if !busyProc[pr] && rng.Intn(2) == 0 {
				rq := Request{Proc: pr, Priority: rng.Int63n(8)}
				if typed {
					rq.Type = rng.Intn(2)
				}
				reqs = append(reqs, rq)
			}
		}
		var avail []Avail
		for r := 0; r < net.Ress; r++ {
			if !busyRes[r] && !net.ResourceFaulted(r) {
				avail = append(avail, Avail{Res: r, Preference: rng.Int63n(4), Type: resType(r)})
			}
		}
		if len(reqs) == 0 || len(avail) == 0 {
			continue
		}
		m, err := solve(&p, net, reqs, avail)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, s := range up {
			if !slices.Equal(s.c.Links, s.want) {
				t.Fatalf("step %d: p%d's standing circuit reads %v, granted as %v", step, s.c.Proc, s.c.Links, s.want)
			}
		}
		if err := m.Apply(net); err != nil {
			t.Fatalf("step %d: apply: %v", step, err)
		}
		for _, a := range m.Assigned {
			if len(a.Circuit.Links) > width || cap(a.Circuit.Links) > width+2 {
				t.Fatalf("step %d: p%d's path (%d links, capacity %d) is not in a slot of width %d",
					step, a.Req.Proc, len(a.Circuit.Links), cap(a.Circuit.Links), width)
			}
			up = append(up, standing{a.Circuit, slices.Clone(a.Circuit.Links)})
			busyProc[a.Req.Proc], busyRes[a.Res] = true, true
			granted++
		}
	}
	return granted
}
