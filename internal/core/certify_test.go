package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rsin/internal/topology"
)

// certifyTally counts how a trace's MinCost epochs were settled.
type certifyTally struct {
	epochs    int
	certified int // settled on the max-flow arena
	varied    int // certified with preferences that were not all equal
	missed    int // the offer covered the requests, the trial did not
	small     int // the offer had fewer entries than the requests
}

// TestMinCostIncrementalCertified holds the certified path of
// ScheduleMinCostIncremental to the cold engine and the brute-force
// oracle. Seven fabrics run a seeded trace of arrivals, releases and link,
// box and resource faults under three preference shapes: flat, random,
// and random with at least as many top-preference resources as requests.
// Every epoch, certified or not, must match a cold ScheduleMinCost of the
// same instance in Cost and WeightedValue, and BruteForceBestValue on
// these fabrics of at most 8 ports. A certified epoch must grant every
// request and touch no simplex arc. The test fails as "did not exercise"
// unless the run certifies epochs with preferences that are not all equal,
// sends trial misses on to the simplex, and meets offers too small to try.
func TestMinCostIncrementalCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(3501))
	fabrics := []*topology.Network{
		topology.Omega(4),
		topology.Omega(8),
		topology.Benes(4),
		topology.Benes(8),
		topology.Clos(2, 2, 2),
		topology.OmegaExtra(8, 1),
		topology.RandomLoopFree(rng, 6, 6, 3, 4),
	}
	steps := 120
	if testing.Short() {
		steps = 40
	}
	var tot certifyTally
	for _, shape := range []string{"flat", "random", "random-top"} {
		for i, net := range fabrics {
			t.Run(fmt.Sprintf("%s/%s", shape, net.Name), func(t *testing.T) {
				x := certifyTrace(t, net.Clone(), rand.New(rand.NewSource(int64(100*i+len(shape)))), shape, steps)
				tot.epochs += x.epochs
				tot.certified += x.certified
				tot.varied += x.varied
				tot.missed += x.missed
				tot.small += x.small
			})
		}
	}
	if tot.varied == 0 || tot.missed == 0 || tot.small == 0 {
		t.Fatalf("did not exercise: %d epochs, %d certified (%d with varied preferences), %d trial misses, %d offers too small",
			tot.epochs, tot.certified, tot.varied, tot.missed, tot.small)
	}
	t.Logf("%d epochs: %d certified (%d with varied preferences), %d trial misses, %d offers too small",
		tot.epochs, tot.certified, tot.varied, tot.missed, tot.small)
}

// certifyTrace runs one planner over a trace on net and checks every
// epoch against the cold engine and the oracle.
func certifyTrace(t *testing.T, net *topology.Network, rng *rand.Rand, shape string, steps int) (x certifyTally) {
	t.Helper()
	var pl Planner
	var up []topology.Circuit
	busyProc, busyRes := make([]bool, net.Procs), make([]bool, net.Ress)
	drop := func(i int) {
		busyProc[up[i].Proc], busyRes[up[i].Res] = false, false
		up = append(up[:i], up[i+1:]...)
	}
	for step := 0; step < steps; step++ {
		switch rng.Intn(8) {
		case 0:
			_ = net.FailLink(rng.Intn(len(net.Links)))
		case 1:
			if len(net.Boxes) > 0 {
				_ = net.FailBox(rng.Intn(len(net.Boxes)))
			}
		case 2:
			_ = net.FailResource(rng.Intn(net.Ress))
		case 3, 4:
			_ = net.RepairLink(rng.Intn(len(net.Links)))
			if len(net.Boxes) > 0 {
				_ = net.RepairBox(rng.Intn(len(net.Boxes)))
			}
			_ = net.RepairResource(rng.Intn(net.Ress))
		}
		for i := len(up) - 1; i >= 0; i-- {
			c := up[i]
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
					t.Fatalf("step %d: release: %v", step, err)
				}
				drop(i)
			}
		}
		var reqs []Request
		for p := 0; p < net.Procs; p++ {
			if !busyProc[p] && rng.Intn(2) == 0 {
				reqs = append(reqs, Request{Proc: p, Priority: rng.Int63n(8)})
			}
		}
		var avail []Avail
		for r := 0; r < net.Ress; r++ {
			if !busyRes[r] && !net.ResourceFaulted(r) {
				avail = append(avail, Avail{Res: r, Preference: 5})
			}
		}
		if len(reqs) == 0 || len(avail) == 0 {
			continue
		}
		if shape != "flat" {
			for i := range avail {
				avail[i].Preference = rng.Int63n(12)
			}
		}
		if shape == "random-top" {
			// Raise a random set of at least len(reqs) resources (all of
			// them when there are fewer) to one top preference.
			for _, i := range rng.Perm(len(avail))[:min(len(avail), len(reqs)+rng.Intn(2))] {
				avail[i].Preference = 12
			}
		}
		_, qMax := maxPriorityPreference(reqs, avail)
		top, varied := 0, false
		for _, a := range avail {
			if a.Preference == qMax {
				top++
			}
			varied = varied || a.Preference != avail[0].Preference
		}

		where := fmt.Sprintf("%s step %d (%d reqs, %d avail, %d on top)", shape, step, len(reqs), len(avail), top)
		cold, err := ScheduleMinCost(net, reqs, avail)
		if err != nil {
			t.Fatalf("%s: cold: %v", where, err)
		}
		m, err := pl.ScheduleMinCostIncremental(net, reqs, avail)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if m.Cost != cold.Cost {
			t.Fatalf("%s: cost %d (certified %v), cold %d", where, m.Cost, m.Solve.Certified, cold.Cost)
		}
		got, want := WeightedValue(reqs, avail, m), WeightedValue(reqs, avail, cold)
		if got != want {
			t.Fatalf("%s: weighted value %d (certified %v), cold %d", where, got, m.Solve.Certified, want)
		}
		if best := BruteForceBestValue(net, reqs, avail); got != best {
			t.Fatalf("%s: weighted value %d (certified %v), brute force %d", where, got, m.Solve.Certified, best)
		}
		x.epochs++
		switch {
		case m.Solve.Certified:
			if len(m.Blocked) != 0 || m.Solve.ArcsTouched != 0 {
				t.Fatalf("%s: certified with %d blocked and %d arcs touched", where, len(m.Blocked), m.Solve.ArcsTouched)
			}
			x.certified++
			if varied {
				x.varied++
			}
		case top >= len(reqs):
			x.missed++
		default:
			x.small++
		}
		if err := m.Apply(net); err != nil {
			t.Fatalf("%s: apply: %v", where, err)
		}
		for _, a := range m.Assigned {
			up = append(up, a.Circuit)
			busyProc[a.Req.Proc], busyRes[a.Res] = true, true
		}
	}
	return x
}
