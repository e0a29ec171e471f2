package core

import (
	"math/rand"
	"testing"

	"rsin/internal/topology"
)

// occupyFaulted rebuilds the surviving network explicitly: a fresh copy
// of net (same constructor output) on which every faulted link — and
// every link touching a faulted switchbox — is marked occupied instead.
// Masking by fault and masking by occupancy must induce the same flow
// problem, so the two schedules must allocate identically.
func occupyFaulted(fresh, faulted *topology.Network) *topology.Network {
	for _, l := range faulted.Links {
		if faulted.LinkFaulted(l.ID) {
			fresh.OccupyLink(l.ID)
		}
	}
	for b := range faulted.Boxes {
		if !faulted.BoxFaulted(b) {
			continue
		}
		for _, lid := range fresh.Boxes[b].In {
			if lid != -1 {
				fresh.OccupyLink(lid)
			}
		}
		for _, lid := range fresh.Boxes[b].Out {
			if lid != -1 {
				fresh.OccupyLink(lid)
			}
		}
	}
	return fresh
}

// TestDifferentialFaultMasking is the acceptance check for hardware
// fault masking: after failing K random links (and sometimes a
// switchbox), ScheduleMaxFlow on the faulted network must equal (a)
// ScheduleMaxFlow on an explicitly rebuilt surviving network whose dead
// components are marked occupied, and (b) the brute-force optimum on the
// surviving subgraph — Theorem 1 restated on whatever fabric remains.
// Every granted circuit must also avoid the dead components.
func TestDifferentialFaultMasking(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	builders := []struct {
		name  string
		build func() *topology.Network
	}{
		{"omega", func() *topology.Network { return topology.Omega(8) }},
		{"benes", func() *topology.Network { return topology.Benes(8) }},
		{"clos", func() *topology.Network { return topology.Clos(2, 2, 3) }},
		{"random", nil}, // rebuilt per trial from a forked seed
	}
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				build := b.build
				if build == nil {
					seed := rng.Int63()
					build = func() *topology.Network {
						return topology.RandomLoopFree(rand.New(rand.NewSource(seed)), 4, 4, 1+trial%2, 3)
					}
				}
				net := build()
				k := 1 + rng.Intn(4)
				for i := 0; i < k; i++ {
					if err := net.FailLink(rng.Intn(len(net.Links))); err != nil {
						t.Fatal(err)
					}
				}
				if rng.Float64() < 0.3 {
					if err := net.FailBox(rng.Intn(len(net.Boxes))); err != nil {
						t.Fatal(err)
					}
				}
				var reqs []Request
				for p := 0; p < net.Procs; p++ {
					reqs = append(reqs, Request{Proc: p})
				}
				var avail []Avail
				for r := 0; r < net.Ress; r++ {
					avail = append(avail, Avail{Res: r})
				}

				m, err := ScheduleMaxFlow(net, reqs, avail)
				if err != nil {
					t.Fatalf("trial %d: faulted schedule: %v", trial, err)
				}
				for _, a := range m.Assigned {
					for _, lid := range a.Circuit.Links {
						if !net.LinkUsable(lid) {
							t.Fatalf("trial %d: circuit for proc %d crosses dead link %d",
								trial, a.Req.Proc, lid)
						}
					}
				}

				rebuilt := occupyFaulted(build(), net)
				m2, err := ScheduleMaxFlow(rebuilt, reqs, avail)
				if err != nil {
					t.Fatalf("trial %d: rebuilt schedule: %v", trial, err)
				}
				if m.Allocated() != m2.Allocated() {
					t.Fatalf("trial %d (%s): faulted net allocated %d, rebuilt surviving net %d",
						trial, net.Name, m.Allocated(), m2.Allocated())
				}
				if want := BruteForceMax(net, reqs, avail); m.Allocated() != want {
					t.Fatalf("trial %d (%s): allocated %d, surviving-subgraph brute force %d",
						trial, net.Name, m.Allocated(), want)
				}
			}
		})
	}
}

// TestFaultMaskingRepairRestoresOptimum: failing then repairing the same
// components must restore the fault-free allocation exactly.
func TestFaultMaskingRepairRestoresOptimum(t *testing.T) {
	net := topology.Omega(8)
	var reqs []Request
	var avail []Avail
	for p := 0; p < net.Procs; p++ {
		reqs = append(reqs, Request{Proc: p})
	}
	for r := 0; r < net.Ress; r++ {
		avail = append(avail, Avail{Res: r})
	}
	healthy, err := ScheduleMaxFlow(net, reqs, avail)
	if err != nil {
		t.Fatal(err)
	}
	for _, lid := range []int{0, 7, 15} {
		if err := net.FailLink(lid); err != nil {
			t.Fatal(err)
		}
	}
	degraded, err := ScheduleMaxFlow(net, reqs, avail)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Allocated() >= healthy.Allocated() {
		t.Fatalf("failing proc links did not degrade: healthy %d, degraded %d",
			healthy.Allocated(), degraded.Allocated())
	}
	for _, lid := range []int{0, 7, 15} {
		if err := net.RepairLink(lid); err != nil {
			t.Fatal(err)
		}
	}
	healed, err := ScheduleMaxFlow(net, reqs, avail)
	if err != nil {
		t.Fatal(err)
	}
	if healed.Allocated() != healthy.Allocated() {
		t.Fatalf("repair did not restore the optimum: healthy %d, healed %d",
			healthy.Allocated(), healed.Allocated())
	}
}
