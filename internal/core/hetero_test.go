package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rsin/internal/graph"
	"rsin/internal/multiflow"
	"rsin/internal/topology"
)

func TestHeteroCrossbarTwoTypes(t *testing.T) {
	// 4 processors, 4 resources: types 0 and 1 interleaved. Each request
	// must land on a matching type.
	net := topology.Crossbar(4, 4)
	reqs := []Request{
		{Proc: 0, Type: 0},
		{Proc: 1, Type: 1},
		{Proc: 2, Type: 0},
		{Proc: 3, Type: 1},
	}
	avail := []Avail{
		{Res: 0, Type: 0},
		{Res: 1, Type: 1},
		{Res: 2, Type: 0},
		{Res: 3, Type: 1},
	}
	m, err := ScheduleHetero(net, reqs, avail, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Allocated() != 4 {
		t.Fatalf("allocated %d of 4", m.Allocated())
	}
	typeOf := map[int]int{0: 0, 1: 1, 2: 0, 3: 1}
	for _, a := range m.Assigned {
		if typeOf[a.Res] != a.Req.Type {
			t.Fatalf("request type %d mapped to resource %d of type %d", a.Req.Type, a.Res, typeOf[a.Res])
		}
	}
	checkMapping(t, net, m)
}

func TestHeteroTypeMismatchBlocks(t *testing.T) {
	net := topology.Crossbar(2, 2)
	reqs := []Request{{Proc: 0, Type: 7}}
	avail := []Avail{{Res: 0, Type: 1}, {Res: 1, Type: 2}}
	m, err := ScheduleHetero(net, reqs, avail, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Allocated() != 0 || len(m.Blocked) != 1 {
		t.Fatalf("type-7 request should block: %+v", m)
	}
}

func TestHeteroEmptyRequests(t *testing.T) {
	net := topology.Crossbar(2, 2)
	m, err := ScheduleHetero(net, nil, availFor(0, 1), nil)
	if err != nil || m.Allocated() != 0 {
		t.Fatalf("%+v err=%v", m, err)
	}
}

// TestHeteroMatchesBruteForce: on random typed scenarios the multicommodity
// scheduler (with Exact fallback) must match the typed brute-force optimum.
func TestHeteroMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		var net *topology.Network
		if trial%2 == 0 {
			net = topology.Omega(8)
		} else {
			net = topology.Crossbar(4, 6)
		}
		var reqs []Request
		for p := 0; p < net.Procs; p++ {
			if rng.Float64() < 0.5 {
				reqs = append(reqs, Request{Proc: p, Type: rng.Intn(2)})
			}
		}
		var avail []Avail
		for r := 0; r < net.Ress; r++ {
			if rng.Float64() < 0.5 {
				avail = append(avail, Avail{Res: r, Type: rng.Intn(2)})
			}
		}
		m, err := ScheduleHetero(net, reqs, avail, &HeteroOptions{Exact: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := BruteForceMax(net, reqs, avail)
		if m.Allocated() != want {
			t.Fatalf("trial %d (%s): allocated %d, optimum %d", trial, net.Name, m.Allocated(), want)
		}
		for _, a := range m.Assigned {
			// Type correctness.
			found := false
			for _, av := range avail {
				if av.Res == a.Res && av.Type == a.Req.Type {
					found = true
				}
			}
			if !found {
				t.Fatalf("trial %d: type violation in %+v", trial, a)
			}
		}
		checkMapping(t, net, m)
	}
}

// TestHeteroSingleTypeEqualsHomogeneous: with one resource type the
// multicommodity machinery must reduce to the plain max-flow answer.
func TestHeteroSingleTypeEqualsHomogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		net := topology.Baseline(8)
		var reqs []Request
		var avail []Avail
		for p := 0; p < 8; p++ {
			if rng.Float64() < 0.6 {
				reqs = append(reqs, Request{Proc: p})
			}
		}
		for r := 0; r < 8; r++ {
			if rng.Float64() < 0.6 {
				avail = append(avail, Avail{Res: r})
			}
		}
		hm, err := ScheduleHetero(net, reqs, avail, nil)
		if err != nil {
			t.Fatal(err)
		}
		mm, err := ScheduleMaxFlow(net, reqs, avail)
		if err != nil {
			t.Fatal(err)
		}
		if hm.Allocated() != mm.Allocated() {
			t.Fatalf("trial %d: hetero %d vs homogeneous %d", trial, hm.Allocated(), mm.Allocated())
		}
	}
}

func TestHeteroWithPriorities(t *testing.T) {
	// Two type-0 requests contend for one type-0 resource; priority wins.
	// A type-1 request rides along.
	net := topology.Crossbar(3, 2)
	reqs := []Request{
		{Proc: 0, Type: 0, Priority: 1},
		{Proc: 1, Type: 0, Priority: 8},
		{Proc: 2, Type: 1, Priority: 3},
	}
	avail := []Avail{
		{Res: 0, Type: 0, Preference: 4},
		{Res: 1, Type: 1, Preference: 2},
	}
	m, err := ScheduleHetero(net, reqs, avail, &HeteroOptions{UsePriorities: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Allocated() != 2 {
		t.Fatalf("allocated %d of 2", m.Allocated())
	}
	got := map[int]int{}
	for _, a := range m.Assigned {
		got[a.Req.Proc] = a.Res
	}
	if got[1] != 0 {
		t.Fatalf("high-priority type-0 request lost: %+v", m.Assigned)
	}
	if got[2] != 1 {
		t.Fatalf("type-1 request misplaced: %+v", m.Assigned)
	}
	if len(m.Blocked) != 1 || m.Blocked[0].Proc != 0 {
		t.Fatalf("blocked accounting: %+v", m.Blocked)
	}
}

func TestHeteroPreferencesSelectResource(t *testing.T) {
	// One request, two same-type resources with different preferences.
	net := topology.Crossbar(1, 2)
	reqs := []Request{{Proc: 0, Type: 3, Priority: 1}}
	avail := []Avail{
		{Res: 0, Type: 3, Preference: 1},
		{Res: 1, Type: 3, Preference: 9},
	}
	m, err := ScheduleHetero(net, reqs, avail, &HeteroOptions{UsePriorities: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Allocated() != 1 || m.Assigned[0].Res != 1 {
		t.Fatalf("preferred resource not chosen: %+v", m.Assigned)
	}
}

// TestHeteroSequentialPricedFallback exercises the integral fallback used
// when a multicommodity LP would come out fractional (never observed on
// MRSIN topologies — see E13 — but reachable on exotic fabrics): the
// per-type sequential min-cost pass must produce a valid typed mapping.
func TestHeteroSequentialPricedFallback(t *testing.T) {
	net := topology.Crossbar(4, 4)
	reqs := []Request{
		{Proc: 0, Type: 0, Priority: 5},
		{Proc: 1, Type: 1, Priority: 3},
		{Proc: 2, Type: 0, Priority: 8},
		{Proc: 3, Type: 1, Priority: 1},
	}
	avail := []Avail{
		{Res: 0, Type: 0, Preference: 2},
		{Res: 1, Type: 0, Preference: 9},
		{Res: 2, Type: 1, Preference: 4},
		{Res: 3, Type: 1, Preference: 4},
	}
	tr := build(net, reqs, avail, true, true, false)
	m, err := heteroSequentialPriced(net, tr, reqs, avail)
	if err != nil {
		t.Fatal(err)
	}
	if m.Allocated() != 4 {
		t.Fatalf("allocated %d of 4", m.Allocated())
	}
	typeOf := map[int]int{0: 0, 1: 0, 2: 1, 3: 1}
	for _, a := range m.Assigned {
		if typeOf[a.Res] != a.Req.Type {
			t.Fatalf("type violation: %+v", a)
		}
	}
	checkMapping(t, net, m)
	// Highest-priority type-0 request should take the most-preferred
	// type-0 resource.
	for _, a := range m.Assigned {
		if a.Req.Proc == 2 && a.Res != 1 {
			t.Fatalf("priority/preference pairing lost in fallback: %+v", a)
		}
	}
}

// TestHeteroFastPathCertified: on the restricted MRSIN topologies every
// epoch must be *certified* optimal — MultiFastPath set, zero gap — across
// random typed scenarios and fault churn: nearly always because the
// sequential per-type max-flow met the combinatorial bound (then
// MultiLPBound is that bound and equals the allocation count exactly),
// otherwise because the LP relaxation certified integral (then it is the
// LP objective, equal up to rounding).
func TestHeteroFastPathCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	builders := []func() *topology.Network{
		func() *topology.Network { return topology.Omega(8) },
		func() *topology.Network { return topology.Benes(8) },
		func() *topology.Network { return topology.Clos(3, 3, 3) },
	}
	boundMet := 0
	for trial := 0; trial < 45; trial++ {
		net := builders[trial%len(builders)]()
		if trial%5 == 4 {
			net.FailLink(rng.Intn(len(net.Links)))
		}
		var reqs []Request
		for p := 0; p < net.Procs; p++ {
			if rng.Float64() < 0.6 {
				reqs = append(reqs, Request{Proc: p, Type: rng.Intn(3)})
			}
		}
		var avail []Avail
		for r := 0; r < net.Ress; r++ {
			if rng.Float64() < 0.6 {
				avail = append(avail, Avail{Res: r, Type: rng.Intn(3)})
			}
		}
		if len(reqs) == 0 {
			continue
		}
		m, err := ScheduleHetero(net, reqs, avail, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !m.Solve.MultiFastPath {
			t.Fatalf("trial %d (%s): restricted topology took the fallback: %+v", trial, net.Name, m.Solve)
		}
		if m.Solve.MultiGreedy || m.Solve.MultiGap != 0 {
			t.Fatalf("trial %d (%s): fast path with nonzero gap: %+v", trial, net.Name, m.Solve)
		}
		if got, want := int(m.Solve.MultiLPBound+0.5), m.Allocated(); got != want {
			t.Fatalf("trial %d (%s): LP bound %v vs allocated %d", trial, net.Name, m.Solve.MultiLPBound, want)
		}
		if !m.Solve.MultiLP {
			boundMet++
			if m.Solve.MultiLPBound != float64(m.Allocated()) {
				t.Fatalf("trial %d (%s): combinatorial bound %v vs allocated %d", trial, net.Name, m.Solve.MultiLPBound, m.Allocated())
			}
		}
		checkMapping(t, net, m)
	}
	if boundMet == 0 {
		t.Fatal("no epoch was certified against the combinatorial bound")
	}
}

// TestCertifyIntegralRejects: the certificate must reject fractional
// flows, illegal roundings, and totals that fall short of the LP
// objective — res.Integral alone is not trusted.
func TestCertifyIntegralRejects(t *testing.T) {
	g := graph.New(4, 0, 1)
	a0 := g.AddArc(0, 2, 1, 0) // s -> m
	a1 := g.AddArc(2, 1, 1, 0) // m -> t
	comms := []multiflow.Commodity{{Source: 0, Sink: 1, Demand: 1}}
	mk := func(f0, f1 float64) multiflow.Result {
		flows := make([][]float64, 1)
		flows[0] = make([]float64, len(g.Arcs))
		flows[0][a0], flows[0][a1] = f0, f1
		return multiflow.Result{Flows: flows, Values: []float64{f0}, Total: f0, Objective: f0, Integral: true}
	}

	if _, ok := certifyIntegral(g, comms, mk(0.5, 0.5), true); ok {
		t.Fatal("fractional flow certified")
	}
	// Conservation violation after rounding: unit enters node 2, nothing leaves.
	if _, ok := certifyIntegral(g, comms, mk(1, 0), true); ok {
		t.Fatal("illegal (non-conserving) flow certified")
	}
	// Total short of the claimed LP objective.
	short := mk(0, 0)
	short.Objective = 1
	if _, ok := certifyIntegral(g, comms, short, true); ok {
		t.Fatal("total below LP objective certified")
	}
	rounded, ok := certifyIntegral(g, comms, mk(1, 1), true)
	if !ok {
		t.Fatal("legal integral flow rejected")
	}
	if rounded.Total != 1 || rounded.Values[0] != 1 {
		t.Fatalf("recomputed totals wrong: %+v", rounded)
	}
}

// TestHeteroOnOmegaWithContention: typed requests on a blocking network;
// every assignment must be type-correct and the mapping link-disjoint.
func TestHeteroOnOmegaWithContention(t *testing.T) {
	net := topology.Omega(8)
	occupy(t, net, 0, 1)
	reqs := []Request{
		{Proc: 1, Type: 0}, {Proc: 2, Type: 1}, {Proc: 3, Type: 0},
		{Proc: 4, Type: 1}, {Proc: 5, Type: 0},
	}
	avail := []Avail{
		{Res: 0, Type: 0}, {Res: 2, Type: 1}, {Res: 3, Type: 0},
		{Res: 4, Type: 1}, {Res: 5, Type: 0},
	}
	m, err := ScheduleHetero(net, reqs, avail, &HeteroOptions{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForceMax(net, reqs, avail)
	if m.Allocated() != want {
		t.Fatalf("allocated %d, optimum %d", m.Allocated(), want)
	}
	checkMapping(t, net, m)
}

// TestTypedOrderSequence pins the commodity orders the typed solver
// retries under: every permutation, lexicographically, up to three
// commodities; beyond that reverse, the starved commodities first, then
// the rotations — each exactly once, then no more.
func TestTypedOrderSequence(t *testing.T) {
	orders := func(st *typedState) [][]int {
		out := [][]int{append([]int(nil), st.order...)}
		for attempt := 1; st.nextOrder(attempt); attempt++ {
			out = append(out, append([]int(nil), st.order...))
		}
		return out
	}
	three := &typedState{order: []int{0, 1, 2}}
	want := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	if got := orders(three); !reflect.DeepEqual(got, want) {
		t.Fatalf("three commodities: %v, want %v", got, want)
	}
	// Five commodities (0, 2, 3, 5, 6 of seven: 1 and 4 have no request or
	// no resource); the latest sweep shipped 3 and 6 below their F_c.
	five := &typedState{
		order:   []int{0, 2, 3, 5, 6},
		shipped: []int{2, 0, 1, 0, 0, 4, 1},
		alone:   []int{2, 0, 1, 1, 0, 4, 2},
	}
	want = [][]int{
		{0, 2, 3, 5, 6},
		{6, 5, 3, 2, 0},
		{3, 6, 0, 2, 5},
		{2, 3, 5, 6, 0},
		{3, 5, 6, 0, 2},
		{5, 6, 0, 2, 3},
		{6, 0, 2, 3, 5},
	}
	if got := orders(five); !reflect.DeepEqual(got, want) {
		t.Fatalf("five commodities: %v, want %v", got, want)
	}
}

// TestDifferentialPricedHeteroVsBrute holds the priced multicommodity
// solve to Theorem 3 type by type. On a crossbar two resource types share
// no link — every processor and resource link belongs to one type — so the
// priced optimum is the per-type optimum: on random two-type instances the
// weighted value ScheduleHetero{UsePriorities} realizes on each type must
// equal that type's BruteForceBestValue. Under a uniform bypass cost the
// multicommodity objective ignored priorities and fell short of it.
func TestDifferentialPricedHeteroVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1986))
	const trials = 400
	mismatches, blocking := 0, 0
	for trial := 0; trial < trials; trial++ {
		net := topology.Crossbar(2+rng.Intn(4), 1+rng.Intn(5))
		var reqs []Request
		for p := 0; p < net.Procs; p++ {
			if rng.Float64() < 0.8 {
				reqs = append(reqs, Request{Proc: p, Type: rng.Intn(2), Priority: rng.Int63n(12)})
			}
		}
		var avail []Avail
		for r := 0; r < net.Ress; r++ {
			if rng.Float64() < 0.7 {
				avail = append(avail, Avail{Res: r, Type: rng.Intn(2), Preference: rng.Int63n(12)})
			}
		}
		if len(reqs) == 0 {
			continue
		}
		m, err := ScheduleHetero(net, reqs, avail, &HeteroOptions{UsePriorities: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkMapping(t, net, m)
		if len(m.Blocked) > 0 {
			blocking++
		}
		short := false
		for typ := 0; typ < 2; typ++ {
			rs := slices.DeleteFunc(slices.Clone(reqs), func(r Request) bool { return r.Type != typ })
			as := slices.DeleteFunc(slices.Clone(avail), func(a Avail) bool { return a.Type != typ })
			mt := &Mapping{}
			for _, a := range m.Assigned {
				if a.Req.Type != typ {
					continue
				}
				if !slices.ContainsFunc(as, func(av Avail) bool { return av.Res == a.Res }) {
					t.Fatalf("trial %d: type-%d request %d got resource %d of another type", trial, typ, a.Req.Proc, a.Res)
				}
				mt.Assigned = append(mt.Assigned, a)
			}
			if got, want := WeightedValue(rs, as, mt), BruteForceBestValue(net, rs, as); got != want {
				if !short && mismatches < 3 {
					t.Logf("trial %d (%s), type %d: weighted value %d, brute force %d; reqs %+v avail %+v assigned %+v",
						trial, net.Name, typ, got, want, rs, as, mt.Assigned)
				}
				short = true
			}
		}
		if short {
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d instances fall short of the per-type optimum", mismatches, trials)
	}
	// Did-not-exercise: with nothing blocked any feasible schedule is
	// optimal and priorities never decide.
	if blocking == 0 {
		t.Fatal("no instance blocked a request")
	}
	t.Logf("%d of %d instances blocked a request", blocking, trials)
}
