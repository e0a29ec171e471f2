package workload

import (
	"rsin/internal/core"
	"rsin/internal/topology"
)

// TypedInstance is one hand-picked heterogeneous scheduling instance with
// what the typed solver (core.Planner.ScheduleHetero) is known to do on it.
// The random ensembles almost never leave the solver's common path; these
// are the inputs that do, shared by the differential test and the fuzz
// corpus so each can demand that the rare paths were exercised.
type TypedInstance struct {
	Name    string
	Net     *topology.Network // a fresh fabric with the instance's faults applied
	Reqs    []core.Request
	Avail   []core.Avail
	Optimum int // the integral optimum (branch-and-bound)
	// Path is how the solver settles the epoch.
	Path TypedPath
	// Starves: routing the types in ascending order strands a type that a
	// later order serves; the bound is met only after retries.
	Starves bool
}

// TypedPath is the way a typed epoch is settled: bound first, search
// next, LP last.
type TypedPath int

const (
	// ByBound: a commodity order ships the combinatorial upper bound.
	ByBound TypedPath = iota
	// BySearch: no order ships the bound — it is loose, or every order
	// starves some type — and the search over the fabric's routing table
	// settles the epoch (Solve.MultiSearch).
	BySearch
	// ByLP: no order ships the bound and the search cannot settle the
	// epoch — the fabric has no routing table, or the search runs out of
	// nodes — so it falls through to the LP (Solve.MultiLP).
	ByLP
)

func (p TypedPath) String() string {
	return [...]string{"bound", "search", "LP"}[p]
}

// AdversarialTyped returns the instances: three resource types on
// Omega-8, Benes-8 and Omega-16 contending for middle-stage links, and
// two on an Omega-8 with six extra stages, which has too many paths per
// pair for a routing table.
func AdversarialTyped() []TypedInstance {
	rq := func(pt ...int) []core.Request {
		var out []core.Request
		for i := 0; i < len(pt); i += 2 {
			out = append(out, core.Request{Proc: pt[i], Type: pt[i+1]})
		}
		return out
	}
	av := func(rt ...int) []core.Avail {
		var out []core.Avail
		for i := 0; i < len(rt); i += 2 {
			out = append(out, core.Avail{Res: rt[i], Type: rt[i+1]})
		}
		return out
	}
	faulted := func(net *topology.Network, links ...int) *topology.Network {
		for _, l := range links {
			if err := net.FailLink(l); err != nil {
				panic(err) // a link id outside the fabric: a typo in this table
			}
		}
		return net
	}
	return []TypedInstance{
		{
			// p0 (type 0) and p4 (type 1) leave the same first-stage box, and
			// r7 and r4 lie behind the same output of it; p4's other
			// resource r2 shares a second-stage output with p6's (type 2)
			// only resource r3. Alone every type ships everything (0:1, 1:2,
			// 2:1) and merged the four requests reach the four resources,
			// so every bound says 4; the chain of two one-link cuts allows 3.
			// The search proves it by running out of branches.
			Name:    "omega8-chained-cuts",
			Net:     topology.Omega(8),
			Reqs:    rq(0, 0, 4, 1, 5, 1, 6, 2),
			Avail:   av(2, 1, 3, 2, 4, 1, 7, 0),
			Optimum: 3, Path: BySearch,
		},
		{
			// Every free resource sits in the lower half, so all four
			// requests squeeze through the four links leaving the first
			// stage toward it, p0 (type 0) and p4 (type 2) through the same
			// one. Ascending order lets type 0 take the paths types 1 and 2
			// need; the fourth order tried ships the bound of 3.
			Name:    "omega8-lower-half",
			Net:     topology.Omega(8),
			Reqs:    rq(0, 0, 1, 1, 4, 2, 7, 0),
			Avail:   av(0, 2, 1, 1, 2, 0, 3, 1),
			Optimum: 3, Path: ByBound, Starves: true,
		},
		{
			// A fault-free Benes can route any mapping, but only with its
			// middle stage chosen globally: type 0 routed first settles on
			// middle-stage links that strand a later type.
			Name:    "benes8-greedy-middle",
			Net:     topology.Benes(8),
			Reqs:    rq(1, 0, 2, 1, 3, 2, 5, 0),
			Avail:   av(0, 0, 1, 2, 2, 0, 3, 1, 4, 0),
			Optimum: 4, Path: ByBound, Starves: true,
		},
		{
			// Two failed links leave all five requests servable, and every
			// bound says so, but only a joint choice of middle-stage links
			// serves all three types: the first two type orders strand one,
			// and the third ships the bound.
			Name:    "benes8-joint-middle-stage",
			Net:     faulted(topology.Benes(8), 12, 20),
			Reqs:    rq(0, 0, 1, 1, 2, 1, 4, 2, 5, 0),
			Avail:   av(2, 1, 3, 2, 4, 1, 5, 0, 6, 0),
			Optimum: 5, Path: ByBound, Starves: true,
		},
		{
			// Two failed links make the relaxation itself fractional (4.5),
			// so no bound reaches down to the integral optimum 4: the LP
			// would not certify it and would end in the greedy fallback.
			// The search proves 4 optimal.
			Name:    "benes8-fractional-lp",
			Net:     faulted(topology.Benes(8), 3, 9),
			Reqs:    rq(0, 2, 2, 0, 3, 1, 4, 1, 7, 1),
			Avail:   av(0, 2, 2, 0, 3, 1, 5, 1, 6, 1),
			Optimum: 4, Path: BySearch,
		},
		{
			// Every processor asks and every resource is free. An Omega-8
			// passes 4096 of the 8! permutations: the first two type orders
			// find none that fits the types, and the third assigns all 8.
			Name:    "omega8-full-load",
			Net:     topology.Omega(8),
			Reqs:    rq(0, 0, 1, 0, 2, 1, 3, 1, 4, 2, 5, 2, 6, 1, 7, 0),
			Avail:   av(0, 2, 1, 1, 2, 1, 3, 0, 4, 1, 5, 2, 6, 0, 7, 0),
			Optimum: 8, Path: ByBound, Starves: true,
		},
		{
			// Six extra shuffle stages give every pair 64 paths, past the
			// routing table's cap, so the fabric has no table to search.
			// Two failed links in the extra stages leave all four requests
			// servable and every bound says 4, but both type orders strand
			// one: the epoch goes to the LP, which certifies 4.
			Name:    "omega+6-8-no-table",
			Net:     faulted(topology.OmegaExtra(8, 6), 16, 28),
			Reqs:    rq(0, 1, 1, 0, 2, 1, 4, 0),
			Avail:   av(0, 0, 1, 1, 2, 0, 3, 2, 6, 1),
			Optimum: 4, Path: ByLP,
		},
		{
			// Fifteen requests on eleven free resources of a fault-free
			// Omega-16: every bound says 10, and the first sweep ships 10.
			Name: "omega16-fifteen-on-eleven",
			Net:  topology.Omega(16),
			Reqs: rq(0, 2, 1, 0, 2, 1, 3, 2, 4, 1, 5, 2, 6, 0, 8, 1, 9, 2, 10, 1,
				11, 2, 12, 0, 13, 2, 14, 0, 15, 2),
			Avail:   av(0, 0, 1, 2, 2, 2, 4, 0, 5, 0, 6, 2, 7, 0, 9, 1, 10, 2, 11, 2, 14, 2),
			Optimum: 10, Path: ByBound,
		},
		{
			// Sixteen requests on fifteen free resources of a fault-free
			// Omega-16. The bound says 13 and no order ships more than 11;
			// the search goes deep on schedules of 11 and runs out of
			// nodes before it finds one of 12. Having proved nothing, it
			// leaves the epoch to the LP, which certifies 12.
			Name: "omega16-search-budget",
			Net:  topology.Omega(16),
			Reqs: rq(0, 0, 1, 2, 2, 0, 3, 1, 4, 0, 5, 0, 6, 2, 7, 2, 8, 0, 9, 2,
				10, 1, 11, 1, 12, 1, 13, 2, 14, 0, 15, 2),
			Avail: av(0, 0, 1, 1, 2, 0, 3, 0, 5, 1, 6, 1, 7, 0, 8, 1, 9, 2, 10, 0,
				11, 0, 12, 2, 13, 2, 14, 2, 15, 2),
			Optimum: 12, Path: ByLP,
		},
	}
}
