package workload

import (
	"rsin/internal/core"
	"rsin/internal/topology"
)

// TypedInstance is one hand-picked heterogeneous scheduling instance with
// what the bound-first typed solver (core.Planner.ScheduleHetero) is known
// to do on it. The random ensembles almost never leave the solver's common
// path; these are the inputs that do, shared by the differential test and
// the fuzz corpus so each can demand that the rare paths were exercised.
type TypedInstance struct {
	Name    string
	Net     *topology.Network // a fresh fabric with the instance's faults applied
	Reqs    []core.Request
	Avail   []core.Avail
	Optimum int // the integral optimum (branch-and-bound)
	// BoundMiss: no commodity order ships the combinatorial upper bound —
	// the bound is loose, or every order starves some type — so the epoch
	// must fall through to the LP.
	BoundMiss bool
	// Starves: routing the types in ascending order strands a type that a
	// later order serves; the bound is met only after retries.
	Starves bool
}

// AdversarialTyped returns the instances: three resource types on
// Omega-8 and Benes-8 contending for middle-stage links.
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
			Name:    "omega8-chained-cuts",
			Net:     topology.Omega(8),
			Reqs:    rq(0, 0, 4, 1, 5, 1, 6, 2),
			Avail:   av(2, 1, 3, 2, 4, 1, 7, 0),
			Optimum: 3, BoundMiss: true,
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
			Optimum: 3, Starves: true,
		},
		{
			// A fault-free Benes can route any mapping, but only with its
			// middle stage chosen globally: type 0 routed first settles on
			// middle-stage links that strand a later type.
			Name:    "benes8-greedy-middle",
			Net:     topology.Benes(8),
			Reqs:    rq(1, 0, 2, 1, 3, 2, 5, 0),
			Avail:   av(0, 0, 1, 2, 2, 0, 3, 1, 4, 0),
			Optimum: 4, Starves: true,
		},
		{
			// Two failed links leave all five requests servable, and every
			// bound says so, but each of the six type orders strands one:
			// only a joint choice of middle-stage links serves all three
			// types. The LP finds it.
			Name:    "benes8-every-order-starves",
			Net:     faulted(topology.Benes(8), 12, 20),
			Reqs:    rq(0, 0, 1, 1, 2, 1, 4, 2, 5, 0),
			Avail:   av(2, 1, 3, 2, 4, 1, 5, 0, 6, 0),
			Optimum: 5, BoundMiss: true,
		},
		{
			// Two failed links make the relaxation itself fractional (4.5):
			// the bound is missed, the LP is not certified, and the epoch
			// ends in the greedy fallback at the integral optimum 4.
			Name:    "benes8-fractional-lp",
			Net:     faulted(topology.Benes(8), 3, 9),
			Reqs:    rq(0, 2, 2, 0, 3, 1, 4, 1, 7, 1),
			Avail:   av(0, 2, 2, 0, 3, 1, 5, 1, 6, 1),
			Optimum: 4, BoundMiss: true,
		},
	}
}
