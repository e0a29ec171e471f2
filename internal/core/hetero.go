package core

import (
	"fmt"
	"math"
	"slices"

	"rsin/internal/graph"
	"rsin/internal/multiflow"
	"rsin/internal/topology"
)

// HeteroOptions tunes heterogeneous scheduling.
type HeteroOptions struct {
	// UsePriorities selects the multicommodity minimum-cost discipline
	// (§III-D second formulation); otherwise total allocation is maximized.
	UsePriorities bool
	// Exact forces branch-and-bound when the LP relaxation comes out
	// fractional (maximum-flow discipline only), within the search's own
	// default node budget. Without it, the integral sequential
	// per-commodity fallback is used.
	Exact bool
}

// decodeResult decodes an integral multicommodity result — a certified
// rounding, a branch-and-bound incumbent or a sequential decomposition —
// with the transform's one decoder, into a mapping solved as st says.
func (tr *Transform) decodeResult(res multiflow.Result, st SolveStats) (*Mapping, error) {
	if len(res.Flows) != len(tr.comms) {
		return nil, fmt.Errorf("core: %d commodity flows for %d commodities", len(res.Flows), len(tr.comms))
	}
	flow := make([][]int64, len(tr.comms))
	for c, fs := range res.Flows {
		flow[c] = make([]int64, len(tr.G.Arcs))
		for e, f := range fs {
			r := math.Round(f)
			if math.Abs(f-r) > 1e-6 {
				return nil, fmt.Errorf("core: fractional flow %v on arc %d of commodity %d", f, e, c)
			}
			flow[c][e] = int64(r)
		}
	}
	m, err := tr.decode(flow, int64(math.Round(res.Cost)))
	if err != nil {
		return nil, err
	}
	m.Solve = st
	return m, nil
}

// BuildMulticommodity exposes the raw multicommodity flow network of §III-D
// (the superposed per-type layers over the shared link graph) for direct
// analysis — experiment E13 measures LP integrality on it. The returned
// commodities are ordered by resource type.
func BuildMulticommodity(net *topology.Network, reqs []Request, avail []Avail) (*graph.Network, []multiflow.Commodity) {
	tr := build(net, reqs, avail, true, false, true)
	return tr.G, tr.comms
}

// certifyIntegral rounds an LP relaxation result to the nearest integers
// and certifies the rounding as a trustworthy integral schedule: every
// flow within tol of an integer, the rounded flows re-verified legal
// (conservation and joint capacities via multiflow.CheckLegal), and —
// when checkTotal — the rounded total matching the LP objective, so the
// schedule is provably optimal, not merely near-integral. Result.Integral
// alone is a per-variable tolerance test on raw simplex output; the
// certificate is what lets the fast path commit without a fallback solve.
func certifyIntegral(g *graph.Network, comms []multiflow.Commodity, res multiflow.Result, checkTotal bool) (multiflow.Result, bool) {
	const tol = 1e-6
	if len(res.Flows) != len(comms) {
		return res, false
	}
	rounded := multiflow.Result{
		Flows:     make([][]float64, len(comms)),
		Values:    make([]float64, len(comms)),
		Integral:  true,
		Cost:      res.Cost,
		LPStatus:  res.LPStatus,
		Objective: res.Objective,
	}
	for i := range comms {
		if len(res.Flows[i]) != len(g.Arcs) {
			return res, false
		}
		rounded.Flows[i] = make([]float64, len(g.Arcs))
		for e, f := range res.Flows[i] {
			r := math.Round(f)
			if math.Abs(f-r) > tol {
				return res, false
			}
			rounded.Flows[i][e] = r
		}
		for _, id := range g.Out(comms[i].Source) {
			rounded.Values[i] += rounded.Flows[i][id]
		}
		for _, id := range g.In(comms[i].Source) {
			rounded.Values[i] -= rounded.Flows[i][id]
		}
		rounded.Total += rounded.Values[i]
	}
	if err := multiflow.CheckLegal(g, comms, rounded, tol); err != nil {
		return res, false
	}
	if checkTotal && math.Abs(rounded.Total-res.Objective) > 1e-3 {
		return res, false
	}
	return rounded, true
}

// ScheduleHetero computes a request-resource mapping for a heterogeneous
// MRSIN (§III-D). Without priorities it maximizes the total number of
// allocations across all resource types (multicommodity maximum flow); with
// priorities it additionally minimizes the total allocation cost
// (multicommodity minimum cost flow). It is Planner.ScheduleHetero on a
// fresh planner; the mapping is the same, a long-lived planner only reuses
// its arena's memory.
func ScheduleHetero(net *topology.Network, reqs []Request, avail []Avail, opts *HeteroOptions) (*Mapping, error) {
	var p Planner
	return p.ScheduleHetero(net, reqs, avail, opts)
}

// ScheduleHetero solves one typed epoch. The maximum-flow discipline goes
// bound first, search next, LP last: sequential per-type max-flow on the
// planner's arena, committed when it meets a combinatorial upper bound
// that also bounds the LP relaxation (typedState) — Solve.MultiFastPath
// set, MultiLPBound the bound, MultiGap zero. On the restricted topologies
// of [14] nearly every epoch ends there. A missed bound is settled by an
// exact search over the routing table's paths (typedSearch), certified the
// same way and marked Solve.MultiSearch. Only a fabric with no routing
// table, a search out of nodes, and the priced discipline (always) reach
// the dense LP: scheduleHeteroLP, which sets Solve.MultiLP.
//
// A mapping certified on the arena (by the bound or the search) has Links
// that view the planner's per-processor path slots: unless the mapping is
// applied to net, copy the links before the next solve (see Planner).
func (p *Planner) ScheduleHetero(net *topology.Network, reqs []Request, avail []Avail, opts *HeteroOptions) (*Mapping, error) {
	if opts == nil {
		opts = &HeteroOptions{}
	}
	if len(reqs) == 0 {
		return &Mapping{}, nil
	}
	if !opts.UsePriorities {
		st, _ := p.solver(net)
		m, ok, err := st.solve(net, reqs, avail)
		if err != nil {
			return nil, err
		}
		if ok {
			return m, nil
		}
	}
	m, err := scheduleHeteroLP(net, reqs, avail, opts)
	if err != nil {
		return nil, err
	}
	m.Solve.MultiLP = true
	return m, nil
}

// scheduleHeteroLP is the LP chain behind ScheduleHetero: solve the
// relaxation and commit it only after certification (certifyIntegral):
// rounded flows must re-verify as a legal schedule whose total matches the
// LP objective — Solve.MultiFastPath set, MultiGap zero. When
// certification fails an integral fallback runs: exact branch-and-bound
// when opts.Exact (a node-budget-exhausted run is accepted as a legal
// lower bound, flagged by a nonzero MultiGap), otherwise the
// conflict-retrying sequential per-commodity decomposition
// (multiflow.SequentialBest), with the gap to the LP bound recorded in
// Solve.MultiGap.
func scheduleHeteroLP(net *topology.Network, reqs []Request, avail []Avail, opts *HeteroOptions) (*Mapping, error) {
	const tol = 1e-6
	tr := build(net, reqs, avail, true, opts.UsePriorities, false)

	if opts.UsePriorities {
		res, err := multiflow.MinCostFlow(tr.G, tr.comms, nil)
		if err != nil {
			return nil, fmt.Errorf("core: heterogeneous min-cost: %w", err)
		}
		// The priced objective is cost, not allocations, so only the
		// legality half of the certificate applies.
		if rounded, ok := certifyIntegral(tr.G, tr.comms, res, false); ok {
			return tr.decodeResult(rounded, SolveStats{MultiFastPath: true})
		}
		// Fall back to sequential per-type prioritized scheduling on a
		// copy of the network, allocating types in sorted order.
		m, err := heteroSequentialPriced(net, tr, reqs, avail)
		if err != nil {
			return nil, err
		}
		m.Solve.MultiGreedy = true
		return m, nil
	}

	res, err := multiflow.MaxFlow(tr.G, tr.comms, nil)
	if err != nil {
		return nil, fmt.Errorf("core: heterogeneous max-flow: %w", err)
	}
	st := SolveStats{MultiLPBound: res.Objective}
	sol, ok := certifyIntegral(tr.G, tr.comms, res, true)
	switch {
	case ok:
		st.MultiFastPath = true
	case opts.Exact:
		if sol, err = multiflow.BranchAndBound(tr.G, tr.comms, nil, 0); err != nil {
			return nil, fmt.Errorf("core: heterogeneous branch-and-bound: %w", err)
		}
	default:
		var attempts int
		sol, attempts = multiflow.SequentialBest(tr.G, tr.comms, res.Objective, 0)
		st.MultiGreedy, st.MultiRetries = true, attempts-1
	}
	// A sequential schedule, or the incumbent of a truncated
	// branch-and-bound run, is only a lower bound: surface the distance to
	// the relaxation so callers never mistake it for the optimum.
	if st.MultiGreedy || sol.Truncated {
		st.MultiGap = max(0, int(math.Floor(res.Objective+tol))-int(math.Round(sol.Total)))
	}
	return tr.decodeResult(sol, st)
}

// heteroSequentialPriced allocates resource types one at a time with the
// single-commodity min-cost scheduler, occupying circuits between types so
// later types see the remaining capacity. Integral but possibly suboptimal.
func heteroSequentialPriced(net *topology.Network, tr *Transform, reqs []Request, avail []Avail) (*Mapping, error) {
	work := net.Clone()
	out := &Mapping{}
	for _, t := range tr.types {
		rts := slices.DeleteFunc(slices.Clone(reqs), func(r Request) bool { return r.Type != t })
		ats := slices.DeleteFunc(slices.Clone(avail), func(a Avail) bool { return a.Type != t })
		m, err := ScheduleMinCost(work, rts, ats)
		if err != nil {
			return nil, err
		}
		if err := m.Apply(work); err != nil {
			return nil, err
		}
		out.Assigned = append(out.Assigned, m.Assigned...)
		out.Blocked = append(out.Blocked, m.Blocked...)
		out.Cost += m.Cost
	}
	sortMapping(out)
	return out, nil
}
