package core

import (
	"fmt"
	"math"
	"sort"

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
	// fractional (maximum-flow discipline only). Without it, the integral
	// sequential per-commodity fallback is used.
	Exact bool
	// MaxNodes bounds the branch-and-bound search (0 = default).
	MaxNodes int
}

// heteroTransform is the multicommodity analogue of Transform: a shared
// link graph with one source/sink pair per resource type.
type heteroTransform struct {
	G       *graph.Network
	comms   []multiflow.Commodity
	types   []int // types[i]: resource type of commodity i
	arcLink []int
	reqOf   map[int]Request // source-arc -> request (per-commodity arcs)
	resOf   map[int]int
	byType  map[int][]Request // all requests per type (for blocked accounting)
	bypass  map[int]int       // commodity index -> bypass node (priced only)
}

// buildHetero constructs the superposed multicommodity flow network of
// §III-D from the MRSIN state. Node names and arc labels are formatted
// only when labels is set: the epoch path never reads them, the offline
// readers of BuildMulticommodity (E13, placement, DOT) do.
func buildHetero(net *topology.Network, reqs []Request, avail []Avail, priced, labels bool) *heteroTransform {
	// Distinct types that occur in requests, in sorted order.
	typeSet := map[int]bool{}
	for _, r := range reqs {
		typeSet[r.Type] = true
	}
	var types []int
	for t := range typeSet {
		types = append(types, t)
	}
	sort.Ints(types)

	nBoxes := len(net.Boxes)
	boxNode := func(b int) int { return 2 + b } // nodes 0,1 reserved (unused s/t for graph.New)
	n := 2 + nBoxes
	procNode := make(map[int]int, len(reqs))
	for _, r := range reqs {
		if _, dup := procNode[r.Proc]; dup {
			panic(fmt.Sprintf("core: duplicate request from processor %d", r.Proc))
		}
		procNode[r.Proc] = n
		n++
	}
	resNode := make(map[int]int, len(avail))
	for _, a := range avail {
		if _, dup := resNode[a.Res]; dup {
			panic(fmt.Sprintf("core: duplicate availability for resource %d", a.Res))
		}
		resNode[a.Res] = n
		n++
	}
	srcNode := make(map[int]int, len(types))
	sinkNode := make(map[int]int, len(types))
	bypassNode := make(map[int]int)
	for _, t := range types {
		srcNode[t] = n
		n++
		sinkNode[t] = n
		n++
		if priced {
			bypassNode[t] = n
			n++
		}
	}

	g := graph.New(n, 0, 1) // source/sink fields unused by multiflow
	name := func(v int, format string, i int) {
		if labels {
			g.SetName(v, fmt.Sprintf(format, i))
		}
	}
	for b := 0; b < nBoxes; b++ {
		name(boxNode(b), "x%d", b)
	}
	for p, v := range procNode {
		name(v, "p%d", p)
	}
	for r, v := range resNode {
		name(v, "r%d", r)
	}
	for _, t := range types {
		name(srcNode[t], "s%d", t)
		name(sinkNode[t], "t%d", t)
		if priced {
			name(bypassNode[t], "u%d", t)
		}
	}

	nArcs := len(reqs) + len(avail) + len(net.Links)
	if priced {
		nArcs += len(reqs) + len(types)
	}
	tr := &heteroTransform{
		G:       g,
		arcLink: make([]int, 0, nArcs),
		reqOf:   make(map[int]Request),
		resOf:   make(map[int]int),
		byType:  make(map[int][]Request),
		bypass:  make(map[int]int),
	}
	// addArc adds one arc with its arcLink entry (link: the topology link
	// it stands for, -1 for request, resource and bypass arcs).
	addArc := func(from, to int, capacity, cost int64, link int, format string, i int) int {
		id := g.AddArc(from, to, capacity, cost)
		if labels {
			g.Arcs[id].Label = fmt.Sprintf(format, i)
		}
		tr.arcLink = append(tr.arcLink, link)
		return id
	}

	var yMax, qMax int64
	for _, r := range reqs {
		if r.Priority > yMax {
			yMax = r.Priority
		}
	}
	for _, a := range avail {
		if a.Preference > qMax {
			qMax = a.Preference
		}
	}
	bypassCost := yMax + 1
	if qMax+1 > bypassCost {
		bypassCost = qMax + 1
	}

	demand := map[int]int64{}
	for _, r := range reqs {
		tr.byType[r.Type] = append(tr.byType[r.Type], r)
		demand[r.Type]++
		cost := int64(0)
		if priced {
			cost = yMax - r.Priority
		}
		id := addArc(srcNode[r.Type], procNode[r.Proc], 1, cost, -1, "req p%d", r.Proc)
		tr.reqOf[id] = r
	}
	for _, a := range avail {
		if !typeSet[a.Type] {
			continue // no request wants this type; (T4) would prune it
		}
		cost := int64(0)
		if priced {
			cost = qMax - a.Preference
		}
		id := addArc(resNode[a.Res], sinkNode[a.Type], 1, cost, -1, "res r%d", a.Res)
		tr.resOf[id] = a.Res
	}
	nodeOf := func(e topology.Endpoint) (int, bool) {
		switch e.Kind {
		case topology.KindProcessor:
			v, ok := procNode[e.Index]
			return v, ok
		case topology.KindResource:
			v, ok := resNode[e.Index]
			return v, ok
		default:
			return boxNode(e.Index), true
		}
	}
	for _, l := range net.Links {
		if l.State != topology.LinkFree || !net.LinkUsable(l.ID) {
			continue
		}
		from, ok1 := nodeOf(l.From)
		to, ok2 := nodeOf(l.To)
		if !ok1 || !ok2 {
			continue
		}
		addArc(from, to, 1, 0, l.ID, "link%d", l.ID)
	}
	if priced {
		for _, r := range reqs {
			addArc(procNode[r.Proc], bypassNode[r.Type], 1, bypassCost, -1, "bypass p%d", r.Proc)
		}
		for _, t := range types {
			addArc(bypassNode[t], sinkNode[t], demand[t], 0, -1, "bypass sink %d", t)
		}
	}

	for i, t := range types {
		c := multiflow.Commodity{Source: srcNode[t], Sink: sinkNode[t], Demand: demand[t]}
		tr.comms = append(tr.comms, c)
		tr.types = append(tr.types, t)
		if priced {
			tr.bypass[i] = bypassNode[t]
		}
	}
	return tr
}

// decode converts an integral multicommodity result into a Mapping.
func (tr *heteroTransform) decode(res multiflow.Result) (*Mapping, error) {
	m := &Mapping{}
	allocated := map[int]bool{}
	for ci := range tr.comms {
		rem := make([]int64, len(tr.G.Arcs))
		for e := range rem {
			f := res.Flows[ci][e]
			r := math.Round(f)
			if math.Abs(f-r) > 1e-6 {
				return nil, fmt.Errorf("core: fractional flow %v on arc %d of commodity %d", f, e, ci)
			}
			rem[e] = int64(r)
		}
		src := tr.comms[ci].Source
		sink := tr.comms[ci].Sink
		bypass, hasBypass := tr.bypass[ci]
		for {
			// Walk one unit from src to sink.
			var arcs []int
			v := src
			ok := true
			for v != sink {
				found := -1
				for _, id := range tr.G.Out(v) {
					if rem[id] > 0 {
						found = id
						break
					}
				}
				if found < 0 {
					ok = false
					break
				}
				arcs = append(arcs, found)
				rem[found]--
				v = tr.G.Arcs[found].To
			}
			if !ok || len(arcs) == 0 {
				break
			}
			if hasBypass {
				through := false
				for _, a := range arcs {
					if tr.G.Arcs[a].To == bypass {
						through = true
						break
					}
				}
				if through {
					continue // blocked request; accounted below
				}
			}
			req, okr := tr.reqOf[arcs[0]]
			if !okr {
				return nil, fmt.Errorf("core: commodity %d path lacks request arc", ci)
			}
			resIdx, okx := tr.resOf[arcs[len(arcs)-1]]
			if !okx {
				return nil, fmt.Errorf("core: commodity %d path lacks resource arc", ci)
			}
			var links []int
			for _, a := range arcs[1 : len(arcs)-1] {
				lid := tr.arcLink[a]
				if lid < 0 {
					return nil, fmt.Errorf("core: commodity %d interior arc %d has no link", ci, a)
				}
				links = append(links, lid)
			}
			m.Assigned = append(m.Assigned, Assignment{
				Req:     req,
				Res:     resIdx,
				Circuit: topology.Circuit{Proc: req.Proc, Res: resIdx, Links: links},
			})
			allocated[req.Proc] = true
		}
	}
	for _, rs := range tr.byType {
		for _, r := range rs {
			if !allocated[r.Proc] {
				m.Blocked = append(m.Blocked, r)
			}
		}
	}
	m.Cost = int64(math.Round(res.Cost))
	sortMapping(m)
	return m, nil
}

// BuildMulticommodity exposes the raw multicommodity flow network of §III-D
// (the superposed per-type layers over the shared link graph) for direct
// analysis — experiment E13 measures LP integrality on it. The returned
// commodities are ordered by resource type.
func BuildMulticommodity(net *topology.Network, reqs []Request, avail []Avail) (*graph.Network, []multiflow.Commodity) {
	tr := buildHetero(net, reqs, avail, false, true)
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
		if !p.ty.matches(net) {
			p.ty = newTypedState(net)
			if p.inc.matches(net) {
				p.ty.s.rt, p.ty.s.built = p.inc.rt, true
			}
		}
		m, ok, err := p.ty.solve(net, reqs, avail)
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
	tr := buildHetero(net, reqs, avail, opts.UsePriorities, false)

	if opts.UsePriorities {
		res, err := multiflow.MinCostFlow(tr.G, tr.comms, nil)
		if err != nil {
			return nil, fmt.Errorf("core: heterogeneous min-cost: %w", err)
		}
		// The priced objective is cost, not allocations, so only the
		// legality half of the certificate applies.
		if rounded, ok := certifyIntegral(tr.G, tr.comms, res, false); ok {
			m, derr := tr.decode(rounded)
			if derr != nil {
				return nil, derr
			}
			m.Solve.MultiFastPath = true
			return m, nil
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
	lpBound := res.Objective
	target := int(math.Floor(lpBound + tol))
	if rounded, ok := certifyIntegral(tr.G, tr.comms, res, true); ok {
		m, derr := tr.decode(rounded)
		if derr != nil {
			return nil, derr
		}
		m.Solve.MultiFastPath = true
		m.Solve.MultiLPBound = lpBound
		return m, nil
	}
	if opts.Exact {
		bb, err := multiflow.BranchAndBound(tr.G, tr.comms, nil, opts.MaxNodes)
		if err != nil {
			return nil, fmt.Errorf("core: heterogeneous branch-and-bound: %w", err)
		}
		m, derr := tr.decode(bb)
		if derr != nil {
			return nil, derr
		}
		m.Solve.MultiLPBound = lpBound
		if bb.Truncated {
			// The incumbent is only a lower bound; surface the distance to
			// the relaxation so callers never mistake it for the optimum.
			if gap := target - int(math.Round(bb.Total)); gap > 0 {
				m.Solve.MultiGap = gap
			}
		}
		return m, nil
	}
	best, attempts := multiflow.SequentialBest(tr.G, tr.comms, lpBound, 0)
	m, derr := tr.decode(best)
	if derr != nil {
		return nil, derr
	}
	m.Solve.MultiGreedy = true
	m.Solve.MultiRetries = attempts - 1
	m.Solve.MultiLPBound = lpBound
	if gap := target - int(math.Round(best.Total)); gap > 0 {
		m.Solve.MultiGap = gap
	}
	return m, nil
}

// heteroSequentialPriced allocates resource types one at a time with the
// single-commodity min-cost scheduler, occupying circuits between types so
// later types see the remaining capacity. Integral but possibly suboptimal.
func heteroSequentialPriced(net *topology.Network, tr *heteroTransform, reqs []Request, avail []Avail) (*Mapping, error) {
	work := net.Clone()
	out := &Mapping{}
	for _, t := range tr.types {
		var rts []Request
		for _, r := range reqs {
			if r.Type == t {
				rts = append(rts, r)
			}
		}
		var ats []Avail
		for _, a := range avail {
			if a.Type == t {
				ats = append(ats, a)
			}
		}
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
