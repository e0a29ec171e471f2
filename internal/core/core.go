// Package core implements the paper's primary contribution: optimal
// resource scheduling in (multistage) resource sharing interconnection
// networks by transformation to network flow problems (Juang & Wah, §III).
//
// Given a circuit-switched network (internal/topology) together with the
// pending requests and the free resources, the schedulers compute a
// request-resource mapping and the link-disjoint circuits realizing it:
//
//   - ScheduleMaxFlow — homogeneous resources, equal priorities:
//     Transformation 1 to a unit-capacity flow network, maximum flow
//     (Dinic), flow decomposition back into circuits. The number of
//     resources allocated equals the maximum flow (Theorem 2), so the
//     mapping is optimal.
//   - ScheduleMinCost — request priorities and resource preferences:
//     Transformation 2 adds a bypass node and cost assignments; the
//     minimum-cost flow of value F0 = #requests yields the optimal
//     prioritized mapping (Theorem 3).
//   - ScheduleHetero — multiple resource types: the multicommodity
//     formulations of §III-D. Maximum flow goes bound first, search
//     next, LP last: sequential per-type max-flow certified against a
//     combinatorial upper bound, an exact search over the routing table's
//     paths when the bound is missed, the dense LP (with integral
//     fallbacks) only when the search cannot settle the epoch.
//
// The schedulers never touch established circuits: links occupied by
// earlier allocations are simply absent from the flow network, exactly as
// in step (T3) of Transformation 1.
package core

import (
	"fmt"
	"slices"

	"rsin/internal/graph"
	"rsin/internal/maxflow"
	"rsin/internal/mincost"
	"rsin/internal/netsimplex"
	"rsin/internal/topology"
)

// Request is a pending resource request issued by a processor.
type Request struct {
	Proc     int   // requesting processor
	Priority int64 // priority level y_p >= 0; higher is more urgent (ignored by ScheduleMaxFlow)
	Type     int   // requested resource type (ignored by the homogeneous schedulers)
}

// Avail describes one free resource.
type Avail struct {
	Res        int   // resource index
	Preference int64 // preference level q_w >= 0; higher is more desirable (ignored by ScheduleMaxFlow)
	Type       int   // resource type (ignored by the homogeneous schedulers)
}

// Assignment binds one request to one resource through a concrete circuit.
// From a warm Planner method (ScheduleIncremental, ScheduleMinCostIncremental,
// a bound-certified ScheduleHetero) the circuit's Links view the planner's
// path slot for Req.Proc: they stay intact while the circuit is established
// on the network it was solved on, and a caller that keeps an unapplied
// mapping, or one applied to a Clone, past the planner's next solve must
// copy them (see Planner).
type Assignment struct {
	Req     Request
	Res     int
	Circuit topology.Circuit
}

// Mapping is the outcome of one scheduling cycle.
type Mapping struct {
	Assigned []Assignment // allocated request-resource pairs with their circuits
	Blocked  []Request    // requests that could not be allocated this cycle
	Cost     int64        // total allocation cost (min-cost disciplines only)

	// Ops aggregates primitive-operation counts of the underlying flow
	// computation, for the monitor-architecture cost model.
	Ops OpCounts

	// Solve describes how the planner obtained this mapping (warm-start
	// vs. cold build and the epoch's delta sizes); zero for the
	// disciplines that do not use the flow planner.
	Solve SolveStats
}

// OpCounts mirrors the flow packages' counters in one shape.
type OpCounts struct {
	Augmentations int
	Phases        int
	ArcScans      int
	NodeVisits    int
}

// Allocated reports the number of resources allocated.
func (m *Mapping) Allocated() int { return len(m.Assigned) }

// sizedMapping returns an empty mapping for reqs with room for exactly
// granted assignments and the rest blocked, so a decode fills it without
// growing either slice.
func sizedMapping(reqs []Request, granted int) *Mapping {
	m := &Mapping{Assigned: make([]Assignment, 0, granted)}
	if n := len(reqs) - granted; n > 0 {
		m.Blocked = make([]Request, 0, n)
	}
	return m
}

// Apply establishes every circuit of the mapping on the network. On error
// (which indicates a scheduler bug or a concurrently-modified network) the
// already-established circuits of this call are rolled back.
func (m *Mapping) Apply(net *topology.Network) error {
	for i, a := range m.Assigned {
		if err := net.Establish(a.Circuit); err != nil {
			for j := 0; j < i; j++ {
				_ = net.Release(m.Assigned[j].Circuit)
			}
			return fmt.Errorf("core: applying assignment %d: %w", i, err)
		}
	}
	return nil
}

// Transform is a flow network produced from an MRSIN plus the bookkeeping
// needed to turn a flow assignment back into circuits. It realizes
// Transformations 1 and 2 and the per-commodity layers of §III-D.
type Transform struct {
	G *graph.Network

	net      *topology.Network
	arcLink  []int           // arc index -> topology link ID, or -1 for s/t/bypass arcs
	reqOfArc map[int]Request // source-arc index -> request
	resOfArc map[int]int     // sink-arc index -> resource
	bypass   int             // bypass node, or -1
	F0       int64           // required flow value (Transformation 2), 0 otherwise
}

// Transform1 performs Transformation 1 (§III-B): nodes for requesting
// processors, switchboxes and free resources plus source and sink; one
// unit-capacity arc per free link, per pending request and per free
// resource. Occupied links, idle processors and busy resources are omitted,
// implementing steps (T3)-(T4).
func Transform1(net *topology.Network, reqs []Request, avail []Avail) *Transform {
	return transform(net, reqs, avail, false)
}

// Transform2 performs Transformation 2 (§III-C): Transformation 1 plus a
// bypass node u reachable from every requesting processor, with cost
// assignments w(e) = y_max - y_p on request arcs, q_max - q_w on resource
// arcs, max(y_max, q_max) + 1 + y_p on the bypass arc of request p and
// zero elsewhere. The required flow value F0 equals the number of
// requests; flow through the bypass marks the requests left unallocated.
//
// The y_p term on the bypass arc is the load-bearing part of the pricing:
// every request arc is saturated at F0, so its cost is paid by allocated
// and bypassed requests alike and cancels out of the objective. Only the
// bypass charge discriminates — a request forfeits y_p (plus the constant
// base) when it goes unserved, so the min-cost flow allocates the
// highest-priority requests first. With a uniform bypass cost (the
// pre-fix formulation) priorities were objective-inert: successive
// shortest paths happened to favor them through its shortest-path-first
// tie-breaking, but the network simplex and out-of-kilter engines could
// legally return equal-cost mappings that ignored priority entirely.
// TestPriorityPricingFixture pins the divergence.
func Transform2(net *topology.Network, reqs []Request, avail []Avail) *Transform {
	return transform(net, reqs, avail, true)
}

func transform(net *topology.Network, reqs []Request, avail []Avail, priced bool) *Transform {
	// Node numbering: 0 = source, 1 = sink, 2..2+boxes-1 = switchboxes,
	// then one node per requesting processor and per free resource, then
	// the bypass (Transformation 2 only).
	nBoxes := len(net.Boxes)
	boxNode := func(b int) int { return 2 + b }
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
	bypass := -1
	if priced {
		bypass = n
		n++
	}

	g := graph.New(n, 0, 1)
	g.SetName(0, "s")
	g.SetName(1, "t")
	for b := 0; b < nBoxes; b++ {
		g.SetName(boxNode(b), fmt.Sprintf("x%d", b))
	}
	for p, v := range procNode {
		g.SetName(v, fmt.Sprintf("p%d", p))
	}
	for r, v := range resNode {
		g.SetName(v, fmt.Sprintf("r%d", r))
	}
	if bypass >= 0 {
		g.SetName(bypass, "u")
	}

	tr := &Transform{
		G:        g,
		net:      net,
		reqOfArc: make(map[int]Request),
		resOfArc: make(map[int]int),
		bypass:   bypass,
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
	bypassBase := bypassBaseCost(yMax, qMax)

	// (T2)/(T3): request arcs S = {(s, p)}.
	for _, r := range reqs {
		cost := int64(0)
		if priced {
			cost = yMax - r.Priority
		}
		id := g.AddLabeledArc(0, procNode[r.Proc], 1, cost, fmt.Sprintf("req p%d", r.Proc))
		tr.reqOfArc[id] = r
	}
	// Resource arcs T = {(r, t)}.
	for _, a := range avail {
		cost := int64(0)
		if priced {
			cost = qMax - a.Preference
		}
		id := g.AddLabeledArc(resNode[a.Res], 1, 1, cost, fmt.Sprintf("res r%d", a.Res))
		tr.resOfArc[id] = a.Res
	}
	// Link arcs B: one per free link whose endpoints exist in the node set.
	tr.arcLink = make([]int, len(g.Arcs))
	for i := range tr.arcLink {
		tr.arcLink[i] = -1
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
		if l.State != topology.LinkFree {
			continue // (T3): occupied links get capacity 0, (T4) removes them
		}
		if !net.LinkUsable(l.ID) {
			// Hardware fault masking: a failed link (or a link on a failed
			// switchbox / into a failed resource) is removed exactly like an
			// occupied one, so the flow problem — and with it Theorems 1-2 —
			// is posed on the surviving subgraph.
			continue
		}
		from, ok1 := nodeOf(l.From)
		to, ok2 := nodeOf(l.To)
		if !ok1 || !ok2 {
			continue // idle processor or busy resource endpoint
		}
		id := g.AddLabeledArc(from, to, 1, 0, fmt.Sprintf("link%d", l.ID))
		for len(tr.arcLink) < len(g.Arcs) {
			tr.arcLink = append(tr.arcLink, -1)
		}
		tr.arcLink[id] = l.ID
	}
	// Bypass arcs L (Transformation 2 only): leaving request p unserved
	// forfeits its priority on top of the constant base, so the objective
	// discriminates between requests (see Transform2).
	if priced {
		for _, r := range reqs {
			g.AddLabeledArc(procNode[r.Proc], bypass, 1, bypassBase+r.Priority, fmt.Sprintf("bypass p%d", r.Proc))
		}
		g.AddLabeledArc(bypass, 1, int64(len(reqs)), 0, "bypass sink")
		tr.F0 = int64(len(reqs))
	}
	for len(tr.arcLink) < len(g.Arcs) {
		tr.arcLink = append(tr.arcLink, -1)
	}
	return tr
}

// MappingFromFlow decodes the current integral flow assignment of the
// transform's graph into a Mapping: every s-t flow path that avoids the
// bypass becomes a circuit (Theorem 2). Requests whose flow is absent or
// routed through the bypass node are reported blocked.
func (tr *Transform) MappingFromFlow() (*Mapping, error) {
	paths, err := tr.G.DecomposePaths()
	if err != nil {
		return nil, fmt.Errorf("core: decoding flow: %w", err)
	}
	m := &Mapping{Cost: tr.G.Cost()}
	allocated := make(map[int]bool) // processors allocated
	for _, p := range paths {
		if p.Amt != 1 {
			// Bypass sink arc can carry more than one unit; such a path
			// represents several blocked requests only when it crosses the
			// bypass. Unit decomposition of everything else is guaranteed
			// by unit capacities.
			if !tr.crossesBypass(p) {
				return nil, fmt.Errorf("core: non-unit flow path (amount %d) outside bypass", p.Amt)
			}
		}
		if tr.crossesBypass(p) {
			continue // blocked request(s); collected below
		}
		req, ok := tr.reqOfArc[p.Arcs[0]]
		if !ok {
			return nil, fmt.Errorf("core: path does not start with a request arc")
		}
		res, ok := tr.resOfArc[p.Arcs[len(p.Arcs)-1]]
		if !ok {
			return nil, fmt.Errorf("core: path does not end with a resource arc")
		}
		var links []int
		for _, a := range p.Arcs[1 : len(p.Arcs)-1] {
			lid := tr.arcLink[a]
			if lid < 0 {
				return nil, fmt.Errorf("core: interior path arc %d has no link", a)
			}
			links = append(links, lid)
		}
		m.Assigned = append(m.Assigned, Assignment{
			Req:     req,
			Res:     res,
			Circuit: topology.Circuit{Proc: req.Proc, Res: res, Links: links},
		})
		allocated[req.Proc] = true
	}
	for _, req := range tr.reqOfArc {
		if !allocated[req.Proc] {
			m.Blocked = append(m.Blocked, req)
		}
	}
	sortMapping(m)
	return m, nil
}

func (tr *Transform) crossesBypass(p graph.Path) bool {
	if tr.bypass < 0 {
		return false
	}
	for _, n := range p.Nodes(tr.G) {
		if n == tr.bypass {
			return true
		}
	}
	return false
}

// sortMapping orders assignments and blocked requests by processor for
// deterministic output (a processor requests once a cycle, so the order is
// total). slices.SortFunc, unlike sort.Slice, allocates nothing.
func sortMapping(m *Mapping) {
	slices.SortFunc(m.Assigned, func(a, b Assignment) int { return a.Req.Proc - b.Req.Proc })
	slices.SortFunc(m.Blocked, func(a, b Request) int { return a.Proc - b.Proc })
}

// ScheduleMaxFlow computes the optimal request-resource mapping for a
// homogeneous MRSIN without priorities: the mapping allocating the maximum
// number of resources (§III-B). Priorities, preferences and types on the
// inputs are ignored.
func ScheduleMaxFlow(net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
	var p Planner
	return p.ScheduleMaxFlow(net, reqs, avail)
}

// Planner is a reusable scheduling workspace for hot paths that solve one
// flow problem per cycle for the lifetime of a system (internal/system,
// internal/sched). ScheduleMaxFlow recycles the residual arena of the
// cold solver between cycles; ScheduleIncremental goes further and keeps
// the previous epoch's residual/flow state itself, applying per-epoch
// deltas instead of rebuilding; ScheduleHetero reuses one whole-fabric
// arena's memory (never its flow) for every typed epoch. The zero value is
// ready to use. A Planner
// is not safe for concurrent use; give each scheduling shard its own.
//
// The warm methods (ScheduleIncremental, ScheduleMinCostIncremental and a
// bound-certified ScheduleHetero) decode each circuit into the planner's
// path slot for its processor, and the Mapping's Circuit.Links view that
// slot. The next grant to the same processor rewrites it. A mapping applied
// to the network it was solved on stays intact while its circuits stand (a
// standing circuit's processor cannot be granted again). A caller that
// solves without applying, or applies to another network (a Clone), must
// copy the links it keeps before the next solve: otherwise they change
// under it, and a later Release or ForceRelease frees the wrong links.
type Planner struct {
	buf maxflow.Buffers
	inc *incState   // warm-start arena; nil until the first incremental solve
	mc  *mcState    // min-cost warm-basis arena; nil until the first prioritized solve
	ty  *typedState // typed-epoch arena; nil until the first heterogeneous solve
}

// ScheduleMaxFlow is the package-level ScheduleMaxFlow computed with the
// planner's recycled solver buffers.
func (p *Planner) ScheduleMaxFlow(net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
	tr := Transform1(net, reqs, avail)
	res := p.buf.Dinic(tr.G)
	m, err := tr.MappingFromFlow()
	if err != nil {
		return nil, err
	}
	m.Ops = OpCounts{
		Augmentations: res.Ops.Augmentations,
		Phases:        res.Ops.Phases,
		ArcScans:      res.Ops.ArcScans,
		NodeVisits:    res.Ops.NodeVisits,
	}
	m.Cost = 0
	m.Solve = SolveStats{Cold: true}
	return m, nil
}

// ScheduleMinCost computes the optimal mapping for a homogeneous MRSIN with
// request priorities and resource preferences (§III-C): the number of
// allocated resources is maximized, and among maximal mappings one of
// minimum total cost (y_max - y_p summed over allocated requests plus
// q_max - q_w over chosen resources) is selected.
func ScheduleMinCost(net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
	if len(reqs) == 0 {
		return &Mapping{}, nil
	}
	tr := Transform2(net, reqs, avail)
	res, err := mincost.SuccessiveShortestPaths(tr.G, tr.F0)
	if err != nil {
		// Cannot happen: the bypass guarantees feasibility (Theorem 3).
		return nil, fmt.Errorf("core: min-cost scheduling: %w", err)
	}
	m, merr := tr.MappingFromFlow()
	if merr != nil {
		return nil, merr
	}
	m.Ops = OpCounts{
		Augmentations: res.Ops.Augmentations,
		ArcScans:      res.Ops.ArcScans,
		NodeVisits:    res.Ops.NodeVisits,
	}
	return m, nil
}

// ScheduleMinCostNetworkSimplex is ScheduleMinCost solved with the primal
// network simplex method; results are equivalent in allocation count and
// cost (all three min-cost engines are optimal).
func ScheduleMinCostNetworkSimplex(net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
	if len(reqs) == 0 {
		return &Mapping{}, nil
	}
	tr := Transform2(net, reqs, avail)
	res, err := netsimplex.MinCostFlow(tr.G, tr.F0)
	if err != nil {
		return nil, fmt.Errorf("core: network-simplex scheduling: %w", err)
	}
	m, merr := tr.MappingFromFlow()
	if merr != nil {
		return nil, merr
	}
	m.Ops = OpCounts{
		Augmentations: res.Ops.Augmentations,
		ArcScans:      res.Ops.ArcScans,
		NodeVisits:    res.Ops.NodeVisits,
	}
	return m, nil
}

// ScheduleMinCostOutOfKilter is ScheduleMinCost solved with Fulkerson's
// out-of-kilter algorithm instead of successive shortest paths; results are
// equivalent in allocation count and cost (both optimal).
func ScheduleMinCostOutOfKilter(net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
	if len(reqs) == 0 {
		return &Mapping{}, nil
	}
	tr := Transform2(net, reqs, avail)
	res, err := mincost.OutOfKilter(tr.G, tr.F0)
	if err != nil {
		return nil, fmt.Errorf("core: out-of-kilter scheduling: %w", err)
	}
	m, merr := tr.MappingFromFlow()
	if merr != nil {
		return nil, merr
	}
	m.Ops = OpCounts{
		Augmentations: res.Ops.Augmentations,
		ArcScans:      res.Ops.ArcScans,
		NodeVisits:    res.Ops.NodeVisits,
	}
	return m, nil
}
