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
	"rsin/internal/multiflow"
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

// OpCounts is the flow packages' operation counters, in maxflow's shape;
// the min-cost engines map theirs onto it.
type OpCounts = maxflow.Counters

// Allocated reports the number of resources allocated.
func (m *Mapping) Allocated() int { return len(m.Assigned) }

// mappingBuf is the Mapping a planner's decode fills in place and
// returns: valid until the planner's next solve (see Planner).
type mappingBuf struct {
	m       Mapping
	blocked []Request // Blocked's memory, kept while a mapping blocks nothing
}

// begin empties the mapping for a decode of reqs that grants granted of
// them, with room for every request on either side, so the decode never
// grows a slice and the planner's memory stops growing at its largest
// epoch. Like a fresh mapping, Assigned is never nil and Blocked is nil
// when nothing is blocked.
func (b *mappingBuf) begin(reqs []Request, granted int) *Mapping {
	assigned := slices.Grow(b.m.Assigned[:0], len(reqs))
	if assigned == nil {
		assigned = []Assignment{}
	}
	b.m = Mapping{Assigned: assigned}
	if len(reqs) > granted {
		b.blocked = slices.Grow(b.blocked[:0], len(reqs))
		b.m.Blocked = b.blocked
	}
	return &b.m
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
// Transformations 1 and 2 (one commodity) and the per-type layers of
// §III-D (one commodity per requested resource type); see build.
type Transform struct {
	G  *graph.Network
	F0 int64 // required flow value (Transformation 2), 0 otherwise

	reqs    []Request             // request arc i carries reqs[i]
	res     []int                 // resource arc len(reqs)+i leaves resource res[i]
	arcLink []int                 // arc index -> topology link ID, or -1 for s/t/bypass arcs
	comms   []multiflow.Commodity // commodity c's source, sink and demand
	types   []int                 // types[c]: the resource type of commodity c (typed builds)
	bypass  []int                 // bypass[c]: commodity c's bypass node (priced builds)
}

// Transform1 performs Transformation 1 (§III-B): nodes for requesting
// processors, switchboxes and free resources plus source and sink; one
// unit-capacity arc per free link, per pending request and per free
// resource. Occupied links, idle processors and busy resources are omitted,
// implementing steps (T3)-(T4).
func Transform1(net *topology.Network, reqs []Request, avail []Avail) *Transform {
	return build(net, reqs, avail, false, false, true)
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
	return build(net, reqs, avail, false, true, true)
}

// build lays Transformation 1 — and with priced, Transformation 2 — over
// the fabric once per commodity. Untyped there is one commodity and
// request and resource types are ignored; typed there is one per
// requested resource type, in ascending type order, sharing the link
// graph (§III-D), and a free resource of a type nobody requested gets no
// resource arc ((T4) would prune it). Every commodity is priced alike:
// y_max, q_max and the bypass base are the whole instance's. Node names
// and arc labels are formatted only when labels is set: the solvers never
// read them, the offline readers (DIMACS export, E13, placement, DOT) do.
//
// Nodes: commodity 0's source and sink (0 and 1), the switchboxes, one
// node per requesting processor and per free resource, then per
// commodity its source and sink (commodity 0's excepted) and, priced, its
// bypass. Arcs: request arcs in reqs order, resource arcs in avail order,
// one arc per free usable link whose endpoints exist, then, priced, one
// bypass arc per request and one bypass sink arc per commodity. A
// one-commodity build is thus Transformation 1 or 2 node for node and arc
// for arc.
func build(net *topology.Network, reqs []Request, avail []Avail, typed, priced, labels bool) *Transform {
	types := []int{0}
	if typed {
		types = types[:0]
		for _, r := range reqs {
			types = append(types, r.Type)
		}
		slices.Sort(types)
		types = slices.Compact(types)
	}
	commOf := func(t int) (int, bool) {
		if !typed {
			return 0, true
		}
		return slices.BinarySearch(types, t)
	}

	nBoxes := len(net.Boxes)
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
	tr := &Transform{
		reqs:  slices.Clone(reqs),
		comms: make([]multiflow.Commodity, len(types)),
		types: types,
	}
	for c := range tr.comms {
		src, sink := 0, 1
		if c > 0 {
			src, sink = n, n+1
			n += 2
		}
		tr.comms[c].Source, tr.comms[c].Sink = src, sink
		if priced {
			tr.bypass = append(tr.bypass, n)
			n++
		}
	}

	g := graph.New(n, 0, 1)
	tr.G = g
	if labels {
		for b := 0; b < nBoxes; b++ {
			g.SetName(2+b, fmt.Sprintf("x%d", b))
		}
		for p, v := range procNode {
			g.SetName(v, fmt.Sprintf("p%d", p))
		}
		for r, v := range resNode {
			g.SetName(v, fmt.Sprintf("r%d", r))
		}
		for c, cm := range tr.comms {
			suffix := ""
			if typed {
				suffix = fmt.Sprint(types[c])
			}
			g.SetName(cm.Source, "s"+suffix)
			g.SetName(cm.Sink, "t"+suffix)
			if priced {
				g.SetName(tr.bypass[c], "u"+suffix)
			}
		}
	}

	nArcs := len(reqs) + len(avail) + len(net.Links)
	if priced {
		nArcs += len(reqs) + len(types)
	}
	tr.arcLink = make([]int, 0, nArcs)
	// addArc adds one arc with its arcLink entry (link: the topology link
	// it stands for, -1 for request, resource and bypass arcs) and, with
	// labels, its label format(i).
	addArc := func(from, to int, capacity, cost int64, link int, format string, i int) int {
		id := g.AddArc(from, to, capacity, cost)
		if labels {
			g.Arcs[id].Label = fmt.Sprintf(format, i)
		}
		tr.arcLink = append(tr.arcLink, link)
		return id
	}

	// cost prices a request arc (bound y_max, level y_p) or a resource arc
	// (q_max, q_w); unpriced, every arc is cost-free.
	yMax, qMax := maxPriorityPreference(reqs, avail)
	cost := func(bound, level int64) int64 {
		if !priced {
			return 0
		}
		return bound - level
	}
	// (T2)/(T3): request arcs S = {(s_c, p)}.
	for _, r := range reqs {
		c, _ := commOf(r.Type)
		tr.comms[c].Demand++
		addArc(tr.comms[c].Source, procNode[r.Proc], 1, cost(yMax, r.Priority), -1, "req p%d", r.Proc)
	}
	// Resource arcs T = {(r, t_c)}.
	for _, a := range avail {
		c, ok := commOf(a.Type)
		if !ok {
			continue
		}
		addArc(resNode[a.Res], tr.comms[c].Sink, 1, cost(qMax, a.Preference), -1, "res r%d", a.Res)
		tr.res = append(tr.res, a.Res)
	}
	// Link arcs B: one per free link whose endpoints exist in the node set.
	nodeOf := func(e topology.Endpoint) (int, bool) {
		switch e.Kind {
		case topology.KindProcessor:
			v, ok := procNode[e.Index]
			return v, ok
		case topology.KindResource:
			v, ok := resNode[e.Index]
			return v, ok
		default:
			return 2 + e.Index, true
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
		addArc(from, to, 1, 0, l.ID, "link%d", l.ID)
	}
	// Bypass arcs L (Transformation 2): leaving request p unserved
	// forfeits its priority on top of the constant base, so the objective
	// discriminates between requests (see Transform2).
	if priced {
		base := bypassBaseCost(yMax, qMax)
		for _, r := range reqs {
			c, _ := commOf(r.Type)
			addArc(procNode[r.Proc], tr.bypass[c], 1, base+r.Priority, -1, "bypass p%d", r.Proc)
		}
		for c, cm := range tr.comms {
			id := addArc(tr.bypass[c], cm.Sink, cm.Demand, 0, -1, "bypass sink %d", types[c])
			if labels && !typed {
				g.Arcs[id].Label = "bypass sink"
			}
		}
		tr.F0 = int64(len(reqs))
	}
	return tr
}

// MappingFromFlow decodes the current integral flow assignment of the
// transform's graph into a Mapping: every s-t flow path that avoids the
// bypass becomes a circuit (Theorem 2). Requests whose flow is absent or
// routed through the bypass node are reported blocked.
func (tr *Transform) MappingFromFlow() (*Mapping, error) {
	if err := tr.G.CheckLegal(); err != nil {
		return nil, fmt.Errorf("core: decoding flow: %w", err)
	}
	flow := make([]int64, len(tr.G.Arcs))
	for i := range flow {
		flow[i] = tr.G.Arcs[i].Flow
	}
	return tr.decode([][]int64{flow}, tr.G.Cost())
}

// decode turns integral per-commodity flow into a Mapping with the given
// cost; flow[c][e] is commodity c's flow on arc e, consumed by the walk.
// Every unit leaving a commodity's source is walked to its sink, each
// step along the first arc out that still carries flow: a unit through
// the commodity's bypass is a blocked request, any other one circuit.
// A unit that cannot reach its sink is an error, never a dropped request.
func (tr *Transform) decode(flow [][]int64, cost int64) (*Mapping, error) {
	g := tr.G
	m := &Mapping{Cost: cost}
	served := make([]bool, len(tr.reqs))
	var arcs []int
	for c, cm := range tr.comms {
		rem := flow[c]
		for _, first := range g.Out(cm.Source) {
			for rem[first] > 0 {
				arcs = arcs[:0]
				for id := first; ; {
					arcs = append(arcs, id)
					rem[id]--
					v := g.Arcs[id].To
					if v == cm.Sink {
						break
					}
					id = -1
					for _, out := range g.Out(v) {
						if rem[out] > 0 {
							id = out
							break
						}
					}
					if id < 0 {
						return nil, fmt.Errorf("core: commodity %d: a flow unit stops at node %s", c, g.Name(v))
					}
				}
				if err := tr.decodeUnit(m, served, c, arcs); err != nil {
					return nil, err
				}
			}
		}
	}
	for i, r := range tr.reqs {
		if !served[i] {
			m.Blocked = append(m.Blocked, r)
		}
	}
	sortMapping(m)
	return m, nil
}

// decodeUnit records one walked unit of commodity c: request arc first,
// then the bypass (blocked: nothing to record) or link arcs up to a
// resource arc (one assignment).
func (tr *Transform) decodeUnit(m *Mapping, served []bool, c int, arcs []int) error {
	if len(arcs) < 2 || arcs[0] >= len(tr.reqs) {
		return fmt.Errorf("core: commodity %d path does not start with a request arc", c)
	}
	if len(tr.bypass) > 0 && tr.G.Arcs[arcs[1]].To == tr.bypass[c] {
		return nil
	}
	req := tr.reqs[arcs[0]]
	last := arcs[len(arcs)-1] - len(tr.reqs)
	if last < 0 || last >= len(tr.res) {
		return fmt.Errorf("core: commodity %d path does not end with a resource arc", c)
	}
	links := make([]int, 0, len(arcs)-2)
	for _, a := range arcs[1 : len(arcs)-1] {
		if tr.arcLink[a] < 0 {
			return fmt.Errorf("core: commodity %d interior path arc %d has no link", c, a)
		}
		links = append(links, tr.arcLink[a])
	}
	m.Assigned = append(m.Assigned, Assignment{
		Req:     req,
		Res:     tr.res[last],
		Circuit: topology.Circuit{Proc: req.Proc, Res: tr.res[last], Links: links},
	})
	served[arcs[0]] = true
	return nil
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
	tr := build(net, reqs, avail, false, false, false)
	res := maxflow.Dinic(tr.G)
	m, err := tr.MappingFromFlow()
	if err != nil {
		return nil, err
	}
	m.Ops = res.Ops
	m.Solve = SolveStats{Cold: true}
	return m, nil
}

// Planner is a reusable scheduling workspace for hot paths that solve one
// flow problem per cycle for the lifetime of a system (internal/system,
// internal/sched). It holds one whole-fabric arena per network, built on
// first use, and one solver on it (typedState): ScheduleIncremental and
// ScheduleMinCostIncremental's certifying trial are that solver's
// one-commodity case, ScheduleHetero its typed case, and all of them run
// the same grant loop and the same decode. The arena's structure, routing
// table and memory carry over, never its flow, so the mappings are those
// of a fresh planner. ScheduleMinCostIncremental keeps a warm simplex
// basis beside it for the epochs the arena cannot certify. The zero value
// is ready to use. A Planner is not safe for concurrent use; give each
// scheduling shard its own.
//
// The warm methods (ScheduleIncremental, ScheduleMinCostIncremental and a
// ScheduleHetero settled on the arena) decode into a Mapping the planner
// owns, so a solve allocates nothing: the mapping, its Assigned and its
// Blocked are valid until the planner's next solve, and a caller that
// keeps any of them longer copies it. The same decode writes each circuit
// into the planner's path slot for its processor, and the Mapping's
// Circuit.Links view that slot. The next grant to the same processor rewrites it. A
// mapping applied to the network it was solved on stays intact while its
// circuits stand (a standing circuit's processor cannot be granted again).
// A caller that solves without applying, or applies to another network (a
// Clone), must copy the links it keeps before the next solve: otherwise
// they change under it, and a later Release or ForceRelease frees the
// wrong links.
type Planner struct {
	fab *fabricArena // whole-fabric arena; nil until the first arena solve
	ty  *typedState  // the one solver on fab, built with it
	mc  *mcState     // min-cost warm-basis arena; nil until the first simplex solve

	offer []Avail // scratch: a MinCost epoch's top-preference offer (certify)
}

// ScheduleMinCost computes the optimal mapping for a homogeneous MRSIN with
// request priorities and resource preferences (§III-C): the number of
// allocated resources is maximized, and among maximal mappings one of
// minimum total cost (y_max - y_p summed over allocated requests plus
// q_max - q_w over chosen resources) is selected.
func ScheduleMinCost(net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
	return scheduleMinCost(net, reqs, avail, mincost.SuccessiveShortestPaths)
}

// ScheduleMinCostNetworkSimplex is ScheduleMinCost solved with the primal
// network simplex method; results are equivalent in allocation count and
// cost (all three min-cost engines are optimal).
func ScheduleMinCostNetworkSimplex(net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
	return scheduleMinCost(net, reqs, avail, netsimplex.MinCostFlow)
}

// ScheduleMinCostOutOfKilter is ScheduleMinCost solved with Fulkerson's
// out-of-kilter algorithm instead of successive shortest paths; results are
// equivalent in allocation count and cost (both optimal).
func ScheduleMinCostOutOfKilter(net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
	return scheduleMinCost(net, reqs, avail, mincost.OutOfKilter)
}

// scheduleMinCost is the body of the three ScheduleMinCost engines:
// Transformation 2, a minimum-cost flow of value F0 by solve, the decode.
func scheduleMinCost(net *topology.Network, reqs []Request, avail []Avail, solve func(*graph.Network, int64) (mincost.Result, error)) (*Mapping, error) {
	if len(reqs) == 0 {
		return &Mapping{}, nil
	}
	tr := build(net, reqs, avail, false, true, false)
	res, err := solve(tr.G, tr.F0)
	if err != nil {
		// Cannot happen: the bypass guarantees feasibility (Theorem 3).
		return nil, fmt.Errorf("core: min-cost scheduling: %w", err)
	}
	m, err := tr.MappingFromFlow()
	if err != nil {
		return nil, err
	}
	m.Ops = OpCounts{
		Augmentations: res.Ops.Augmentations,
		ArcScans:      res.Ops.ArcScans,
		NodeVisits:    res.Ops.NodeVisits,
	}
	return m, nil
}
