package core

import (
	"fmt"

	"rsin/internal/netsimplex"
	"rsin/internal/topology"
)

// mcState is the persistent min-cost warm-start arena: the Transformation
// 2 graph of one network, built once with every node and arc the topology
// can ever contribute — a node and request/bypass arc per processor
// (requesting or not), a node and resource arc per resource (free or
// not), an arc per link (occupied or not) — so that successive epochs
// differ only in capacities and costs, never in structure. Each epoch's
// solve hot-starts the network simplex from the all-bypass feasible flow
// and, when the fabric's fault epoch is unchanged, from the previous
// epoch's optimal basis tree (DESIGN.md §13). Like the MaxFlow
// discipline's whole-fabric arena (§12) it keeps structure, never flow:
// the min-cost arena re-prices and re-solves from a trivial flow — the
// warmth is the basis.
type mcState struct {
	net    *topology.Network
	procs  int
	ress   int
	boxes  int
	links  int
	epoch  uint64 // fault epoch at the last solve (mismatch forces a cold basis)
	solved bool   // a previous solve banked a basis worth reusing

	w       *netsimplex.Warm
	reqArc  []int // per processor: s -> p
	bypArc  []int // per processor: p -> u
	resArc  []int // per resource: r -> t
	linkArc []int // per topology link
	bypSink int   // u -> t

	arcLink []int   // arc ID -> topology link, or -1
	arcRes  []int   // arc ID -> resource (resource arcs), or -1
	outArcs [][]int // per node: candidate outgoing arcs for path decoding

	consumed []int // per arc: stamp of the decode pass that used it
	stamp    int
	slots    pathSlots  // per-processor link paths the decode writes circuits into
	out      mappingBuf // the Mapping decode fills and returns

	// Per-solve lookups, valid where the entry's stamp equals syncs.
	syncs      int
	reqPrio    []int64 // per processor: this solve's request priority
	reqStamp   []int
	availPref  []int64 // per resource: this solve's preference
	availStamp []int   // per resource: stamp of the solve offering it
}

func (st *mcState) matches(net *topology.Network) bool {
	return st != nil && st.net == net &&
		st.procs == net.Procs && st.ress == net.Ress &&
		st.boxes == len(net.Boxes) && st.links == len(net.Links)
}

// newMCState builds the arena. Node numbering: 0 = source, 1 = sink,
// 2..2+boxes-1 = switchboxes, then processors, then resources, then the
// bypass node u.
func newMCState(net *topology.Network) *mcState {
	nBoxes := len(net.Boxes)
	boxNode := func(b int) int { return 2 + b }
	procNode := func(p int) int { return 2 + nBoxes + p }
	resNode := func(r int) int { return 2 + nBoxes + net.Procs + r }
	bypass := 2 + nBoxes + net.Procs + net.Ress
	total := bypass + 1

	st := &mcState{
		net:     net,
		procs:   net.Procs,
		ress:    net.Ress,
		boxes:   nBoxes,
		links:   len(net.Links),
		w:       netsimplex.NewWarm(total, 0, 1),
		reqArc:  make([]int, net.Procs),
		bypArc:  make([]int, net.Procs),
		resArc:  make([]int, net.Ress),
		linkArc: make([]int, len(net.Links)),
		outArcs: make([][]int, total),
		slots:   newPathSlots(net),

		reqPrio:    make([]int64, net.Procs),
		reqStamp:   make([]int, net.Procs),
		availPref:  make([]int64, net.Ress),
		availStamp: make([]int, net.Ress),
	}
	nodeOf := func(e topology.Endpoint) int {
		switch e.Kind {
		case topology.KindProcessor:
			return procNode(e.Index)
		case topology.KindResource:
			return resNode(e.Index)
		default:
			return boxNode(e.Index)
		}
	}
	for p := 0; p < net.Procs; p++ {
		st.reqArc[p] = st.w.AddArc(0, procNode(p))
		st.bypArc[p] = st.w.AddArc(procNode(p), bypass)
	}
	for r := 0; r < net.Ress; r++ {
		st.resArc[r] = st.w.AddArc(resNode(r), 1)
	}
	for _, l := range net.Links {
		st.linkArc[l.ID] = st.w.AddArc(nodeOf(l.From), nodeOf(l.To))
	}
	st.bypSink = st.w.AddArc(bypass, 1)

	m := st.w.NumArcs()
	st.arcLink = make([]int, m)
	st.arcRes = make([]int, m)
	for i := range st.arcLink {
		st.arcLink[i], st.arcRes[i] = -1, -1
	}
	for r, id := range st.resArc {
		st.arcRes[id] = r
		st.outArcs[resNode(r)] = append(st.outArcs[resNode(r)], id)
	}
	for lid, id := range st.linkArc {
		st.arcLink[id] = lid
		from := nodeOf(net.Links[lid].From)
		st.outArcs[from] = append(st.outArcs[from], id)
	}
	st.consumed = make([]int, m)
	return st
}

// sync re-prices the arena for one epoch and returns the number of arcs
// whose capacity or cost changed, plus the instance bounds.
func (st *mcState) sync(reqs []Request, avail []Avail) (touched int, err error) {
	yMax, qMax := maxPriorityPreference(reqs, avail)
	base := bypassBaseCost(yMax, qMax)

	st.syncs++
	for i := range reqs {
		r := &reqs[i]
		if r.Proc < 0 || r.Proc >= st.procs {
			return 0, fmt.Errorf("core: request from processor %d outside 0..%d", r.Proc, st.procs-1)
		}
		if st.reqStamp[r.Proc] == st.syncs {
			return 0, fmt.Errorf("core: duplicate request from processor %d", r.Proc)
		}
		st.reqStamp[r.Proc] = st.syncs
		st.reqPrio[r.Proc] = r.Priority
	}
	set := func(id int, cap, cost int64) {
		if st.w.SetArc(id, cap, cost) {
			touched++
		}
	}
	for p := 0; p < st.procs; p++ {
		if st.reqStamp[p] == st.syncs {
			set(st.reqArc[p], 1, yMax-st.reqPrio[p])
			set(st.bypArc[p], 1, base+st.reqPrio[p])
		} else {
			set(st.reqArc[p], 0, 0)
			set(st.bypArc[p], 0, 0)
		}
	}
	for _, a := range avail {
		if a.Res >= 0 && a.Res < st.ress {
			st.availStamp[a.Res] = st.syncs
			st.availPref[a.Res] = a.Preference
		}
	}
	for r := 0; r < st.ress; r++ {
		if st.availStamp[r] == st.syncs {
			set(st.resArc[r], 1, qMax-st.availPref[r])
		} else {
			set(st.resArc[r], 0, 0)
		}
	}
	open := st.net.OpenLinks()
	for l, arc := range st.linkArc {
		if open.Get(l) {
			set(arc, 1, 0)
		} else {
			set(arc, 0, 0)
		}
	}
	set(st.bypSink, int64(len(reqs)), 0)
	return touched, nil
}

// loadBypassFlow loads the trivially feasible all-bypass starting flow:
// every request routed s -> p -> u -> t.
func (st *mcState) loadBypassFlow(reqs []Request) {
	st.w.ResetFlow()
	for i := range reqs {
		p := reqs[i].Proc
		st.w.SetFlow(st.reqArc[p], 1)
		st.w.SetFlow(st.bypArc[p], 1)
	}
	st.w.SetFlow(st.bypSink, int64(len(reqs)))
}

// decode walks the solved flows into a Mapping: a request whose unit
// crossed the bypass is blocked; every other unit traces its unique
// link-disjoint path from the processor to a resource.
func (st *mcState) decode(reqs []Request) (*Mapping, error) {
	granted := 0
	for i := range reqs {
		if st.w.Flow(st.bypArc[reqs[i].Proc]) == 0 {
			granted++
		}
	}
	m := st.out.begin(reqs, granted)
	st.stamp++
	for i := range reqs {
		req := reqs[i]
		p := req.Proc
		if st.w.Flow(st.bypArc[p]) > 0 {
			m.Blocked = append(m.Blocked, req)
			continue
		}
		node := 2 + st.boxes + p // procNode(p)
		links := st.slots.slot(p)
		res := -1
		for hops := 0; res == -1; hops++ {
			if hops > st.links+1 {
				return nil, fmt.Errorf("core: flow decode did not terminate for processor %d", p)
			}
			advanced := false
			for _, id := range st.outArcs[node] {
				if st.w.Flow(id) <= 0 || st.consumed[id] == st.stamp {
					continue
				}
				st.consumed[id] = st.stamp
				if r := st.arcRes[id]; r >= 0 {
					res = r
				} else {
					lid := st.arcLink[id]
					links = append(links, lid)
					to := st.net.Links[lid].To
					switch to.Kind {
					case topology.KindResource:
						node = 2 + st.boxes + st.procs + to.Index
					case topology.KindBox:
						node = 2 + to.Index
					default:
						return nil, fmt.Errorf("core: link %d flows into a processor", lid)
					}
				}
				advanced = true
				break
			}
			if !advanced {
				return nil, fmt.Errorf("core: flow path from processor %d dead-ends", p)
			}
		}
		m.Assigned = append(m.Assigned, Assignment{
			Req:     req,
			Res:     res,
			Circuit: topology.Circuit{Proc: p, Res: res, Links: links},
		})
	}
	sortMapping(m)
	return m, nil
}

// ScheduleMinCostIncremental computes the same optimal prioritized
// mapping as ScheduleMinCost — the differential suites hold it to
// weighted-value equality with the cold engines and the brute-force
// oracle — certified max-flow first, warm-basis simplex otherwise.
//
// It first tries to grant every request a resource of the top offered
// preference on the planner's max-flow arena (certify). When that trial
// grants them all, the mapping reaches Theorem 3's upper bound and is
// returned with Solve.Certified set; no simplex runs. Otherwise it solves
// on a persistent network-simplex arena: per epoch only capacities and
// costs are re-synced, the solve hot-starts from the trivially feasible
// all-bypass flow, and when the fabric's fault epoch is unchanged the
// pivot loop reuses the previous epoch's optimal basis tree. A topology
// change, a fault-epoch advance, or any solver-reported divergence falls
// back to a cold solve (the basis is rebuilt from the all-artificial tree,
// or the instance re-solved one-shot by ScheduleMinCostNetworkSimplex),
// never to a wrong answer.
//
// Its circuits' Links view the planner's per-processor path slots: unless
// the mapping is applied to net, copy the links before the next solve
// (see Planner).
func (p *Planner) ScheduleMinCostIncremental(net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
	if len(reqs) == 0 {
		return &Mapping{}, nil
	}
	if m, err := p.certify(net, reqs, avail); m != nil || err != nil {
		return m, err
	}
	if !p.mc.matches(net) {
		p.mc = newMCState(net)
	}
	st := p.mc
	reuse := st.solved && st.epoch == net.FaultEpoch()
	st.epoch = net.FaultEpoch()

	touched, err := st.sync(reqs, avail)
	if err != nil {
		return nil, err
	}
	st.loadBypassFlow(reqs)
	res, usedBasis, err := st.w.Solve(int64(len(reqs)), reuse)
	if err != nil {
		// Divergence: distrust the arena, re-solve this epoch one-shot.
		st.solved = false
		m, cerr := ScheduleMinCostNetworkSimplex(net, reqs, avail)
		if cerr != nil {
			return nil, fmt.Errorf("core: warm min-cost solve failed (%v); cold fallback: %w", err, cerr)
		}
		m.Solve = SolveStats{Cold: true}
		return m, nil
	}
	st.solved = true

	m, err := st.decode(reqs)
	if err != nil {
		st.solved = false
		return nil, err
	}
	m.Cost = res.Cost
	m.Ops = OpCounts{
		Augmentations: res.Ops.Augmentations,
		ArcScans:      res.Ops.ArcScans,
		NodeVisits:    res.Ops.PotentialUpdates,
	}
	m.Solve = SolveStats{Warm: usedBasis, Cold: !usedBasis}
	if usedBasis {
		m.Solve.ArcsTouched = touched
	}
	return m, nil
}

// certify settles a MinCost epoch on the max-flow arena when it can. Each
// granted pair is worth v(p, r) = base + y_p + q_r - q_max <= base + y_p
// (WeightedValue), so a mapping that grants every request, each onto a
// resource of the top offered preference q_max, reaches the upper bound
// on both of Theorem 3's criteria: it is optimal. certify offers the
// arena's one-commodity trial (oneCommodity) only the avail entries at
// q_max (avail itself when every entry is), and returns nil when the
// offer is smaller than the requests or the trial stops at a request it
// cannot grant; the caller then runs the simplex. A certified mapping's Cost is the Transformation 2 cost the
// simplex would report: sum over requests of y_max - y_p, with no bypass
// and no resource cost.
func (p *Planner) certify(net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
	yMax, qMax := maxPriorityPreference(reqs, avail)
	top := 0
	for _, a := range avail {
		if a.Preference == qMax {
			top++
		}
	}
	if top < len(reqs) {
		return nil, nil
	}
	offer := avail
	if top < len(avail) {
		offer = p.offer[:0]
		for _, a := range avail {
			if a.Preference == qMax {
				offer = append(offer, a)
			}
		}
		p.offer = offer
	}
	m, err := p.oneCommodity(net, reqs, offer, true)
	if m == nil || err != nil {
		return nil, err
	}
	for _, r := range reqs {
		m.Cost += yMax - r.Priority
	}
	m.Solve.Certified = true
	return m, nil
}
