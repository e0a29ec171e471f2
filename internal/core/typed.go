package core

import (
	"fmt"
	"slices"

	"rsin/internal/bitset"
	"rsin/internal/maxflow"
	"rsin/internal/topology"
)

// typedState is the planner's arena for heterogeneous (typed) epochs: the
// whole-fabric unit-capacity arena of the warm max-flow planner, on which
// one epoch's multicommodity problem is solved combinatorially — a bound
// first, an exact search over the routing table's paths when no sweep
// meets it (typedSearch), the dense LP of internal/multiflow only when
// the search cannot settle the epoch.
//
// The bound: in any multicommodity flow, fractional or integral, the part
// carried for type t is by itself a feasible single-commodity flow from
// t's requests to t's resources, so it ships at most F_t, the max-flow of
// type t alone on the free fabric. UB = sum_t F_t therefore bounds the LP
// relaxation as well as every schedule. Merging types is a relaxation
// too — partition the types into groups and let any request of a group
// take any resource of it: the groups' max-flows sum to a bound as well,
// the tighter one when types contend for one cut. Two such partitions are
// tried, and only while the first sweep is short of sum_t F_t: all types
// in one group, then each type against the rest merged.
//
// The schedule: route the types one after another, each by max-flow on
// what the earlier ones left. Earlier types' circuits are frozen
// (maxflow.Warm.EnableIdle) rather than left in the residual: an
// augmenting path that cancelled another type's unit would splice one
// type's request onto the other type's resource. The outcome depends on
// the order, so orders are retried (all of them up to three types, then
// reverse, starved-first and rotations) until one ships UB units. A sweep
// that reaches the bound is optimal by the argument above; it is decoded,
// re-checked for legality against the fabric itself and committed. A
// missed bound proves nothing either way: the best sweep becomes the
// search's incumbent, and a search that settles the epoch is committed
// the same way. Only a fabric with no routing table, or a search out of
// nodes, falls through to the LP chain (scheduleHeteroLP).
//
// The mapping is a pure function of (fabric state, reqs, avail): every
// solve clears the arena's flow, only its memory is reused. A long-lived
// planner and a fresh one return identical mappings.
type typedState struct {
	net                *topology.Network // identity: the fabric the arena was built for
	procs, ress, links int
	w                  *maxflow.Warm // numbering of newFabricArena

	base bitset.Bits // this epoch's free and usable link arcs, read off the fabric every solve
	want bitset.Bits // scratch: the membership of one commodity step

	// The epoch's instance. Commodity c carries type types[c]; a tag is
	// 1+c, with 0 for "none" (and -1 for a free resource nobody asked for).
	types   []int   // distinct requested types, ascending
	commOf  []int32 // processor -> tag of its request
	reqAt   []int32 // processor -> index of its request in reqs
	resComm []int32 // resource -> tag of the commodity it is offered to
	availAt []int32 // resource -> index of its entry in avail
	nReq    []int   // commodity -> requests
	nRes    []int   // commodity -> free resources

	order   []int // the sweep's commodity order, over commodities with nReq, nRes > 0
	shipped []int // commodity -> units the latest sweep shipped
	alone   []int // commodity -> F_c, its max-flow with the fabric to itself

	// The latest sweep's circuits: grant g of processor proc is the arc path
	// path[lo:hi], source arc first, sink arc last.
	grants  []typedGrant
	path    []int
	grantOf []int32   // processor -> 1 + index into grants, 0 = blocked
	slots   pathSlots // per-processor link paths the mapping's circuits view

	// The best sweep's circuits while later orders are tried.
	keptGrants []typedGrant
	keptPath   []int

	s typedSearch // the routing-table search behind a missed bound

	linkAt, resAt []uint32 // legality scratch, stamp-cleared
	stamp         uint32
	ops           maxflow.Counters
}

type typedGrant struct{ proc, lo, hi int32 }

func newTypedState(net *topology.Network) *typedState {
	w := newFabricArena(net)
	return &typedState{
		net: net, procs: net.Procs, ress: net.Ress, links: len(net.Links), w: w,
		base:    make(bitset.Bits, w.ArcWords()),
		want:    make(bitset.Bits, w.ArcWords()),
		commOf:  make([]int32, net.Procs),
		reqAt:   make([]int32, net.Procs),
		grantOf: make([]int32, net.Procs),
		resComm: make([]int32, net.Ress),
		availAt: make([]int32, net.Ress),
		resAt:   make([]uint32, net.Ress),
		linkAt:  make([]uint32, len(net.Links)),
		slots:   newPathSlots(net, 0),
	}
}

func (st *typedState) matches(net *topology.Network) bool {
	return st != nil && st.net == net &&
		st.procs == net.Procs && st.ress == net.Ress && st.links == len(net.Links)
}

func (st *typedState) srcArc(p int) int { return st.links + p }
func (st *typedState) snkArc(r int) int { return st.links + st.procs + r }

// index files the epoch's requests and free resources under dense
// commodity numbers.
func (st *typedState) index(reqs []Request, avail []Avail) error {
	clear(st.commOf)
	clear(st.resComm)
	st.types = st.types[:0]
	for _, r := range reqs {
		if r.Proc < 0 || r.Proc >= st.procs {
			return fmt.Errorf("core: request from processor %d out of range [0,%d)", r.Proc, st.procs)
		}
		if i, found := slices.BinarySearch(st.types, r.Type); !found {
			st.types = slices.Insert(st.types, i, r.Type)
		}
	}
	k := len(st.types)
	st.nReq = append(st.nReq[:0], make([]int, k)...)
	st.nRes = append(st.nRes[:0], make([]int, k)...)
	st.shipped = append(st.shipped[:0], make([]int, k)...)
	st.alone = append(st.alone[:0], make([]int, k)...)
	for i, r := range reqs {
		if st.commOf[r.Proc] != 0 {
			return fmt.Errorf("core: duplicate request from processor %d", r.Proc)
		}
		c, _ := slices.BinarySearch(st.types, r.Type)
		st.commOf[r.Proc] = int32(c + 1)
		st.reqAt[r.Proc] = int32(i)
		st.nReq[c]++
	}
	for i, a := range avail {
		if a.Res < 0 || a.Res >= st.ress {
			return fmt.Errorf("core: availability for resource %d out of range [0,%d)", a.Res, st.ress)
		}
		if st.resComm[a.Res] != 0 {
			return fmt.Errorf("core: duplicate availability for resource %d", a.Res)
		}
		st.availAt[a.Res] = int32(i)
		st.resComm[a.Res] = -1
		if c, found := slices.BinarySearch(st.types, a.Type); found {
			st.resComm[a.Res] = int32(c + 1)
			st.nRes[c]++
		}
	}
	st.order = st.order[:0]
	for c := 0; c < k; c++ {
		if st.nReq[c] > 0 && st.nRes[c] > 0 {
			st.order = append(st.order, c)
		}
	}
	return nil
}

// syncLinks rebuilds base from the fabric: the links that are free and,
// under the current faults, usable. Nothing about the fabric's state is
// carried from one solve to the next.
func (st *typedState) syncLinks(net *topology.Network) {
	st.base.Reset()
	for l := range net.Links {
		if net.Links[l].State == topology.LinkFree && net.LinkUsable(l) {
			st.base.Set(l)
		}
	}
}

// ship routes one commodity by max-flow over the free links no frozen unit
// occupies and returns the units it landed; they stay in the arena. The
// commodity is the one tagged only, or with only == 0 the merged
// relaxation: every commodity of st.order except the one tagged except
// (0: none) as one, any of their requests free to take any of their
// resources. One augmenting attempt per request is enough: a source arc
// with no augmenting path now has none after later augmentations either.
func (st *typedState) ship(only, except int32) int {
	take := func(t int32) bool {
		return t > 0 && t != except && (only == 0 || t == only) && st.nRes[t-1] > 0
	}
	copy(st.want, st.base)
	nSrc, nSnk := 0, 0
	for p, t := range st.commOf {
		if take(t) {
			st.want.Set(st.srcArc(p))
			nSrc++
		}
	}
	for r, t := range st.resComm {
		if take(t) {
			st.want.Set(st.snkArc(r))
			nSnk++
		}
	}
	st.w.EnableIdle(st.want)
	st.w.BeginSolve()
	n, limit := 0, min(nSrc, nSnk)
	for p, t := range st.commOf {
		if n == limit {
			break
		}
		if take(t) && st.w.Augment(st.srcArc(p), &st.ops) {
			n++
		}
	}
	return n
}

// sweep routes the commodities one at a time in st.order, each frozen
// before the next starts, recording every circuit. It returns the units
// shipped; ok is false when a unit could not be walked back to a path.
func (st *typedState) sweep() (total int, ok bool) {
	st.w.ClearFlow()
	st.grants = st.grants[:0]
	st.path = st.path[:0]
	for _, c := range st.order {
		tag := int32(c + 1)
		n := st.ship(tag, 0)
		st.shipped[c] = n
		total += n
		// Decompose now: the next step disables these arcs.
		for p, t := range st.commOf {
			if t != tag || !st.w.Flow(st.srcArc(p)) {
				continue
			}
			lo := len(st.path)
			if st.path, ok = st.w.AppendPathFrom(st.path, st.srcArc(p)); !ok {
				return total, false
			}
			st.grants = append(st.grants, typedGrant{proc: int32(p), lo: int32(lo), hi: int32(len(st.path))})
		}
	}
	return total, true
}

// bound returns the upper bound on the epoch's allocations, given that
// the first sweep (st.order ascending) shipped total units. A commodity
// the sweep served to its census limit min(requests, resources), and the
// sweep's first commodity, already shipped their F_c; the others get
// their own max-flow on the empty fabric. While the sweep is short of
// the bound, merged relaxations tighten it: the types partitioned into
// groups, each group routed as one commodity, bound the optimum too —
// first all in one group, then each commodity against the rest merged.
func (st *typedState) bound(total int) int {
	ub := 0
	for i, c := range st.order {
		f := st.shipped[c]
		if i > 0 && f < min(st.nReq[c], st.nRes[c]) {
			st.w.ClearFlow()
			f = st.ship(int32(c+1), 0)
		}
		st.alone[c] = f
		ub += f
	}
	k := len(st.order)
	if total < ub && k > 1 {
		st.w.ClearFlow()
		ub = min(ub, st.ship(0, 0))
	}
	for i := 0; total < ub && k > 2 && i < k; i++ {
		c := st.order[i]
		st.w.ClearFlow()
		ub = min(ub, st.alone[c]+st.ship(0, int32(c+1)))
	}
	return ub
}

// nextOrder advances st.order to the commodity order of the given attempt
// (attempt 0 was ascending) and reports whether there was one left. Up to
// three commodities every permutation is tried, in lexicographic order;
// beyond that the reverse order, the commodities the latest sweep starved
// (shipped below their F_c) ahead of the rest, then the rotations.
func (st *typedState) nextOrder(attempt int) bool {
	k := len(st.order)
	if k <= 3 {
		return nextPermutation(st.order)
	}
	slices.Sort(st.order)
	switch {
	case attempt == 1:
		slices.Reverse(st.order)
	case attempt == 2:
		slices.SortStableFunc(st.order, func(a, b int) int {
			return btoi(st.shipped[b] < st.alone[b]) - btoi(st.shipped[a] < st.alone[a])
		})
	case attempt-2 < k:
		rot := attempt - 2
		slices.Reverse(st.order[:rot])
		slices.Reverse(st.order[rot:])
		slices.Reverse(st.order)
	default:
		return false
	}
	return true
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// nextPermutation rearranges a into its lexicographic successor and
// reports false (leaving a ascending) when a was the last permutation.
func nextPermutation(a []int) bool {
	i := len(a) - 2
	for i >= 0 && a[i] >= a[i+1] {
		i--
	}
	if i < 0 {
		slices.Reverse(a)
		return false
	}
	j := len(a) - 1
	for a[j] <= a[i] {
		j--
	}
	a[i], a[j] = a[j], a[i]
	slices.Reverse(a[i+1:])
	return true
}

// legal re-checks the recorded circuits against the fabric and the
// caller's inputs, not against the arena: each runs over free, usable
// links no other circuit uses, contiguously from its processor to a free
// resource nobody else got, of the type the processor asked for. It is
// the same guard multiflow.CheckLegal is for the LP path (joint unit
// capacity, conservation, each commodity absorbed by its own sink).
func (st *typedState) legal(net *topology.Network, reqs []Request, avail []Avail) bool {
	st.stamp++
	if st.stamp == 0 {
		clear(st.linkAt)
		clear(st.resAt)
		st.stamp = 1
	}
	for _, g := range st.grants {
		arcs := st.path[g.lo:g.hi]
		p := int(g.proc)
		if len(arcs) < 3 || arcs[0] != st.srcArc(p) {
			return false
		}
		r := arcs[len(arcs)-1] - st.snkArc(0)
		if r < 0 || r >= st.ress || st.resComm[r] == 0 || st.resAt[r] == st.stamp ||
			avail[st.availAt[r]].Type != reqs[st.reqAt[p]].Type {
			return false
		}
		st.resAt[r] = st.stamp
		at := topology.Endpoint{Kind: topology.KindProcessor, Index: p}
		for _, l := range arcs[1 : len(arcs)-1] {
			if l < 0 || l >= st.links || st.linkAt[l] == st.stamp ||
				net.Links[l].State != topology.LinkFree || !net.LinkUsable(l) {
				return false
			}
			st.linkAt[l] = st.stamp
			if from := net.Links[l].From; from.Kind != at.Kind || from.Index != at.Index {
				return false
			}
			at = net.Links[l].To
		}
		if at.Kind != topology.KindResource || at.Index != r {
			return false
		}
	}
	return true
}

// solve runs one typed epoch: bound first, search next. ok is false when
// no order reached the bound and the routing-table search could not settle
// the epoch either (the fabric has no table, or the search ran out of
// nodes), or when the re-check refused the circuits: nothing is known about
// optimality then and the caller falls through to the LP.
func (st *typedState) solve(net *topology.Network, reqs []Request, avail []Avail) (m *Mapping, ok bool, err error) {
	if err := st.index(reqs, avail); err != nil {
		return nil, false, err
	}
	st.syncLinks(net)
	st.ops = maxflow.Counters{}

	total, walked := st.sweep()
	ub := st.bound(total)
	best, attempts := total, 1
	for walked && total < ub && st.nextOrder(attempts) {
		if total == best {
			st.keep()
		}
		total, walked = st.sweep()
		best = max(best, total)
		attempts++
	}
	if !walked {
		return nil, false, nil
	}
	if total < best {
		st.keep() // back to the best sweep
	}
	searched := false
	if best < ub {
		if st.table(net) == nil {
			return nil, false, nil
		}
		proved, improved := st.search(best, ub)
		if !proved {
			return nil, false, nil
		}
		if improved {
			st.adoptSearch()
			best = st.s.found
		}
		searched = true
	}
	if !st.legal(net, reqs, avail) {
		return nil, false, nil
	}

	// Decode straight into the mapping, in processor order.
	clear(st.grantOf)
	for i, g := range st.grants {
		st.grantOf[g.proc] = int32(i + 1)
	}
	m = sizedMapping(reqs, len(st.grants))
	for p, t := range st.commOf {
		if t == 0 {
			continue
		}
		req := reqs[st.reqAt[p]]
		if st.grantOf[p] == 0 {
			m.Blocked = append(m.Blocked, req)
			continue
		}
		g := st.grants[st.grantOf[p]-1]
		arcs := st.path[g.lo:g.hi]
		res := arcs[len(arcs)-1] - st.snkArc(0)
		links := append(st.slots.slot(p), arcs[1:len(arcs)-1]...) // link arc l is link l
		m.Assigned = append(m.Assigned, Assignment{
			Req:     req,
			Res:     res,
			Circuit: topology.Circuit{Proc: p, Res: res, Links: links},
		})
	}
	m.Ops = OpCounts{
		Augmentations: st.ops.Augmentations,
		Phases:        st.ops.Phases,
		ArcScans:      st.ops.ArcScans,
		NodeVisits:    st.ops.NodeVisits,
	}
	m.Solve = SolveStats{MultiFastPath: true, MultiSearch: searched, MultiRetries: attempts - 1, MultiLPBound: float64(best)}
	return m, true, nil
}

// keep swaps the recorded circuits with the kept ones: it sets the latest
// sweep aside before the next one overwrites it, and brings it back.
func (st *typedState) keep() {
	st.grants, st.keptGrants = st.keptGrants, st.grants
	st.path, st.keptPath = st.keptPath, st.path
}
