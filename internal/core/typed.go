package core

import (
	"fmt"
	"slices"

	"rsin/internal/bitset"
	"rsin/internal/maxflow"
	"rsin/internal/topology"
)

// typedState is the planner's one solver on its whole-fabric arena
// (fabricArena). Its one-commodity case, every request free to take every
// free resource with types ignored, is the max-flow solve of
// ScheduleIncremental and of ScheduleMinCostIncremental's certifying
// trial: one pass of the grant loop (grant), then the decode. Its typed
// case solves one epoch's multicommodity problem combinatorially — a
// bound first, an exact search over the routing table's paths when no
// sweep meets it (typedSearch), the dense LP of internal/multiflow only
// when the search cannot settle the epoch.
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
// The schedule: route the types one after another, each by the grant loop
// on what the earlier ones left. Earlier types' circuits are frozen
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
// solve clears the arena's flow, and the blocked-request certificates it
// keeps only skip searches that would fail. A long-lived planner and a
// fresh one return the same assignments; their Ops may differ.
type typedState struct {
	*fabricArena

	// The epoch's instance. Commodity c carries type types[c] (typed) or
	// every request (untyped: c = 0 only); a tag is 1+c, with 0 for "none"
	// (and -1 for a free resource nobody asked for).
	typed   bool
	types   []int         // distinct requested types, ascending; {0} untyped
	reqProc []int32       // the requesting processors, in caller order
	inst    []bitset.Bits // commodity -> its requests' source arcs and its resources' sink arcs
	commOf  []int32       // processor -> tag of its request
	reqAt   []int32       // processor -> index of its request in reqs
	resComm []int32       // resource -> tag of the commodity it is offered to
	availAt []int32       // resource -> index of its entry in avail
	nReq    []int         // commodity -> requests
	nRes    []int         // commodity -> free resources

	order   []int // the sweep's commodity order, over commodities with nReq, nRes > 0
	shipped []int // commodity -> units the latest sweep shipped
	alone   []int // commodity -> F_c, its max-flow with the fabric to itself

	// The latest sweep's circuits: grant g of processor proc is the arc path
	// path[lo:hi], source arc first, sink arc last; fast of them came by the
	// fast path.
	grants  []typedGrant
	path    []int
	fast    int
	grantOf []int32    // processor -> 1 + index into grants, 0 = blocked
	out     mappingBuf // the Mapping decode fills and returns

	// The best sweep's circuits while later orders are tried.
	keptGrants []typedGrant
	keptPath   []int
	keptFast   int

	s typedSearch // the routing-table search behind a missed bound

	// rt is the network's routing table, which the fast path probes and
	// the search walks; nil when the fabric has too many paths per pair to
	// enumerate (then every request takes the flow search, and a missed
	// bound the LP). It is wiring only: faults reach the probe through
	// base, never through rt.
	rt *topology.RoutingTable
	// pathWords[pathWordOff[j]:pathWordOff[j+1]] is routing path j's
	// interior (link arcs only) as word-granular masks — precomputable
	// because link arcs sit at the bottom of the arc id space, aligned
	// with the state words. A grant-time probe ORs in the request's
	// source and sink bits and costs a few word ops total.
	pathWordOff []int32
	pathWords   []maxflow.PathWord
	wordBuf     []maxflow.PathWord // scratch: fast-path candidate words

	// Per-request residual-word cache: fastPath fetches each state word
	// from the arena at most once per request (one counted ResidualWord),
	// then tests source, sink, and candidate-path bits against the local
	// copy for free — the same word-reuse a hardware monitor register
	// gets. probeGen stamps the cache so invalidation is O(1) per request.
	probeGen uint32
	wordGen  []uint32
	wordVal  []uint64

	// Blocked-request certificates: after a pass with failed searches,
	// every blocked processor keeps a copy of the pass's one cut of the
	// final retired region (maxflow.Cut). While the cut still checks out
	// against live arena state, a repeat request from p is provably
	// still blocked for a few word ops instead of a re-search. certGen
	// tags which build a processor's cert came from (0: it has none), so
	// one pass checks each cut at most once between state changes.
	cert    []maxflow.Cut
	certGen []uint64
	cutSeq  uint64
	cut     maxflow.Cut // scratch: the latest pass's cut
	blocked []int       // scratch: the processors whose search failed this pass

	linkAt, resAt []uint32 // legality scratch, stamp-cleared
	stamp         uint32
	ops           maxflow.Counters
}

type typedGrant struct{ proc, lo, hi int32 }

// newTypedState readies the solver on an arena and builds the network's
// routing table.
func newTypedState(a *fabricArena) *typedState {
	st := &typedState{
		fabricArena: a,
		commOf:      make([]int32, a.procs),
		reqAt:       make([]int32, a.procs),
		grantOf:     make([]int32, a.procs),
		resComm:     make([]int32, a.ress),
		availAt:     make([]int32, a.ress),
		resAt:       make([]uint32, a.ress),
		linkAt:      make([]uint32, a.links),
		rt:          topology.NewRoutingTable(a.net),
		cert:        make([]maxflow.Cut, a.procs),
		certGen:     make([]uint64, a.procs),
		wordGen:     make([]uint32, a.w.ArcWords()),
		wordVal:     make([]uint64, a.w.ArcWords()),
	}
	if st.rt != nil {
		st.pathWordOff = make([]int32, 1, st.rt.NumPaths()+1)
		for j := 0; j < st.rt.NumPaths(); j++ {
			start := len(st.pathWords)
			for _, lid := range st.rt.PathLinks(int32(j)) {
				st.pathWords = appendPathBit(st.pathWords, start, st.linkArc(int(lid)))
			}
			st.pathWordOff = append(st.pathWordOff, int32(len(st.pathWords)))
		}
	}
	return st
}

// index starts a solve: it files the epoch's requests and free resources
// under dense commodity numbers — one per requested type, or typed false
// a single one — validating processor and resource ranges and
// duplicates, and reads the free and usable links off the fabric.
func (st *typedState) index(net *topology.Network, reqs []Request, avail []Avail, typed bool) error {
	clear(st.commOf)
	clear(st.resComm)
	st.reqProc = st.reqProc[:0]
	st.typed = typed
	st.types = st.types[:0]
	if !typed {
		st.types = append(st.types, 0)
	}
	for _, r := range reqs {
		if r.Proc < 0 || r.Proc >= st.procs {
			return fmt.Errorf("core: request from processor %d out of range [0,%d)", r.Proc, st.procs)
		}
		if !typed {
			continue
		}
		if i, found := slices.BinarySearch(st.types, r.Type); !found {
			st.types = slices.Insert(st.types, i, r.Type)
		}
	}
	k := len(st.types)
	st.nReq = zeroed(st.nReq, k)
	st.nRes = zeroed(st.nRes, k)
	st.shipped = zeroed(st.shipped, k)
	st.alone = zeroed(st.alone, k)
	for len(st.inst) < k {
		st.inst = append(st.inst, make(bitset.Bits, st.w.ArcWords()))
	}
	for _, m := range st.inst[:k] {
		m.Reset()
	}
	for i, r := range reqs {
		if st.commOf[r.Proc] != 0 {
			return fmt.Errorf("core: duplicate request from processor %d", r.Proc)
		}
		c := 0
		if typed {
			c, _ = slices.BinarySearch(st.types, r.Type)
		}
		st.commOf[r.Proc] = int32(c + 1)
		st.reqAt[r.Proc] = int32(i)
		st.reqProc = append(st.reqProc, int32(r.Proc))
		st.inst[c].Set(st.srcArc(r.Proc))
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
		c, found := 0, true
		if typed {
			c, found = slices.BinarySearch(st.types, a.Type)
		}
		if found {
			st.resComm[a.Res] = int32(c + 1)
			st.inst[c].Set(st.snkArc(a.Res))
			st.nRes[c]++
		}
	}
	st.order = st.order[:0]
	for c := 0; c < k; c++ {
		if st.nReq[c] > 0 && st.nRes[c] > 0 {
			st.order = append(st.order, c)
		}
	}
	st.syncLinks(net)
	st.ops = maxflow.Counters{}
	return nil
}

// zeroed returns s resized to n zeroed elements, reusing its storage when
// it is large enough. Unlike append(s[:0], make([]T, n)...), it allocates
// nothing under the race detector either.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// sweep routes the commodities one at a time in st.order by the grant
// loop, each frozen before the next starts, recording every circuit. It
// returns the units shipped; ok is false when a unit could not be walked
// back to a path. A trial sweep stops each commodity at its first request
// it cannot grant.
func (st *typedState) sweep(trial bool) (total int, ok bool) {
	st.w.ClearFlow()
	st.grants = st.grants[:0]
	st.path = st.path[:0]
	st.fast = 0
	for _, c := range st.order {
		tag := int32(c + 1)
		n, fast := st.grant(tag, 0, trial)
		st.shipped[c] = n
		st.fast += fast
		total += n
		// Decompose now: the next step disables these arcs.
		for _, p32 := range st.reqProc {
			p := int(p32)
			if st.commOf[p] != tag || !st.w.Flow(st.srcArc(p)) {
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
			f, _ = st.grant(int32(c+1), 0, false)
		}
		st.alone[c] = f
		ub += f
	}
	k := len(st.order)
	if total < ub && k > 1 {
		st.w.ClearFlow()
		merged, _ := st.grant(0, 0, false)
		ub = min(ub, merged)
	}
	for i := 0; total < ub && k > 2 && i < k; i++ {
		c := st.order[i]
		st.w.ClearFlow()
		rest, _ := st.grant(0, int32(c+1), false)
		ub = min(ub, st.alone[c]+rest)
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
// caller's inputs, not against the arena's flow: each runs over links
// free and usable this solve (base, read off the fabric) that no other
// circuit uses, contiguously from its processor to a free resource nobody
// else got, of the type the processor asked for (typed epochs only). It
// is the same guard multiflow.CheckLegal is for the LP path (joint unit
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
			st.typed && avail[st.availAt[r]].Type != reqs[st.reqAt[p]].Type {
			return false
		}
		st.resAt[r] = st.stamp
		at := topology.Endpoint{Kind: topology.KindProcessor, Index: p}
		for _, l := range arcs[1 : len(arcs)-1] {
			if l < 0 || l >= st.links || st.linkAt[l] == st.stamp || !st.base.Get(l) {
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
	if err := st.index(net, reqs, avail, true); err != nil {
		return nil, false, err
	}
	total, walked := st.sweep(false)
	ub := st.bound(total)
	best, attempts := total, 1
	for walked && total < ub && st.nextOrder(attempts) {
		if total == best {
			st.keep()
		}
		total, walked = st.sweep(false)
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
		if st.rt == nil {
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
	if m, ok = st.decode(net, reqs, avail); !ok {
		return nil, false, nil
	}
	m.Solve = SolveStats{FastPaths: st.fast, MultiFastPath: true, MultiSearch: searched, MultiRetries: attempts - 1, MultiLPBound: float64(best)}
	return m, true, nil
}

// decode is the one decode of an arena mapping, whichever case solved
// it: once legal has re-checked the recorded circuits against the fabric
// (ok false when it refuses them), each circuit's links go into its
// processor's path slot, and the mapping comes out in processor order.
func (st *typedState) decode(net *topology.Network, reqs []Request, avail []Avail) (m *Mapping, ok bool) {
	if !st.legal(net, reqs, avail) {
		return nil, false
	}
	for _, p := range st.reqProc {
		st.grantOf[p] = 0
	}
	for i, g := range st.grants {
		st.grantOf[g.proc] = int32(i + 1)
	}
	m = st.out.begin(reqs, len(st.grants))
	for _, req := range reqs {
		p := req.Proc
		if st.grantOf[p] == 0 {
			m.Blocked = append(m.Blocked, req)
			continue
		}
		g := st.grants[st.grantOf[p]-1]
		arcs := st.path[g.lo:g.hi]
		res := st.resOfSnk(arcs[len(arcs)-1])
		links := append(st.slots.slot(p), arcs[1:len(arcs)-1]...) // link arc l is link l
		m.Assigned = append(m.Assigned, Assignment{
			Req:     req,
			Res:     res,
			Circuit: topology.Circuit{Proc: p, Res: res, Links: links},
		})
	}
	sortMapping(m)
	m.Ops = st.ops
	return m, true
}

// keep swaps the recorded circuits with the kept ones: it sets the latest
// sweep aside before the next one overwrites it, and brings it back.
func (st *typedState) keep() {
	st.grants, st.keptGrants = st.keptGrants, st.grants
	st.path, st.keptPath = st.keptPath, st.path
	st.fast, st.keptFast = st.keptFast, st.fast
}
