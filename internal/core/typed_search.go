package core

import (
	"slices"

	"rsin/internal/bitset"
	"rsin/internal/topology"
)

// searchNodeBudget caps the routing-table search of one typed epoch. A
// search that runs out proves nothing and the epoch goes on to the LP.
const searchNodeBudget = 1 << 13

// typedSearch settles a typed epoch that no sweep order brought to the
// bound. On the restricted fabrics the routing table lists every
// (processor, resource) path — one on an Omega, a handful on a Benes or a
// Clos — so the integral problem is small enough to search outright: depth
// first over the requests, each either taking a free resource of its type
// over a path whose links are all free, usable and unclaimed, or going
// without. The best sweep is the incumbent; a branch is cut when
//
//	n + sum_t min(undecided requests of t, untaken resources of t)
//
// cannot beat it, and the search stops as soon as it reaches the epoch's
// upper bound. A search that reaches the bound, or that runs to the end,
// has proved its schedule optimal; one that exhausts searchNodeBudget has
// not.
//
// Requests are searched fewest open options first, counted at the root
// and ties kept in processor order, so the mapping stays a pure function
// of the epoch's instance.
type typedSearch struct {
	rt    *topology.RoutingTable // nil: the fabric has no routing table
	built bool                   // rt holds what NewRoutingTable returned for the fabric

	commOf []int32     // processor -> commodity tag (typedState.commOf)
	reqs   []int32     // search order: processors of the searchable requests
	opts   []int       // processor -> open (resource, path) options at the root
	resOf  []int32     // commodity c's free resources are resOf[off[c]:off[c+1]]
	off    []int32     // commodity -> offset into resOf
	und    []int       // commodity -> undecided requests
	left   []int       // commodity -> untaken resources
	open   bitset.Bits // link arcs free, usable and unclaimed
	taken  []bool      // resource -> claimed by the partial schedule
	at     []int32     // depth -> routing path taken, -1 skipped
	best   []int32     // the incumbent's at, once the search beats the sweep

	slack     int // sum_c min(und[c], left[c])
	found, ub int // the incumbent's allocations; the epoch's upper bound
	nodes     int // nodes the latest search visited
}

// table returns the fabric's routing table, built on first use.
func (st *typedState) table(net *topology.Network) *topology.RoutingTable {
	if !st.s.built {
		st.s.rt, st.s.built = topology.NewRoutingTable(net), true
	}
	return st.s.rt
}

// search runs the routing-table search from an incumbent of total units
// toward ub. proved reports that the search reached ub or ran to the end;
// improved that it beat the incumbent, whose paths are then in st.s.best.
func (st *typedState) search(total, ub int) (proved, improved bool) {
	s := &st.s
	k := len(st.types)
	s.commOf = st.commOf
	s.off = append(s.off[:0], make([]int32, k+1)...)
	for _, t := range st.resComm {
		if t > 0 {
			s.off[t]++
		}
	}
	for c := 0; c < k; c++ {
		s.off[c+1] += s.off[c]
	}
	s.resOf = append(s.resOf[:0], make([]int32, s.off[k])...)
	s.left = append(s.left[:0], make([]int, k)...)
	for r, t := range st.resComm {
		if t > 0 {
			c := t - 1
			s.resOf[s.off[c]+int32(s.left[c])] = int32(r)
			s.left[c]++
		}
	}
	if len(s.open) != len(st.base) {
		s.open = make(bitset.Bits, len(st.base))
		s.taken = make([]bool, st.ress)
		s.opts = make([]int, st.procs)
	}
	copy(s.open, st.base)
	clear(s.taken)

	s.und = append(s.und[:0], make([]int, k)...)
	s.reqs = s.reqs[:0]
	for p, t := range st.commOf {
		if t == 0 || s.left[t-1] == 0 {
			continue
		}
		s.reqs = append(s.reqs, int32(p))
		s.und[t-1]++
		n := 0
		for _, r := range s.resOf[s.off[t-1]:s.off[t]] {
			lo, hi := s.rt.PairPaths(p, int(r))
			for j := lo; j < hi; j++ {
				if s.free(s.rt.PathLinks(j)) {
					n++
				}
			}
		}
		s.opts[p] = n
	}
	slices.SortStableFunc(s.reqs, func(a, b int32) int { return s.opts[a] - s.opts[b] })
	s.slack = 0
	for c := 0; c < k; c++ {
		s.slack += min(s.und[c], s.left[c])
	}
	s.at = append(s.at[:0], make([]int32, len(s.reqs))...)
	s.best = append(s.best[:0], make([]int32, len(s.reqs))...)
	s.found, s.ub, s.nodes = total, ub, 0

	s.dfs(0, 0)
	return s.nodes <= searchNodeBudget, s.found > total
}

// dfs decides request d onward with n units placed so far. It returns true
// when the search must stop: the bound was reached or the budget ran out.
func (s *typedSearch) dfs(d, n int) bool {
	if s.nodes++; s.nodes > searchNodeBudget {
		return true
	}
	if n > s.found {
		s.found = n
		copy(s.best, s.at[:d])
		for i := d; i < len(s.best); i++ {
			s.best[i] = -1
		}
		if n == s.ub {
			return true
		}
	}
	if d == len(s.reqs) || n+s.slack <= s.found {
		return false
	}
	p := int(s.reqs[d])
	c := int(s.commOf[p] - 1)
	s.decide(c, true)
	for _, r := range s.resOf[s.off[c]:s.off[c+1]] {
		if s.taken[r] {
			continue
		}
		lo, hi := s.rt.PairPaths(p, int(r))
		for j := lo; j < hi; j++ {
			links := s.rt.PathLinks(j)
			if !s.free(links) {
				continue
			}
			s.claim(links, true)
			s.taken[r] = true
			s.at[d] = j
			stop := s.dfs(d+1, n+1)
			s.taken[r] = false
			s.claim(links, false)
			if stop {
				return true
			}
		}
	}
	s.undo(c, true)
	s.decide(c, false)
	s.at[d] = -1
	stop := s.dfs(d+1, n)
	s.undo(c, false)
	return stop
}

// decide moves one undecided request of commodity c out of the slack, with
// a resource taken (took) or without.
func (s *typedSearch) decide(c int, took bool) {
	s.slack -= min(s.und[c], s.left[c])
	s.und[c]--
	if took {
		s.left[c]--
	}
	s.slack += min(s.und[c], s.left[c])
}

// undo reverses decide.
func (s *typedSearch) undo(c int, took bool) {
	s.slack -= min(s.und[c], s.left[c])
	s.und[c]++
	if took {
		s.left[c]++
	}
	s.slack += min(s.und[c], s.left[c])
}

// free reports whether every link of a path is open.
func (s *typedSearch) free(links []int32) bool {
	for _, l := range links {
		if !s.open.Get(int(l)) {
			return false
		}
	}
	return true
}

// claim closes (or, with on false, reopens) every link of a path.
func (s *typedSearch) claim(links []int32, on bool) {
	for _, l := range links {
		s.open.SetTo(int(l), !on)
	}
}

// adoptSearch replaces the recorded circuits with the search's incumbent,
// in the arc-path form the sweep records (source arc, link arcs, sink arc),
// so legal and the decode read it the same way.
func (st *typedState) adoptSearch() {
	s := &st.s
	st.grants = st.grants[:0]
	st.path = st.path[:0]
	for i, j := range s.best {
		if j < 0 {
			continue
		}
		p := int(s.reqs[i])
		links := s.rt.PathLinks(j)
		r := st.net.Links[links[len(links)-1]].To.Index
		lo := len(st.path)
		st.path = append(st.path, st.srcArc(p))
		for _, l := range links {
			st.path = append(st.path, int(l)) // link arc l is link l
		}
		st.path = append(st.path, st.snkArc(r))
		st.grants = append(st.grants, typedGrant{proc: int32(p), lo: int32(lo), hi: int32(len(st.path))})
	}
}
