package core

import (
	"fmt"

	"rsin/internal/bitset"
	"rsin/internal/maxflow"
	"rsin/internal/topology"
)

// SolveStats describes how the planner obtained a mapping: on an arena it
// reused, on one it built, or neither (the non-flow disciplines).
// SolveCounts folds it into the warm-vs-cold and multicommodity counters of
// internal/system and internal/sched.
type SolveStats struct {
	// Warm marks a solve on an arena the planner reused: the max-flow
	// planner's whole-fabric arena, or the MinCost planner's simplex basis.
	Warm bool `json:"warm,omitempty"`
	// Cold marks a solve that built its network: ScheduleMaxFlow's
	// per-cycle Transformation 1, the solve that built the planner's arena
	// (first use, another network), or a MinCost solve that could not
	// reuse its basis.
	Cold bool `json:"cold,omitempty"`
	// ArcsTouched counts the arcs a warm MinCost solve re-priced (a cold
	// build touches everything and reports 0 to keep the metric a delta
	// size). The max-flow planner enables each solve's instance afresh and
	// reports 0, and so does a certified MinCost epoch, which never reaches
	// the simplex.
	ArcsTouched int `json:"arcs_touched,omitempty"`
	// Retractions is always 0: no planner keeps flow between solves, so
	// none walks a released circuit back. The field stays for callers
	// that still read it.
	Retractions int `json:"retractions,omitempty"`
	// FastPaths counts requests granted by the combinatorial routing
	// fast path — a candidate path from the topology's routing table
	// committed without a flow search — in the sweep the mapping came
	// from (none when a typed epoch took the search's schedule). The
	// remainder of the epoch's grants went through Augment's residual
	// search.
	FastPaths int `json:"fast_paths,omitempty"`
	// Certified marks a MinCost epoch settled on the max-flow arena: every
	// request was granted a resource of the top offered preference, which
	// is Theorem 3's optimum, so no simplex ran. Warm, Cold, FastPaths and
	// the Mapping's Ops are then the max-flow arena's.
	Certified bool `json:"certified,omitempty"`

	// Multicommodity epoch accounting (ScheduleHetero only). MultiFastPath
	// marks an epoch committed as *certified optimal*: the sequential
	// per-type max-flow met the combinatorial upper bound (typedState — no
	// LP ran), the routing-table search proved its schedule optimal, or the
	// LP relaxation was certified integral (flows rounded, re-verified
	// legal, objective matched). MultiSearch marks a bound miss the search
	// settled (typedSearch). MultiGreedy marks the fallback: the relaxation
	// came out fractional, and the epoch was served by the sequential
	// per-commodity decomposition. MultiRetries counts the commodity
	// orderings tried beyond the first, on either path. MultiLPBound is the
	// tightest upper bound on integral allocations the epoch computed — the
	// combinatorial bound when it was met, the optimum when the search
	// proved one, else the relaxation objective — and MultiGap the integral
	// units left on the table versus floor(MultiLPBound): zero whenever
	// optimality was certified (fast path or a closed branch-and-bound
	// run). MultiLP marks an epoch that solved the dense LP at all: a bound
	// miss the search could not settle, or the priced discipline.
	MultiFastPath bool    `json:"multi_fast_path,omitempty"`
	MultiSearch   bool    `json:"multi_search,omitempty"`
	MultiGreedy   bool    `json:"multi_greedy,omitempty"`
	MultiRetries  int     `json:"multi_retries,omitempty"`
	MultiLPBound  float64 `json:"multi_lp_bound,omitempty"`
	MultiGap      int     `json:"multi_gap,omitempty"`
	MultiLP       bool    `json:"multi_lp,omitempty"`
}

// SolveCounts is a run of SolveStats folded into additive counters — the
// one decode of a solve's flags, behind internal/system's instruments and
// sched.Stats alike (which documents the fields).
type SolveCounts struct {
	WarmSolves, ColdSolves, ArcsTouched, FastPaths                 int64
	MinCostCertified                                               int64
	MultiFastPath, MultiSearch, MultiLP, MultiGreedy, MultiRetries int64
	MultiGapUnits                                                  int64
}

// Add counts one solve.
func (c *SolveCounts) Add(sv *SolveStats) {
	c.WarmSolves += int64(btoi(sv.Warm))
	c.ColdSolves += int64(btoi(sv.Cold && !sv.Warm))
	c.ArcsTouched += int64(sv.ArcsTouched)
	c.FastPaths += int64(sv.FastPaths)
	c.MinCostCertified += int64(btoi(sv.Certified))
	c.MultiFastPath += int64(btoi(sv.MultiFastPath))
	c.MultiSearch += int64(btoi(sv.MultiSearch))
	c.MultiLP += int64(btoi(sv.MultiLP))
	c.MultiGreedy += int64(btoi(sv.MultiGreedy))
	c.MultiRetries += int64(sv.MultiRetries)
	c.MultiGapUnits += int64(sv.MultiGap)
}

// pathSlots is where a planner decodes its circuits: one fixed-width slot
// per processor port in a single slab, so a grant allocates no path. The
// width is one link per stage plus the processor link (NumStages()+1, the
// longest path on every staged fabric). A slot's capacity is capped, so a
// longer path on a fabric without stages would only move to a slice of its
// own.
//
// A Mapping's Circuit.Links view the slot of the processor it serves, and
// a slot is rewritten only when the planner grants that processor again. A
// caller that Applies the mapping keeps the view intact for as long as the
// circuit stands: its processor link is occupied, so nothing can be granted
// to that processor until the circuit is released. A caller that keeps a
// mapping it never applied must copy the links before the next solve.
type pathSlots struct {
	slab  []int
	width int
}

func newPathSlots(net *topology.Network) pathSlots {
	w := net.NumStages() + 1
	return pathSlots{slab: make([]int, net.Procs*w), width: w}
}

// slot returns processor p's slot, empty with the slot's width as capacity.
func (ps pathSlots) slot(p int) []int {
	lo := p * ps.width
	return ps.slab[lo : lo : lo+ps.width]
}

// fabricArena is a planner's whole-fabric unit-capacity arena, on which
// its one solver (typedState) runs ScheduleIncremental,
// ScheduleMinCostIncremental's certifying trial and ScheduleHetero: every
// processor, resource, switchbox and link gets its node or arc once, when
// the planner first meets the network. No solve keeps flow in it for the
// next. Each solve clears the flow and enables its own instance, so the
// structure, the routing table and the memory carry over, and the mapping
// is a function of the fabric state and the solve's inputs alone
// (DESIGN.md §12).
//
// Arc numbering: arc l in [0,Links) is the arc of link l — link arcs come
// first so the link base lines up with whole bitset words — then arc
// Links+p is the source arc of processor p and arc Links+Procs+r the sink
// arc of resource r. Node numbering: 0 source, 1 sink, 2+b per box,
// 2+Boxes+p per processor, 2+Boxes+Procs+r per resource.
type fabricArena struct {
	net                *topology.Network // identity: the fabric the arena was built for
	procs, ress, links int
	w                  *maxflow.Warm

	base  bitset.Bits // this solve's free and usable link arcs, read off the fabric
	want  bitset.Bits // scratch: the arc membership of one flow step
	slots pathSlots   // per-processor link paths the mappings' circuits view
}

// newFabricArena builds the arena for a network, every arc disabled.
func newFabricArena(net *topology.Network) *fabricArena {
	nBoxes := len(net.Boxes)
	procNode := func(p int) int { return 2 + nBoxes + p }
	resNode := func(r int) int { return 2 + nBoxes + net.Procs + r }
	nodeOf := func(e topology.Endpoint) int {
		switch e.Kind {
		case topology.KindProcessor:
			return procNode(e.Index)
		case topology.KindResource:
			return resNode(e.Index)
		default:
			return 2 + e.Index
		}
	}
	w := maxflow.NewWarm(2+nBoxes+net.Procs+net.Ress, 0, 1)
	for _, l := range net.Links {
		w.AddArc(nodeOf(l.From), nodeOf(l.To))
	}
	for p := 0; p < net.Procs; p++ {
		w.AddArc(0, procNode(p))
	}
	for r := 0; r < net.Ress; r++ {
		w.AddArc(resNode(r), 1)
	}
	return &fabricArena{
		net: net, procs: net.Procs, ress: net.Ress, links: len(net.Links), w: w,
		base:  make(bitset.Bits, w.ArcWords()),
		want:  make(bitset.Bits, w.ArcWords()),
		slots: newPathSlots(net),
	}
}

// matches reports whether the arena still describes this network: same
// object and same shape (links are append-only in topology, and no
// public API grows a built network, but the guard keeps a stale arena
// from silently corrupting a solve).
func (a *fabricArena) matches(net *topology.Network) bool {
	return a != nil && a.net == net &&
		a.procs == net.Procs && a.ress == net.Ress && a.links == len(net.Links)
}

func (a *fabricArena) linkArc(l int) int { return l }
func (a *fabricArena) srcArc(p int) int  { return a.links + p }
func (a *fabricArena) snkArc(r int) int  { return a.links + a.procs + r }

// resOfSnk inverts snkArc.
func (a *fabricArena) resOfSnk(arc int) int { return arc - a.links - a.procs }

// syncLinks rebuilds base from the fabric: the links that are free and,
// under the current faults, usable. Link arcs come first, so base's link
// words are the fabric's own open words (topology.Network.OpenLinks),
// copied whole with the last one's tail masked off; no other arc is ever
// set in base. Nothing about the fabric's state is carried from one solve
// to the next.
func (a *fabricArena) syncLinks(net *topology.Network) {
	if nw := copy(a.base, net.OpenLinks()); nw > 0 {
		a.base[nw-1] &= bitset.TailMask(a.links)
	}
}

// solver returns the planner's one solver, on its whole-fabric arena for
// net, building both when net is not the fabric they were built for.
// built reports a new arena.
func (p *Planner) solver(net *topology.Network) (st *typedState, built bool) {
	if p.fab.matches(net) {
		return p.ty, false
	}
	p.fab = newFabricArena(net)
	p.ty = newTypedState(p.fab)
	return p.ty, true
}

// ScheduleIncremental computes the same optimal mapping as
// ScheduleMaxFlow — the differential suite holds it to allocation-count
// equality with the cold solver and the brute-force oracle — on the
// planner's whole-fabric arena, as the typed solver's one-commodity case
// (oneCommodity): one grant loop over the requests in caller order, each
// skipped by a blocked-request certificate that still holds, committed on
// a free candidate path from the routing table (the combinatorial fast
// path), or else searched for by Augment. Only the arena's structure,
// routing table and memory carry over, with the certificates, which skip
// only searches that would fail — so a long-lived planner returns the
// assignments a fresh one would (its Ops may be lower).
//
// Solve.Cold marks the solve that built the arena (the first on a
// network), Solve.Warm every solve that reused it.
//
// The mapping may differ from ScheduleMaxFlow's in which optimal
// assignment it picks; the allocation count is always equal.
//
// Its circuits' Links view the planner's per-processor path slots: unless
// the mapping is applied to net, copy the links before the next solve
// (see Planner).
func (p *Planner) ScheduleIncremental(net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
	return p.oneCommodity(net, reqs, avail, false)
}

// oneCommodity solves an epoch on the arena as one commodity, request
// and resource types ignored: one sweep of the grant loop, then the
// decode. A trial stops at the first request it cannot grant and returns
// a nil mapping; it allocates nothing then. The mapping's Solve says
// whether the arena was built for it and how many grants the fast path
// made.
func (p *Planner) oneCommodity(net *topology.Network, reqs []Request, avail []Avail, trial bool) (*Mapping, error) {
	st, built := p.solver(net)
	if err := st.index(net, reqs, avail, false); err != nil {
		return nil, err
	}
	total, walked := st.sweep(trial)
	if !walked {
		return nil, fmt.Errorf("core: arena flow decomposition failed")
	}
	if trial && total < len(reqs) {
		return nil, nil
	}
	m, ok := st.decode(net, reqs, avail)
	if !ok {
		return nil, fmt.Errorf("core: arena circuits failed the legality re-check")
	}
	m.Solve = SolveStats{Warm: !built, Cold: built, FastPaths: st.fast}
	return m, nil
}

// appendPathBit ORs arc a into the path word run words[start:],
// appending a new word when a's state word is not present yet. One path
// spans only a few words, so the linear scan is cheap and build-time
// only.
func appendPathBit(words []maxflow.PathWord, start, a int) []maxflow.PathWord {
	wd, bit := int32(a>>6), uint64(1)<<(uint(a)&63)
	for i := start; i < len(words); i++ {
		if words[i].Word == wd {
			words[i].Mask |= bit
			return words
		}
	}
	return append(words, maxflow.PathWord{Word: wd, Mask: bit})
}

// grant is the arena's one grant loop. It routes one commodity by
// max-flow over the free links no frozen unit occupies and returns the
// units it landed, which stay in the arena, and how many of them the
// fast path committed. The commodity is the one tagged only, or with
// only == 0 the merged relaxation: every commodity of st.order except the
// one tagged except (0: none) as one, any of their requests free to take
// any of their resources. The pass's instance is the free links plus the
// source and sink arcs of its commodities (st.inst), ORed in a word at a
// time.
//
// Each request gets one attempt, in caller order: a blocked-request
// certificate that still holds skips it, a free candidate path from the
// routing table commits it without a search (fastPath), and otherwise
// Augment searches the residual (its failed sweeps retire nodes for the
// rest of the pass). One attempt is enough: a source arc with no
// augmenting path now has none after later augmentations either. A full
// pass attempts every request and gives those whose search failed the
// pass's one cut as their certificate. A trial stops at the first request
// it cannot grant and builds no certificate.
//
// Certificates are checked against the arena's live state, so one built
// in any earlier pass, solve or instance is sound; they skip only
// searches that would fail, and never change which units land.
func (st *typedState) grant(only, except int32, trial bool) (n, fast int) {
	w := st.w
	copy(st.want, st.base)
	nSrc, nSnk := 0, 0
	for _, c := range st.order {
		if t := int32(c + 1); t == except || only != 0 && t != only {
			continue
		}
		for i, m := range st.inst[c] {
			st.want[i] |= m
		}
		nSrc, nSnk = nSrc+st.nReq[c], nSnk+st.nRes[c]
	}
	w.EnableIdle(st.want)
	w.BeginSolve()
	// Certificates from the same build are the same cut, so between
	// arena mutations one CutBlocked verdict covers every processor
	// holding that generation. Any grant invalidates the memo: new flow
	// can put reverse residual on an R arc and unblock the cut.
	st.blocked = st.blocked[:0]
	memoGen, memoBlocked := uint64(0), false
	limit := min(nSrc, nSnk)
	for _, p32 := range st.reqProc {
		p := int(p32)
		if n == limit {
			break
		}
		if !st.want.Get(st.srcArc(p)) {
			continue // another commodity's request
		}
		if g := st.certGen[p]; g != 0 {
			still := memoBlocked
			if g != memoGen {
				still = w.CutBlocked(st.cert[p], &st.ops)
				memoGen, memoBlocked = g, still
			}
			if still {
				if trial {
					return n, fast
				}
				continue // still provably blocked, skip probe and search
			}
			st.certGen[p] = 0
		}
		switch st.fastPath(p) {
		case fastGrant:
			n, fast, memoGen = n+1, fast+1, 0
			continue
		case fastMiss:
			if w.Augment(st.srcArc(p), &st.ops) {
				n, memoGen = n+1, 0
				continue
			}
			if !trial {
				st.blocked = append(st.blocked, p)
			}
		case fastBlocked:
			// No sink arc has residual capacity, so no augmenting path
			// exists for anyone: skip the doomed search.
		}
		if trial {
			return n, fast
		}
	}
	// One cut serves every processor blocked this pass: each of their
	// nodes sits in the final retired set (retirement persists for the
	// whole pass), and CutBlocked validates against live state anyway.
	// Each processor keeps its own copy in storage it reuses.
	if len(st.blocked) > 0 {
		st.cut = w.BuildCut(st.cut, &st.ops)
		st.cutSeq++
		for _, p := range st.blocked {
			st.cert[p].F = append(st.cert[p].F[:0], st.cut.F...)
			st.cert[p].R = append(st.cert[p].R[:0], st.cut.R...)
			st.certGen[p] = st.cutSeq
		}
	}
	return n, fast
}

// fastPath verdicts: fastMiss sends the request to the flow search,
// fastGrant means a candidate path committed, fastBlocked means the sink
// is provably unreachable this instant (no sink arc has forward residual
// capacity — every augmenting path ends by crossing one forward, so the
// search cannot succeed either and is skipped).
const (
	fastMiss = iota
	fastGrant
	fastBlocked
)

// residualWord returns the forward-residual mask of state word wi via
// the per-request cache: the first touch of a word in a request pays one
// counted ResidualWord fetch, every later bit test against the copy is
// free. Coherent within a request because the arena only mutates on a
// successful commit, which ends the request.
func (st *typedState) residualWord(wi int) uint64 {
	if st.wordGen[wi] != st.probeGen {
		st.wordVal[wi] = st.w.ResidualWord(wi, &st.ops)
		st.wordGen[wi] = st.probeGen
	}
	return st.wordVal[wi]
}

// fastPath tries to grant processor p's request combinatorially: find a
// free sink arc by word scan, then commit the first candidate path from
// the routing table whose arcs are all enabled and idle — a handful of
// word ops per grant, no flow search. That probe is the fast path's one
// fault check: grant enabled no link arc outside base, the links free and
// usable this solve, so a path over a faulted link reads busy, and so
// does one over a frozen unit of an earlier commodity. Resources are
// probed starting at a processor-dependent rotation ((p*Ress)/Procs) so
// simultaneous arrivals spread across the resource pool instead of
// contending for resource 0.
// On fastMiss the arena is untouched and the caller falls back to the
// flow search.
func (st *typedState) fastPath(p int) int {
	rt := st.rt
	if rt == nil {
		return fastMiss
	}
	st.probeGen++
	if st.probeGen == 0 { // uint32 wrap: flush the stale generation stamps
		clear(st.wordGen)
		st.probeGen = 1
	}
	src := st.srcArc(p)
	if st.residualWord(src>>6)&(1<<(uint(src)&63)) == 0 {
		return fastMiss
	}
	// Free-resource scan: the sink arcs are contiguous at the top of the
	// arc id space, so ress/64 (rounded up) words cover the whole pool;
	// the rotation loop below then tests the same cached words for free.
	snkBase := st.snkArc(0)
	loWord, hiWord := snkBase>>6, (snkBase+st.ress-1)>>6
	anyFree := false
	for wi := loWord; wi <= hiWord; wi++ {
		m := st.residualWord(wi)
		if lo := snkBase - wi<<6; lo > 0 {
			m &^= 1<<uint(lo) - 1
		}
		if top := snkBase + st.ress - wi<<6; top < 64 {
			m &= 1<<uint(top) - 1
		}
		if m != 0 {
			anyFree = true
			break
		}
	}
	if !anyFree {
		return fastBlocked
	}
	start := p * st.ress / st.procs
	for i := 0; i < st.ress; i++ {
		r := start + i
		if r >= st.ress {
			r -= st.ress
		}
		snk := snkBase + r
		if st.residualWord(snk>>6)&(1<<(uint(snk)&63)) == 0 {
			continue
		}
		lo, hi := rt.PairPaths(p, r)
	paths:
		for j := lo; j < hi; j++ {
			pws := st.pathWords[st.pathWordOff[j]:st.pathWordOff[j+1]]
			for _, pw := range pws {
				if st.residualWord(int(pw.Word))&pw.Mask != pw.Mask {
					continue paths
				}
			}
			// Every arc of the candidate read free through counted
			// fetches of this request's snapshot, so the probe is fully
			// paid for; LoadWords commits the unit, revalidating only as
			// an assertion.
			buf := append(st.wordBuf[:0], pws...)
			buf = appendPathBit(buf, 0, src)
			buf = appendPathBit(buf, 0, snk)
			st.wordBuf = buf
			if st.w.LoadWords(buf, &st.ops) {
				return fastGrant
			}
		}
	}
	return fastMiss
}
