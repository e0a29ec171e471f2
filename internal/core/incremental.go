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
	// committed without a flow search. The remainder of the epoch's
	// grants went through Augment's residual search.
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
// ScheduleIncremental, ScheduleHetero and ScheduleMinCostIncremental's
// certifying trial all solve: every processor, resource, switchbox and
// link gets its node or arc once, when the planner first meets the
// network. No solver keeps flow in it from one solve to the next. Each
// solve clears the flow and enables its own instance, so
// the structure, the routing table and the memory carry over, and the
// mapping is a function of the fabric state and the solve's inputs alone
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

	// routes is the network's combinatorial routing table, built on first
	// use (routing); nil when the fabric has too many paths per pair to
	// enumerate.
	routes      *topology.RoutingTable
	routesBuilt bool

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

// routing returns the network's routing table, building it on first use.
func (a *fabricArena) routing() *topology.RoutingTable {
	if !a.routesBuilt {
		a.routes, a.routesBuilt = topology.NewRoutingTable(a.net), true
	}
	return a.routes
}

// syncLinks rebuilds base from the fabric: the links that are free and,
// under the current faults, usable. Nothing about the fabric's state is
// carried from one solve to the next.
func (a *fabricArena) syncLinks(net *topology.Network) {
	a.base.Reset()
	for l := range net.Links {
		if net.Links[l].State == topology.LinkFree && net.LinkUsable(l) {
			a.base.Set(a.linkArc(l))
		}
	}
}

// arena returns the planner's whole-fabric arena for net, building a new
// one when net is not the fabric it was built for; the solver state tied
// to the old arena goes with it. built reports a new arena.
func (p *Planner) arena(net *topology.Network) (a *fabricArena, built bool) {
	if p.fab.matches(net) {
		return p.fab, false
	}
	p.fab, p.inc, p.ty = newFabricArena(net), nil, nil
	return p.fab, true
}

// incState is the max-flow solver's state on the planner's arena: the
// blocked-request certificates and the routing fast path's probe cache.
type incState struct {
	*fabricArena

	// rt is the routing table the fast path probes, nil when the fabric
	// has none (then every request takes the flow search). It is wiring
	// only: faults reach the probe through base, never through rt.
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

	// Blocked-request certificates: after a solve with failed searches,
	// every blocked processor shares the solve's one cut of the final
	// retired region (maxflow.Cut). While the cut still checks out
	// against live arena state, a repeat request from p is provably
	// still blocked for a few word ops instead of a re-search. certGen
	// tags which build a processor's cert came from, so one solve checks
	// each shared cut at most once between state changes.
	cert    []maxflow.Cut
	hasCert []bool
	certGen []uint64
	cutSeq  uint64

	arcs []int // scratch: the arc path of the circuit being decoded
}

// newIncState readies the max-flow solver on an arena, building the
// arena's routing table if no solve has yet.
func newIncState(a *fabricArena) *incState {
	st := &incState{
		fabricArena: a,
		rt:          a.routing(),
		cert:        make([]maxflow.Cut, a.procs),
		hasCert:     make([]bool, a.procs),
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

// ScheduleIncremental computes the same optimal mapping as
// ScheduleMaxFlow — the differential suite holds it to allocation-count
// equality with the cold solver and the brute-force oracle — on the
// planner's whole-fabric arena. Every solve starts from an empty flow:
// it enables the free and usable links, this solve's source arcs and the
// free resources' sink arcs, then grants each request in caller order —
// a blocked-request certificate that still holds skips it, a free
// candidate path from the routing table commits it without a search (the
// combinatorial fast path), and otherwise Augment searches the residual.
// Only the arena's structure, routing table and memory carry over, with
// the certificates, which skip only searches that would fail — so a
// long-lived planner returns the mapping a fresh one would.
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
	st, built := p.incremental(net)
	var ops maxflow.Counters
	fastPaths, _, err := st.grant(net, reqs, avail, false, &ops)
	if err != nil {
		return nil, err
	}
	m, err := st.decode(reqs)
	if err != nil {
		return nil, err
	}
	m.Ops = ops
	m.Solve = SolveStats{Warm: !built, Cold: built, FastPaths: fastPaths}
	return m, nil
}

// incremental returns the max-flow solver on the planner's arena for net;
// built reports an arena built by this call.
func (p *Planner) incremental(net *topology.Network) (st *incState, built bool) {
	a, built := p.arena(net)
	if p.inc == nil {
		p.inc = newIncState(a)
	}
	return p.inc, built
}

// grant runs one epoch's flow on an emptied arena: enable the instance,
// then make one attempt per request in caller order (certificate, fast
// path or augmenting search), and return the fast-path grants. A full
// solve attempts every request and leaves the blocked ones the epoch's
// cut. A trial stops at the first request it cannot grant, reports
// stopped, and builds no certificate, so a failed trial allocates nothing.
func (st *incState) grant(net *topology.Network, reqs []Request, avail []Avail, trial bool, ops *maxflow.Counters) (fastPaths int, stopped bool, err error) {
	w := st.w
	st.syncLinks(net)
	copy(st.want, st.base)
	for _, r := range reqs {
		if r.Proc < 0 || r.Proc >= st.procs {
			return 0, false, fmt.Errorf("core: request from processor %d out of range [0,%d)", r.Proc, st.procs)
		}
		if st.want.Get(st.srcArc(r.Proc)) {
			return 0, false, fmt.Errorf("core: duplicate request from processor %d", r.Proc)
		}
		st.want.Set(st.srcArc(r.Proc))
	}
	for _, a := range avail {
		if a.Res < 0 || a.Res >= st.ress {
			return 0, false, fmt.Errorf("core: availability for resource %d out of range [0,%d)", a.Res, st.ress)
		}
		if st.want.Get(st.snkArc(a.Res)) {
			return 0, false, fmt.Errorf("core: duplicate availability for resource %d", a.Res)
		}
		st.want.Set(st.snkArc(a.Res))
	}
	w.ClearFlow()
	w.EnableIdle(st.want)

	// Grant: one attempt per arriving request, in caller order. The
	// routing fast path goes first — probe the table's candidate paths
	// against the arena's idle bits and commit the first fully-free one —
	// and only a conflicted or faulted request pays for Augment's
	// residual search (whose failed sweeps retire nodes for the rest of
	// this solve).
	w.BeginSolve()
	// Certificates from the same build are the same cut, so between
	// arena mutations one CutBlocked verdict covers every processor
	// holding that generation. Any grant invalidates the memo: new flow
	// can put reverse residual on an R arc and unblock the cut.
	var blocked []int
	memoGen, memoBlocked := uint64(0), false
	for _, r := range reqs {
		if st.hasCert[r.Proc] {
			still := memoBlocked
			if g := st.certGen[r.Proc]; g != memoGen {
				still = w.CutBlocked(st.cert[r.Proc], ops)
				memoGen, memoBlocked = g, still
			}
			if still {
				if trial {
					return fastPaths, true, nil
				}
				continue // still provably blocked, skip probe and search
			}
			st.hasCert[r.Proc] = false
		}
		switch st.fastPath(r.Proc, ops) {
		case fastGrant:
			fastPaths++
			memoGen = 0
			continue
		case fastMiss:
			if w.Augment(st.srcArc(r.Proc), ops) {
				memoGen = 0
				continue
			}
			if !trial {
				blocked = append(blocked, r.Proc)
			}
		case fastBlocked:
			// No sink arc has residual capacity, so no augmenting path
			// exists for anyone: skip the doomed search.
		}
		if trial {
			return fastPaths, true, nil
		}
	}
	// One cut serves every processor blocked this solve: each of their
	// nodes sits in the final retired set (retirement persists for the
	// whole solve), and CutBlocked validates against live state anyway.
	if len(blocked) > 0 {
		cut := w.BuildCut(ops)
		st.cutSeq++
		for _, pr := range blocked {
			st.cert[pr] = cut
			st.certGen[pr] = st.cutSeq
			st.hasCert[pr] = true
		}
	}
	return fastPaths, false, nil
}

// decode decomposes the granted flow into circuits, each into its
// processor's path slot.
func (st *incState) decode(reqs []Request) (*Mapping, error) {
	w := st.w
	granted := 0
	for _, r := range reqs {
		if w.Flow(st.srcArc(r.Proc)) {
			granted++
		}
	}
	m := sizedMapping(reqs, granted)
	for _, r := range reqs {
		src := st.srcArc(r.Proc)
		if !w.Flow(src) {
			m.Blocked = append(m.Blocked, r)
			continue
		}
		arcs, ok := w.AppendPathFrom(st.arcs[:0], src)
		if !ok {
			return nil, fmt.Errorf("core: incremental decomposition failed for processor %d", r.Proc)
		}
		st.arcs = arcs
		res := st.resOfSnk(arcs[len(arcs)-1])
		links := append(st.slots.slot(r.Proc), arcs[1:len(arcs)-1]...) // link arc l is link l
		m.Assigned = append(m.Assigned, Assignment{
			Req:     r,
			Res:     res,
			Circuit: topology.Circuit{Proc: r.Proc, Res: res, Links: links},
		})
	}
	sortMapping(m)
	return m, nil
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
func (st *incState) residualWord(wi int, ops *maxflow.Counters) uint64 {
	if st.wordGen[wi] != st.probeGen {
		st.wordVal[wi] = st.w.ResidualWord(wi, ops)
		st.wordGen[wi] = st.probeGen
	}
	return st.wordVal[wi]
}

// fastPath tries to grant processor p's request combinatorially: find a
// free sink arc by word scan, then commit the first candidate path from
// the routing table whose arcs are all enabled and idle — a handful of
// word ops per grant, no flow search. That probe is the fast path's one
// fault check: grant enabled no link arc outside base, the links free and
// usable this solve, so a path over a faulted link reads busy. Resources
// are probed starting at a processor-dependent rotation ((p*Ress)/Procs)
// so simultaneous arrivals spread across the resource pool instead of
// contending for resource 0.
// On fastMiss the arena is untouched and the caller falls back to the
// flow search.
func (st *incState) fastPath(p int, ops *maxflow.Counters) int {
	rt := st.rt
	if rt == nil {
		return fastMiss
	}
	st.probeGen++
	if st.probeGen == 0 { // uint32 wrap: flush the stale generation stamps
		for i := range st.wordGen {
			st.wordGen[i] = 0
		}
		st.probeGen = 1
	}
	src := st.srcArc(p)
	if st.residualWord(src>>6, ops)&(1<<(uint(src)&63)) == 0 {
		return fastMiss
	}
	// Free-resource scan: the sink arcs are contiguous at the top of the
	// arc id space, so ress/64 (rounded up) words cover the whole pool;
	// the rotation loop below then tests the same cached words for free.
	snkBase := st.snkArc(0)
	loWord, hiWord := snkBase>>6, (snkBase+st.ress-1)>>6
	anyFree := false
	for wi := loWord; wi <= hiWord; wi++ {
		m := st.residualWord(wi, ops)
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
		if st.residualWord(snk>>6, ops)&(1<<(uint(snk)&63)) == 0 {
			continue
		}
		lo, hi := rt.PairPaths(p, r)
	paths:
		for j := lo; j < hi; j++ {
			pws := st.pathWords[st.pathWordOff[j]:st.pathWordOff[j+1]]
			for _, pw := range pws {
				if st.residualWord(int(pw.Word), ops)&pw.Mask != pw.Mask {
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
			if st.w.LoadWords(buf, ops) {
				return fastGrant
			}
		}
	}
	return fastMiss
}
