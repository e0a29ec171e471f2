package core

import (
	"fmt"

	"rsin/internal/bitset"
	"rsin/internal/maxflow"
	"rsin/internal/topology"
)

// SolveStats describes how the planner obtained a mapping: via the
// incremental warm-start path, a full cold build, or neither (the
// non-flow disciplines). SolveCounts folds it into the warm-vs-cold and
// multicommodity counters of internal/system and internal/sched.
type SolveStats struct {
	// Warm marks a solve served by the persistent warm-start arena:
	// only the epoch's deltas were applied before augmenting.
	Warm bool `json:"warm,omitempty"`
	// Cold marks a full build-and-solve: either ScheduleMaxFlow's
	// per-cycle Transformation 1, or ScheduleIncremental falling back
	// (first call, topology change, oversized delta, divergence).
	Cold bool `json:"cold,omitempty"`
	// ArcsTouched counts the arcs whose instance membership this
	// epoch's delta sync toggled (warm solves only; a cold build
	// touches everything and reports 0 to keep the metric a delta
	// size).
	ArcsTouched int `json:"arcs_touched,omitempty"`
	// Retractions counts standing-circuit flow paths the delta sync
	// walked back: units released by EndTransmission/EndService/Cancel
	// or severed by hardware faults since the previous epoch.
	Retractions int `json:"retractions,omitempty"`
	// FastPaths counts requests granted by the combinatorial routing
	// fast path — a candidate path from the topology's routing table
	// committed without a flow search. The remainder of the epoch's
	// grants went through Augment's residual search.
	FastPaths int `json:"fast_paths,omitempty"`

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
	WarmSolves, ColdSolves, ArcsTouched, Retractions, FastPaths    int64
	MultiFastPath, MultiSearch, MultiLP, MultiGreedy, MultiRetries int64
	MultiGapUnits                                                  int64
}

// Add counts one solve.
func (c *SolveCounts) Add(sv *SolveStats) {
	c.WarmSolves += int64(btoi(sv.Warm))
	c.ColdSolves += int64(btoi(sv.Cold && !sv.Warm))
	c.ArcsTouched += int64(sv.ArcsTouched)
	c.Retractions += int64(sv.Retractions)
	c.FastPaths += int64(sv.FastPaths)
	c.MultiFastPath += int64(btoi(sv.MultiFastPath))
	c.MultiSearch += int64(btoi(sv.MultiSearch))
	c.MultiLP += int64(btoi(sv.MultiLP))
	c.MultiGreedy += int64(btoi(sv.MultiGreedy))
	c.MultiRetries += int64(sv.MultiRetries)
	c.MultiGapUnits += int64(sv.MultiGap)
}

// standingCircuit is a circuit granted by an earlier incremental solve
// whose unit still stands frozen in the warm arena. The arcs are the
// unit's full flow path (source arc, link arcs, sink arc); the links are
// the topology link IDs of the interior, used to detect release/sever.
type standingCircuit struct {
	res   int
	arcs  []int
	links []int
}

// pathSlots is where a warm planner decodes its circuits: one fixed-width
// slot per processor port in a single slab, so a grant allocates no path.
// The width is one link per stage plus the processor link (NumStages()+1,
// the longest path on every staged fabric) plus the extra arcs the caller
// stores. A slot's capacity is capped, so a longer path on a fabric without
// stages would only move to a slice of its own.
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

func newPathSlots(net *topology.Network, extra int) pathSlots {
	w := net.NumStages() + 1 + extra
	return pathSlots{slab: make([]int, net.Procs*w), width: w}
}

// slot returns processor p's slot, empty with the slot's width as capacity.
func (ps pathSlots) slot(p int) []int {
	lo := p * ps.width
	return ps.slab[lo : lo : lo+ps.width]
}

// incState is the planner's persistent warm-start state: the arena, the
// fixed arc numbering against one topology.Network, the routing table for
// the combinatorial fast path, and the standing circuits of previous
// epochs.
type incState struct {
	net   *topology.Network // identity: the fabric the arena was built for
	epoch uint64            // fault epoch at the last sync (diagnostic)

	w *maxflow.Warm
	// Arc numbering: arc l in [0,Links) is the arc of link l — link
	// arcs come first so the per-epoch want words below line up with
	// whole bitset words — then arc Links+p is the source arc of
	// processor p and arc Links+Procs+r the sink arc of resource r.
	// Node numbering: 0 source, 1 sink, 2+b per box, 2+Boxes+p per
	// processor, 2+Boxes+Procs+r per resource.
	procs, ress, links int

	// rt is the network's combinatorial routing table, nil when the
	// fabric has too many paths per pair to enumerate (then every
	// request takes the flow search).
	rt *topology.RoutingTable
	// pathWords[pathWordOff[j]:pathWordOff[j+1]] is routing path j's
	// interior (link arcs only) as word-granular masks — precomputable
	// because link arcs sit at the bottom of the arc id space, aligned
	// with the state words. A grant-time probe ORs in the request's
	// source and sink bits and costs a few word ops total.
	pathWordOff []int32
	pathWords   []maxflow.PathWord

	standing []standingCircuit // by processor; nil arcs = none
	// slots holds each processor's latest decomposed path (source arc,
	// link arcs, sink arc); standing[p] and the Mapping's circuit view it.
	slots pathSlots

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

	reqMark   []bool             // scratch: processor requests this epoch
	availMark []bool             // scratch: resource free this epoch
	want      bitset.Bits        // scratch: per-arc desired membership this epoch
	wordBuf   []maxflow.PathWord // scratch: fast-path candidate words

	// Per-request residual-word cache: fastPath fetches each state word
	// from the arena at most once per request (one counted ResidualWord),
	// then tests source, sink, and candidate-path bits against the local
	// copy for free — the same word-reuse a hardware monitor register
	// gets. probeGen stamps the cache so invalidation is O(1) per request.
	probeGen uint32
	wordGen  []uint32
	wordVal  []uint64
}

func (st *incState) linkArc(l int) int { return l }
func (st *incState) srcArc(p int) int  { return st.links + p }
func (st *incState) snkArc(r int) int  { return st.links + st.procs + r }

// resOfSnk inverts snkArc.
func (st *incState) resOfSnk(a int) int { return a - st.links - st.procs }

// newIncState builds the arena for a network: every processor, resource,
// switchbox, and link gets its node/arc up front, all arcs disabled. The
// per-epoch sync then toggles membership; the structure itself is never
// rebuilt while the topology identity holds. rt is net's routing table
// (Planner.routingTable), nil for a fabric without one.
func newIncState(net *topology.Network, rt *topology.RoutingTable) *incState {
	st := &incState{
		net:       net,
		procs:     net.Procs,
		ress:      net.Ress,
		links:     len(net.Links),
		rt:        rt,
		standing:  make([]standingCircuit, net.Procs),
		slots:     newPathSlots(net, 2),
		cert:      make([]maxflow.Cut, net.Procs),
		hasCert:   make([]bool, net.Procs),
		certGen:   make([]uint64, net.Procs),
		reqMark:   make([]bool, net.Procs),
		availMark: make([]bool, net.Ress),
	}
	st.w = newFabricArena(net)
	st.want = make(bitset.Bits, st.w.ArcWords())
	st.wordGen = make([]uint32, st.w.ArcWords())
	st.wordVal = make([]uint64, st.w.ArcWords())
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

// routingTable returns net's routing table (nil for a fabric with too many
// paths per pair): the one the planner's typed arena already built for net,
// else a new one. One table serves both arenas of a planner.
func (p *Planner) routingTable(net *topology.Network) *topology.RoutingTable {
	if p.ty.matches(net) && p.ty.s.built {
		return p.ty.s.rt
	}
	return topology.NewRoutingTable(net)
}

// newFabricArena builds the unit-capacity arena over a whole fabric in the
// numbering incState documents (link arcs first, then one source arc per
// processor and one sink arc per resource), every arc disabled. The warm
// max-flow planner and the typed epoch solver both solve on this shape.
func newFabricArena(net *topology.Network) *maxflow.Warm {
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
	return w
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

// matches reports whether the arena still describes this network: same
// object and same shape (links are append-only in topology, and no
// public API grows a built network, but the guard keeps a stale arena
// from silently corrupting a solve).
func (st *incState) matches(net *topology.Network) bool {
	return st != nil && st.net == net &&
		st.procs == net.Procs && st.ress == net.Ress && st.links == len(net.Links)
}

// ScheduleIncremental computes the same optimal mapping as
// ScheduleMaxFlow — the differential suite holds it to allocation-count
// equality with the cold solver and the brute-force oracle — but reuses
// the previous epoch's residual state, applying only this epoch's
// deltas:
//
//   - a new request enables its source arc and lands its unit either by
//     committing a free candidate path from the routing table (the
//     combinatorial fast path) or by augmenting along a residual search;
//   - a released or severed circuit (its links no longer occupied and
//     usable) has its standing unit retracted by walking the decomposed
//     path recorded at grant time;
//   - occupancy and fault changes (keyed off the link states and
//     topology.Network.FaultEpoch advancing on every Fail/Repair)
//     toggle exactly the arcs whose LinkUsable/state changed, compared
//     64 arcs per word against the arena's membership bits.
//
// The full cold rebuild remains the safe fallback: first use, a
// different or reshaped network, a delta set touching more than half
// the arena, or bookkeeping divergence (a retraction or sync that no
// longer matches the arena) all discard the state and rebuild, so a
// warm solve is never trusted past the point it can be cheaply
// validated.
//
// The mapping may differ from ScheduleMaxFlow's in which optimal
// assignment it picks; the allocation count is always equal.
//
// Its circuits' Links view the planner's per-processor path slots: unless
// the mapping is applied to net, copy the links before the next solve
// (see Planner).
func (p *Planner) ScheduleIncremental(net *topology.Network, reqs []Request, avail []Avail) (*Mapping, error) {
	cold := false
	if !p.inc.matches(net) {
		p.inc = newIncState(net, p.routingTable(net))
		cold = true
	}
	m, err := p.inc.solve(net, reqs, avail, cold)
	if err == errIncFallback && !cold {
		// Divergence or oversized delta: rebuild once, solve cold.
		p.inc = newIncState(net, p.inc.rt)
		m, err = p.inc.solve(net, reqs, avail, true)
	}
	if err != nil {
		p.inc = nil // never trust the arena after an error
		return nil, err
	}
	return m, nil
}

// errIncFallback asks ScheduleIncremental to rebuild the arena and
// retry cold. Never escapes the planner.
var errIncFallback = fmt.Errorf("core: incremental state diverged")

// solve runs one epoch: sync deltas, grant new requests (fast path or
// augmenting search), decompose and record the grants. cold marks a
// freshly built arena (counted as a cold solve, delta accounting
// suppressed).
func (st *incState) solve(net *topology.Network, reqs []Request, avail []Avail, cold bool) (*Mapping, error) {
	retractions := 0
	w := st.w

	for _, r := range reqs {
		if r.Proc < 0 || r.Proc >= st.procs {
			return nil, fmt.Errorf("core: request from processor %d out of range [0,%d)", r.Proc, st.procs)
		}
		if st.reqMark[r.Proc] {
			return nil, fmt.Errorf("core: duplicate request from processor %d", r.Proc)
		}
		st.reqMark[r.Proc] = true
	}
	for _, a := range avail {
		if a.Res < 0 || a.Res >= st.ress {
			return nil, fmt.Errorf("core: availability for resource %d out of range [0,%d)", a.Res, st.ress)
		}
		if st.availMark[a.Res] {
			return nil, fmt.Errorf("core: duplicate availability for resource %d", a.Res)
		}
		st.availMark[a.Res] = true
	}
	defer func() {
		for _, r := range reqs {
			if r.Proc >= 0 && r.Proc < st.procs {
				st.reqMark[r.Proc] = false
			}
		}
		for _, a := range avail {
			if a.Res >= 0 && a.Res < st.ress {
				st.availMark[a.Res] = false
			}
		}
	}()

	// Retraction sweep: a standing circuit whose links are no longer all
	// occupied-and-usable has been released (EndTransmission, EndService,
	// Cancel) or severed (ForceRelease after a fault); walk its recorded
	// path and return the units. A standing processor that requests again
	// is the raw-API variant of the same thing: its previous grant is no
	// longer standing from the caller's point of view.
	for proc := range st.standing {
		sc := &st.standing[proc]
		if sc.arcs == nil {
			continue
		}
		live := !st.reqMark[proc]
		if live {
			for _, lid := range sc.links {
				if net.Links[lid].State != topology.LinkOccupied || !net.LinkUsable(lid) {
					live = false
					break
				}
			}
		}
		if live {
			continue
		}
		if err := w.ClearPath(sc.arcs); err != nil {
			return nil, errIncFallback
		}
		retractions++
		sc.arcs, sc.links = nil, nil
	}

	// Membership sync against ground truth, one 64-arc word at a time:
	// assemble the epoch's desired membership into the want scratch bits,
	// then reconcile each word with a single XOR/popcount. After the
	// retraction sweep the invariant is: every arc still carrying flow
	// belongs to a live standing circuit, whose links are occupied — so
	// the sync only ever disables those arcs; a sync that would enable a
	// loaded arc means the bookkeeping diverged and falls back cold.
	st.want.Reset()
	for l := range net.Links {
		if net.Links[l].State == topology.LinkFree && net.LinkUsable(l) {
			st.want.Set(st.linkArc(l))
		}
	}
	for pr := 0; pr < st.procs; pr++ {
		if st.reqMark[pr] {
			st.want.Set(st.srcArc(pr))
		}
	}
	for r := 0; r < st.ress; r++ {
		if st.availMark[r] {
			st.want.Set(st.snkArc(r))
		}
	}
	touched := 0
	tail := bitset.TailMask(w.NumArcs())
	for wi := range st.want {
		mask := ^uint64(0)
		if wi == len(st.want)-1 {
			mask = tail
		}
		changed, ok := w.SyncEnabledWord(wi, st.want[wi], mask)
		if !ok {
			return nil, errIncFallback
		}
		touched += changed
	}
	st.epoch = net.FaultEpoch()

	// Oversized delta: past half the arena the warm bookkeeping buys
	// nothing over a cold build, and a smaller standing state bounds how
	// much a divergence could ever corrupt. (Policy documented in
	// DESIGN.md §12.)
	if !cold && touched > w.NumArcs()/2 {
		return nil, errIncFallback
	}

	// Grant: one attempt per arriving request, in caller order. The
	// routing fast path goes first — probe the table's candidate paths
	// against the arena's idle bits and commit the first fully-free one —
	// and only a conflicted or faulted request pays for Augment's
	// residual search (whose failed sweeps retire nodes for the rest of
	// this solve).
	var ops maxflow.Counters
	fastPaths := 0
	if st.rt != nil {
		st.rt.Refresh()
	}
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
				still = w.CutBlocked(st.cert[r.Proc], &ops)
				memoGen, memoBlocked = g, still
			}
			if still {
				continue // still provably blocked, skip probe and search
			}
			st.hasCert[r.Proc] = false
		}
		switch st.fastPath(r.Proc, &ops) {
		case fastGrant:
			fastPaths++
			memoGen = 0
		case fastMiss:
			if w.Augment(st.srcArc(r.Proc), &ops) {
				memoGen = 0
			} else {
				blocked = append(blocked, r.Proc)
			}
		case fastBlocked:
			// No sink arc has residual capacity, so no augmenting path
			// exists for anyone: skip the doomed search.
		}
	}
	// One cut serves every processor blocked this solve: each of their
	// nodes sits in the final retired set (retirement persists for the
	// whole solve), and CutBlocked validates against live state anyway.
	if len(blocked) > 0 {
		cut := w.BuildCut(&ops)
		st.cutSeq++
		for _, pr := range blocked {
			st.cert[pr] = cut
			st.certGen[pr] = st.cutSeq
			st.hasCert[pr] = true
		}
	}

	// Decompose the new flow into circuits, each into its processor's path
	// slot, and record them standing.
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
		arcs, ok := w.AppendPathFrom(st.slots.slot(r.Proc), src)
		if !ok {
			return nil, fmt.Errorf("core: incremental decomposition failed for processor %d", r.Proc)
		}
		links := arcs[1 : len(arcs)-1 : len(arcs)-1] // link arc l is link l
		for _, lid := range links {
			if lid < 0 || lid >= st.links {
				return nil, fmt.Errorf("core: interior path arc %d has no link", lid)
			}
		}
		res := st.resOfSnk(arcs[len(arcs)-1])
		if res < 0 || res >= st.ress {
			return nil, fmt.Errorf("core: path does not end with a resource arc")
		}
		m.Assigned = append(m.Assigned, Assignment{
			Req:     r,
			Res:     res,
			Circuit: topology.Circuit{Proc: r.Proc, Res: res, Links: links},
		})
		st.standing[r.Proc] = standingCircuit{res: res, arcs: arcs, links: links}
	}
	sortMapping(m)
	m.Ops = OpCounts{
		Augmentations: ops.Augmentations,
		Phases:        ops.Phases,
		ArcScans:      ops.ArcScans,
		NodeVisits:    ops.NodeVisits,
	}
	if cold {
		m.Solve = SolveStats{Cold: true, Retractions: retractions, FastPaths: fastPaths}
	} else {
		m.Solve = SolveStats{Warm: true, ArcsTouched: touched, Retractions: retractions, FastPaths: fastPaths}
	}
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
// word ops per grant, no flow search. Resources are probed starting at a
// processor-dependent rotation ((p*Ress)/Procs) so simultaneous arrivals
// spread across the resource pool instead of contending for resource 0.
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
			if rt.PathDead(j) {
				continue
			}
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
			if w := st.w; w.LoadWords(buf, ops) {
				return fastGrant
			}
		}
	}
	return fastMiss
}
