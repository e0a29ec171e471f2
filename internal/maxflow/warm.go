package maxflow

import (
	"fmt"

	"rsin/internal/bitset"
)

// Warm is a reusable unit-capacity residual network for solving one
// max-flow instance per scheduling epoch on a fixed structure. Unlike the
// per-solve residual built by Dinic/FordFulkerson from a graph.Network, a
// Warm arena is built once for a fixed node/arc structure, and each solve
// reuses its adjacency and memory, not its flow:
//
//   - ClearFlow empties the arena, and EnableIdle sets the instance: the
//     arcs of the solve's free links, requests and free resources. A
//     sequential multicommodity sweep calls EnableIdle again per
//     commodity, freezing the units of the commodities before it.
//   - Augment advances one unit of flow from the source through a chosen
//     source arc: one request's grant by residual search.
//   - ResidualWord and LoadWords probe and commit a caller-chosen
//     fully-idle path a word at a time: the combinatorial routing fast
//     path that skips search entirely.
//   - BuildCut and CutBlocked certify a failed search cheaply, so a
//     request still blocked in a later solve skips it.
//   - AppendPathFrom decomposes the solve's flow into paths.
//
// Every arc has unit capacity — exactly the networks Transformation 1
// produces — so per-arc enabled and flow state are single bits, packed
// into bitset words: residual capacity tests are one AND/ANDNOT, and
// EnableIdle sets 64 memberships per word op. Adjacency is CSR — each
// node's residual arc ids contiguous in one int32 array — so augmenting
// searches are cache-linear.
//
// A disabled arc contributes no residual capacity in either direction
// even while it carries flow. That is how a caller freezes a circuit: it
// leaves the unit in place and disables its arcs, and no later
// augmentation can reroute it (the arena's form of step (T3) of
// Transformation 1: occupied links leave the flow problem entirely).
//
// # Operation-counter convention
//
// Warm counts work exactly like the cold solvers (pinned by
// TestOpsCounterParity): ArcScans increments once per residual arc whose
// state is examined — including the chosen source arc — and NodeVisits
// increments once per node whose adjacency is expanded, which excludes the sink (the
// sink's adjacency is never scanned). Warm-vs-cold work ratios and the
// ops-per-task CI gates are therefore apples-to-apples. The word-granular
// primitives (ResidualWord, BuildCut, CutBlocked) count one ArcScan per word
// examined, not per arc bit: the paper's §IV cost model charges
// "instructions executed", and one word op inspecting 64 arc states is
// one instruction — that discount is precisely the win the bitset layout
// buys.
//
// Warm is not safe for concurrent use; give each scheduling shard its
// own.
type Warm struct {
	source, sink int

	to []int32 // head node of residual arc id (2i forward, 2i+1 reverse)

	// CSR adjacency over residual arc ids, rebuilt lazily after AddArc.
	off   []int32
	adj   []int32
	dirty bool

	enabled bitset.Bits // per logical arc: member of the current instance
	flow    bitset.Bits // per logical arc: one unit in flight
	nArcs   int

	// Per-solve scratch, stamp-cleared so a solve never iterates the
	// whole arena to reset state. stamp advances once per sweep; solve is
	// the stamp BeginSolve pinned, shared by every sweep of that solve.
	stamp   uint32
	solve   uint32
	seenAt  []uint32 // node visited in the current DFS sweep
	deadAt  []uint32 // node retired for the current solve (cannot reach sink)
	usedAt  []uint32 // arc consumed by the current solve's decomposition
	sweep   []int32  // DFS stack scratch (arc ids of the current path)
	visited []int32  // nodes touched by the current sweep, for dead marking

	// Word-granular mirror of the retired set, kept by retire() so a
	// blocked-request certificate assembles in O(arc words): bit a of
	// deadTail/deadHead says arc a's tail/head node is retired this
	// solve. tailWords/headWords are the static per-node incident-arc
	// masks (built with the CSR), srcTail the static mask of source
	// arcs (exempt from certificates — sweeps never re-enter the
	// source).
	deadTail  []uint64
	deadHead  []uint64
	srcTail   []uint64
	tailWords [][]PathWord
	headWords [][]PathWord
}

// NewWarm returns an arena with the given node count, source and sink and
// no arcs. Arcs are added once with AddArc and start disabled.
func NewWarm(nodes, source, sink int) *Warm {
	if nodes < 2 || source == sink || source < 0 || sink < 0 || source >= nodes || sink >= nodes {
		panic(fmt.Sprintf("maxflow: NewWarm(%d, %d, %d)", nodes, source, sink))
	}
	return &Warm{
		source: source,
		sink:   sink,
		off:    make([]int32, nodes+1),
		seenAt: make([]uint32, nodes),
		deadAt: make([]uint32, nodes),
	}
}

// AddArc appends a unit-capacity arc from u to v (disabled, no flow) and
// returns its logical arc id. Structure is append-only: deltas disable
// arcs rather than remove them.
func (w *Warm) AddArc(u, v int) int {
	if u < 0 || u >= w.numNodes() || v < 0 || v >= w.numNodes() || u == v {
		panic(fmt.Sprintf("maxflow: Warm.AddArc(%d, %d) with %d nodes", u, v, w.numNodes()))
	}
	id := w.nArcs
	w.to = append(w.to, int32(v), int32(u))
	if id&63 == 0 {
		w.enabled = append(w.enabled, 0)
		w.flow = append(w.flow, 0)
	}
	w.usedAt = append(w.usedAt, 0)
	w.nArcs++
	w.dirty = true
	return id
}

func (w *Warm) numNodes() int { return len(w.off) - 1 }

// ensureCSR (re)builds the CSR adjacency after structural changes:
// counting sort of the residual arc ids by tail node, exactly like the
// cold residual's reset.
func (w *Warm) ensureCSR() {
	if !w.dirty {
		return
	}
	n := w.numNodes()
	m := 2 * w.nArcs
	if cap(w.adj) < m {
		w.adj = make([]int32, m)
	} else {
		w.adj = w.adj[:m]
	}
	for i := range w.off {
		w.off[i] = 0
	}
	for a := 0; a < w.nArcs; a++ {
		w.off[w.to[2*a+1]+1]++ // forward arc 2a leaves Tail(a)
		w.off[w.to[2*a]+1]++   // reverse arc 2a+1 leaves Head(a)
	}
	for v := 0; v < n; v++ {
		w.off[v+1] += w.off[v]
	}
	for a := 0; a < w.nArcs; a++ {
		tail, head := w.to[2*a+1], w.to[2*a]
		w.adj[w.off[tail]] = int32(2 * a)
		w.off[tail]++
		w.adj[w.off[head]] = int32(2*a + 1)
		w.off[head]++
	}
	for v := n; v > 0; v-- {
		w.off[v] = w.off[v-1]
	}
	w.off[0] = 0

	// Static incident-arc masks for the word-granular retired-set mirror.
	w.tailWords = make([][]PathWord, n)
	w.headWords = make([][]PathWord, n)
	w.srcTail = make([]uint64, len(w.enabled))
	for a := 0; a < w.nArcs; a++ {
		tail, head := int(w.to[2*a+1]), int(w.to[2*a])
		w.tailWords[tail] = appendCutBit(w.tailWords[tail], a)
		w.headWords[head] = appendCutBit(w.headWords[head], a)
		if tail == w.source {
			w.srcTail[a>>6] |= 1 << (uint(a) & 63)
		}
	}
	w.dirty = false
}

// arcsOf returns node v's residual adjacency as a contiguous CSR slice.
func (w *Warm) arcsOf(v int) []int32 { return w.adj[w.off[v]:w.off[v+1]] }

// ArcWords reports the number of 64-arc state words (for EnableIdle
// callers sizing their membership bitsets).
func (w *Warm) ArcWords() int { return len(w.enabled) }

// Flow reports whether arc a carries a unit of flow.
func (w *Warm) Flow(a int) bool { return w.flow.Get(a) }

// Tail reports the tail node of arc a.
func (w *Warm) Tail(a int) int { return int(w.to[2*a+1]) }

// Head reports the head node of arc a.
func (w *Warm) Head(a int) int { return int(w.to[2*a]) }

// ClearFlow drops every unit in the arena, loaded or frozen, leaving
// membership alone. It starts a solve that must be a pure function of its
// instance: the arena's memory is reused, its flow is not.
func (w *Warm) ClearFlow() { w.flow.Reset() }

// EnableIdle sets the instance membership to the arcs of want that carry
// no flow: right after ClearFlow, a solve's whole instance; later, one
// commodity step of a sequential multicommodity sweep. Units already in
// the arena — the circuits of earlier commodities — land on
// disabled arcs and are thereby frozen (see the type comment): the next
// Augment calls can neither reuse their capacity nor cancel them through a
// reverse residual arc, which across commodities would splice one type's
// request onto another type's resource. want must hold ArcWords() words.
func (w *Warm) EnableIdle(want bitset.Bits) {
	for i := range w.enabled {
		w.enabled[i] = want[i] &^ w.flow[i]
	}
}

// residual reports whether residual arc id has capacity: forward when the
// logical arc is enabled and idle, reverse when it is enabled and loaded.
func (w *Warm) residual(id int32) bool {
	a := int(id >> 1)
	word, bit := a>>6, uint64(1)<<(uint(a)&63)
	if id&1 == 0 {
		return w.enabled[word]&^w.flow[word]&bit != 0
	}
	return w.enabled[word]&w.flow[word]&bit != 0
}

// BeginSolve starts a new solve: dead-node retirement and decomposition
// consumption from previous solves are discarded in O(1).
func (w *Warm) BeginSolve() {
	w.ensureCSR()
	// One solve consumes up to nArcs+2 stamps (one per sweep plus the
	// decomposition); renumber well before uint32 wraparound.
	if w.stamp > ^uint32(0)-uint32(w.nArcs)-8 {
		for i := range w.seenAt {
			w.seenAt[i], w.deadAt[i] = 0, 0
		}
		for i := range w.usedAt {
			w.usedAt[i] = 0
		}
		w.stamp = 0
	}
	w.stamp++
	w.solve = w.stamp
	if len(w.deadTail) != len(w.enabled) {
		w.deadTail = make([]uint64, len(w.enabled))
		w.deadHead = make([]uint64, len(w.enabled))
	}
	for i := range w.deadTail {
		w.deadTail[i], w.deadHead[i] = 0, 0
	}
}

// retire marks node v dead for the current solve and mirrors the fact
// into the word-granular incident-arc masks (uncounted bookkeeping, like
// the deadAt stamp itself).
func (w *Warm) retire(v int32, solve uint32) {
	w.deadAt[v] = solve
	for _, pw := range w.tailWords[v] {
		w.deadTail[pw.Word] |= pw.Mask
	}
	for _, pw := range w.headWords[v] {
		w.deadHead[pw.Word] |= pw.Mask
	}
}

// PathWord selects a set of logical arcs inside one 64-arc state word:
// the word-granular path representation of the routing fast path.
// Callers with a static arc numbering (internal/core packs every link
// arc word-aligned at the bottom of the id space) precompute each
// candidate path's words once, so a grant-time probe is a handful of
// word ops regardless of path length.
type PathWord struct {
	Word int32
	Mask uint64
}

// LoadWords loads one unit onto the arcs selected by words, counting the
// Augmentation but no ArcScans: it is the commit half of a probe the
// caller already paid for — every selected arc verified forward-residual
// through counted ResidualWord reads of these same words, with no arena
// mutation since (internal/core's fast path caches residual words per
// request for exactly this split). The §IV cost model charges the
// monitor's examinations once; the revalidation here is a software
// assertion against caller bugs, not modeled work — on any mismatch
// nothing changes and LoadWords returns false, sending the caller to the
// counted search.
func (w *Warm) LoadWords(words []PathWord, c *Counters) bool {
	for _, pw := range words {
		if w.enabled[pw.Word]&^w.flow[pw.Word]&pw.Mask != pw.Mask {
			return false
		}
	}
	for _, pw := range words {
		w.flow[pw.Word] |= pw.Mask
	}
	c.Augmentations++
	return true
}

// ResidualWord returns the enabled-and-idle mask of state word wi — 64
// forward-residual arc bits in one op, counted as one ArcScan. The fast
// path uses it to locate a free sink arc without probing resources one
// at a time.
func (w *Warm) ResidualWord(wi int, c *Counters) uint64 {
	c.ArcScans++
	return w.enabled[wi] &^ w.flow[wi]
}

// Cut is the word-granular certificate of a failed augmentation: the
// arcs crossing out of the retired set S the failed sweep proved cannot
// reach the sink. F selects graph arcs from S to outside (blocked while
// none is enabled-and-idle); R selects graph arcs from outside into S
// (blocked while none is enabled-and-loaded, i.e. no reverse residual
// re-enters... leaves S). While both hold, no residual arc leaves S, so
// the source arcs into S still cannot reach the sink — the caller skips
// the whole search for a handful of word ops. Arcs touching the source
// node are exempt: the source is pre-seeded as seen by every sweep, so
// no augmenting path escapes through it.
type Cut struct {
	F []PathWord
	R []PathWord
}

// BuildCut captures the current solve's retired set as a Cut, assembled
// from the word-granular dead mirrors in one pass over the state words
// (charged one ArcScan per word, like every word-granular op). Call it
// after a solve whose Augment calls failed; the certificate stays
// checkable across later solves and epochs — CutBlocked reads live
// state, so the certificate never goes unsound, it only starts
// reporting false once the fabric changes enough. The cut is built in
// dst's storage, so a caller that recycles its scratch cut allocates
// nothing once the buffers have grown.
func (w *Warm) BuildCut(dst Cut, c *Counters) Cut {
	cut := Cut{F: dst.F[:0], R: dst.R[:0]}
	for wi := range w.deadTail {
		c.ArcScans++
		f := w.deadTail[wi] &^ w.deadHead[wi]
		r := w.deadHead[wi] &^ w.deadTail[wi] &^ w.srcTail[wi]
		if f != 0 {
			cut.F = append(cut.F, PathWord{Word: int32(wi), Mask: f})
		}
		if r != 0 {
			cut.R = append(cut.R, PathWord{Word: int32(wi), Mask: r})
		}
	}
	return cut
}

func appendCutBit(words []PathWord, a int) []PathWord {
	wd, bit := int32(a>>6), uint64(1)<<(uint(a)&63)
	if n := len(words); n > 0 && words[n-1].Word == wd {
		words[n-1].Mask |= bit
		return words
	}
	return append(words, PathWord{Word: wd, Mask: bit})
}

// CutBlocked reports whether the certificate still proves blockage
// against the arena's current state: every F arc non-residual forward
// (not enabled-and-idle) and every R arc non-residual reverse (not
// enabled-and-loaded). One ArcScan per word examined. A false result
// says nothing except that the cheap proof failed — the caller falls
// back to the fast path or the search.
func (w *Warm) CutBlocked(cut Cut, c *Counters) bool {
	for _, pw := range cut.F {
		c.ArcScans++
		if w.enabled[pw.Word]&^w.flow[pw.Word]&pw.Mask != 0 {
			return false
		}
	}
	for _, pw := range cut.R {
		c.ArcScans++
		if w.enabled[pw.Word]&w.flow[pw.Word]&pw.Mask != 0 {
			return false
		}
	}
	return true
}

// Augment tries to advance one unit from the source through source arc
// src to the sink with a depth-first search over the residual, the
// per-arrival delta of warm-start scheduling. It reports whether a unit
// landed, updating flow along the augmenting path (which may cancel flow
// on reverse residual arcs, rerouting earlier units of this solve).
//
// Nodes proven unable to reach the sink by a failed sweep are retired
// for the remainder of the solve: once a sweep fails, no residual arc
// leaves its visited set, and later augmentations cannot create one —
// any augmenting path entering the set could never leave it to reach the
// sink, so the paths of later sweeps avoid the set and never touch its
// incident arcs. This is the warm-start analogue of Dinic's per-phase
// node retirement. (LoadWords preserves the argument: committed paths
// are residual-available end to end, so they never touch a retired set
// and never create a residual arc leaving one.)
func (w *Warm) Augment(src int, c *Counters) bool {
	w.ensureCSR()
	solve := w.solve
	c.ArcScans++
	if !w.enabled.Get(src) || w.flow.Get(src) {
		return false
	}
	if w.Tail(src) != w.source {
		panic(fmt.Sprintf("maxflow: Warm.Augment(%d): arc does not leave the source", src))
	}
	// Fresh stamp for this sweep's seen set; dead marks (== solve) persist.
	w.stamp++
	sweepSeen := w.stamp
	w.seenAt[w.source] = sweepSeen // never route back through the source
	w.visited = w.visited[:0]
	start := w.Head(src)
	if w.deadAt[start] == solve {
		return false
	}
	w.sweep = w.sweep[:0]
	if !w.dfs(start, sweepSeen, solve, c) {
		// Failed sweep: everything it saw is cut off from the sink.
		for _, v := range w.visited {
			w.retire(v, solve)
		}
		return false
	}
	w.flow.Set(src)
	for _, id := range w.sweep {
		w.flow.SetTo(int(id>>1), id&1 == 0) // forward arcs load, reverse arcs unload
	}
	c.Augmentations++
	return true
}

// dfs extends the current sweep from node v; on success w.sweep holds the
// residual arc ids of the path from the sweep's start to the sink.
func (w *Warm) dfs(v int, sweepSeen, solve uint32, c *Counters) bool {
	if v == w.sink {
		return true
	}
	c.NodeVisits++
	w.seenAt[v] = sweepSeen
	w.visited = append(w.visited, int32(v))
	for _, id := range w.arcsOf(v) {
		c.ArcScans++
		if !w.residual(id) {
			continue
		}
		next := int(w.to[id])
		if w.seenAt[next] == sweepSeen || w.deadAt[next] == solve {
			continue
		}
		w.sweep = append(w.sweep, id)
		if w.dfs(next, sweepSeen, solve, c) {
			return true
		}
		w.sweep = w.sweep[:len(w.sweep)-1]
	}
	return false
}

// AppendPathFrom walks the flow unit entering through source arc src to
// the sink and appends the logical arc ids of its path to dst, src first,
// sink arc last, so a caller can decompose into storage it reuses. Arcs
// are consumed per solve so repeated calls decompose a multi-unit flow
// into disjoint paths (at a node carrying several units the pairing of in-
// to out-arcs is arbitrary, which is exactly the freedom flow
// decomposition has). Only enabled arcs are walked: frozen (disabled) flow
// from earlier epochs is invisible here. Returns false, with dst
// unextended, on a conservation violation, which indicates arena
// corruption.
func (w *Warm) AppendPathFrom(dst []int, src int) ([]int, bool) {
	w.ensureCSR()
	solve := w.solve
	if !w.enabled.Get(src) || !w.flow.Get(src) || w.usedAt[src] == solve {
		return dst, false
	}
	w.usedAt[src] = solve
	base := len(dst)
	dst = append(dst, src)
	v := w.Head(src)
	for v != w.sink {
		found := false
		for _, id := range w.arcsOf(v) {
			if id&1 != 0 {
				continue // only forward direction carries decomposable flow
			}
			a := int(id >> 1)
			if !w.enabled.Get(a) || !w.flow.Get(a) || w.usedAt[a] == solve {
				continue
			}
			w.usedAt[a] = solve
			dst = append(dst, a)
			v = w.Head(a)
			found = true
			break
		}
		if !found || len(dst)-base > w.nArcs {
			return dst[:base], false
		}
	}
	return dst, true
}
