// Package netsimplex implements the primal network simplex method for
// minimum-cost flow — the specialization of the simplex method to network
// matrices that the paper's linear-programming framing (§III) invites.
// Together with successive shortest paths and the out-of-kilter method it
// gives three independent optimal solvers for Transformation 2, each
// cross-checked against the others in the test suites.
//
// The implementation follows the textbook strongly-feasible-basis variant:
// an artificial root with big-M arcs forms the initial spanning tree;
// entering arcs are chosen by round-robin eligibility; the leaving arc is
// the last blocking arc when traversing the pivot cycle from its apex
// along the orientation, which guarantees termination under degeneracy.
// A pivot that changes the tree re-derives parent, depth and potential
// only over the subtree it moves; the whole tree is built from scratch
// only when a solve starts.
//
// Two front ends share the pivot engine: MinCostFlow is the one-shot
// solver (build, big-M cold start, solve), and Warm is the persistent
// arena for epoch schedulers — a fixed arc set whose capacities and costs
// are re-synced each epoch, hot-started from a caller-provided feasible
// flow and, when the caller permits, from the previous epoch's optimal
// basis tree (see warm.go).
package netsimplex

import (
	"fmt"

	"rsin/internal/graph"
	"rsin/internal/mincost"
)

type arcState int8

const (
	atLower arcState = iota
	inTree
	atUpper
)

// arc is one network-simplex arc (original or artificial).
type arc struct {
	from, to  int
	cap       int64
	cost      int64
	flow      int64
	state     arcState
	origIndex int // index into g.Arcs / the Warm arena, or -1 for artificial arcs
}

const inf = int64(1) << 60

// simplex is the pivot engine shared by MinCostFlow and Warm: the arc
// array (real arcs first, then one artificial arc per real node), the
// basis tree and the strongly-feasible pivot loop.
type simplex struct {
	arcs  []arc
	total int // node count including the artificial root
	root  int

	parent    []int // parent node in the tree
	parentArc []int // arc connecting node to parent
	depth     []int
	pi        []int64 // node potentials

	// Static incidence CSR over the frozen arc array: node v's incident
	// arc indices (either endpoint) are inc[incOff[v]:incOff[v+1]].
	// Built once per arc set by counting sort — the arc structure never
	// changes between pivots, only states do — so each rebuildTree walks
	// contiguous int32 runs filtered by state==inTree instead of
	// reassembling per-node []int adjacency from scratch every pivot.
	incOff  []int32
	inc     []int32
	incArcs int // len(arcs) the incidence was built for (0 = unbuilt)

	// Scratch reused across pivots and solves: the BFS queue of
	// rebuildTree/rehang and the pivot cycle of cycleFor.
	queue []int
	cycle []step
}

// pivotHook, when non-nil, is called after every pivot.
// Tests set it to hold the incrementally updated tree to a from-scratch
// rebuild; production code never sets it.
var pivotHook func(sx *simplex)

// init sizes the tree scratch for a node count (root = total-1).
func (sx *simplex) init(total int) {
	sx.total = total
	sx.root = total - 1
	sx.parent = make([]int, total)
	sx.parentArc = make([]int, total)
	sx.depth = make([]int, total)
	sx.pi = make([]int64, total)
	sx.incOff = make([]int32, total+1)
	sx.incArcs = 0
	// A BFS enqueues each node once and a pivot cycle has at most one
	// arc per node, so neither scratch grows after this.
	sx.queue = make([]int, 0, total)
	sx.cycle = make([]step, 0, total)
}

// ensureIncidence (re)builds the incidence CSR when the arc array has
// been (re)assigned since the last build.
func (sx *simplex) ensureIncidence() {
	if sx.incArcs == len(sx.arcs) && sx.inc != nil {
		return
	}
	sx.incArcs = len(sx.arcs)
	for i := range sx.incOff {
		sx.incOff[i] = 0
	}
	for i := range sx.arcs {
		sx.incOff[sx.arcs[i].from+1]++
		sx.incOff[sx.arcs[i].to+1]++
	}
	for v := 0; v < sx.total; v++ {
		sx.incOff[v+1] += sx.incOff[v]
	}
	m := 2 * len(sx.arcs)
	if cap(sx.inc) < m {
		sx.inc = make([]int32, m)
	} else {
		sx.inc = sx.inc[:m]
	}
	for i := range sx.arcs {
		sx.inc[sx.incOff[sx.arcs[i].from]] = int32(i)
		sx.incOff[sx.arcs[i].from]++
		sx.inc[sx.incOff[sx.arcs[i].to]] = int32(i)
		sx.incOff[sx.arcs[i].to]++
	}
	for v := sx.total; v > 0; v-- {
		sx.incOff[v] = sx.incOff[v-1]
	}
	sx.incOff[0] = 0
}

// rebuildTree recomputes parent/depth/potentials of the whole tree from
// the arcs marked inTree by BFS from the root over the incidence CSR,
// O(n + m). It runs only where a whole tree is needed — a cold start or
// a reused basis at the start of a solve; pivots use rehang.
func (sx *simplex) rebuildTree() error {
	sx.ensureIncidence()
	for v := range sx.parent {
		sx.parent[v] = -2
	}
	root := sx.root
	sx.parent[root] = -1
	sx.parentArc[root] = -1
	sx.depth[root] = 0
	sx.pi[root] = 0
	if seen := sx.grow(root); seen != sx.total {
		return fmt.Errorf("netsimplex: basis is not a spanning tree (%d of %d nodes)", seen, sx.total)
	}
	return nil
}

// rehang is the pivot's tree update. The leaving arc has left the tree
// and the entering arc (index e) has joined it, joining node r — the
// entering endpoint on the side the cut separated from the root — to
// its other endpoint. Only that side's parents, depths and potentials
// change, so the BFS restarts from r alone.
func (sx *simplex) rehang(e, r int) {
	a := &sx.arcs[e]
	p := a.from + a.to - r
	sx.parent[r] = p
	sx.parentArc[r] = e
	sx.depth[r] = sx.depth[p] + 1
	if a.from == p {
		sx.pi[r] = sx.pi[p] + a.cost
	} else {
		sx.pi[r] = sx.pi[p] - a.cost
	}
	sx.grow(r)
}

// grow derives parent, depth and potential for every node below top by
// BFS over inTree arcs, skipping each node's own parent arc (top's must
// already be set), and returns the number of nodes reached, top
// included — more than sx.total if the inTree arcs hold a cycle.
// Potentials keep every tree arc's reduced cost c + pi[from] - pi[to]
// at zero.
func (sx *simplex) grow(top int) int {
	q := append(sx.queue[:0], top)
	for h := 0; h < len(q) && len(q) <= sx.total; h++ {
		v := q[h]
		for _, ai32 := range sx.inc[sx.incOff[v]:sx.incOff[v+1]] {
			ai := int(ai32)
			a := &sx.arcs[ai]
			if a.state != inTree || ai == sx.parentArc[v] {
				continue
			}
			w := a.from + a.to - v
			sx.parent[w] = v
			sx.parentArc[w] = ai
			sx.depth[w] = sx.depth[v] + 1
			if a.from == v {
				sx.pi[w] = sx.pi[v] + a.cost
			} else {
				sx.pi[w] = sx.pi[v] - a.cost
			}
			q = append(q, w)
		}
	}
	sx.queue = q
	return len(q)
}

// step describes one traversal element of the pivot cycle: arc index and
// whether the orientation crosses it forward.
type step struct {
	ai      int
	forward bool
}

// cycleFor assembles the pivot cycle for entering arc e, ordered from the
// apex along the orientation (the direction of flow change), into the
// reused sx.cycle, and returns it with the entering arc's position.
func (sx *simplex) cycleFor(e int) ([]step, int) {
	a := &sx.arcs[e]
	// Orientation: if entering from lower bound, flow increases along the
	// arc (u -> v); if from upper, flow decreases, i.e. the orientation
	// runs v -> u.
	u, v := a.from, a.to
	entF := true
	if a.state == atUpper {
		u, v = v, u
		entF = false
	}
	// Find apex = LCA(u, v).
	x, y := u, v
	for sx.depth[x] > sx.depth[y] {
		x = sx.parent[x]
	}
	for sx.depth[y] > sx.depth[x] {
		y = sx.parent[y]
	}
	for x != y {
		x = sx.parent[x]
		y = sx.parent[y]
	}
	apex := x
	// The directed pivot cycle is u ->(entering)-> v ->(tree)-> apex
	// ->(tree)-> u; we emit it starting at the apex: first descend
	// apex..u, then the entering arc, then ascend v..apex. Descending
	// crosses each tree arc from parent(w) to w, so the crossing is
	// forward iff the arc points at w; the slice is built bottom-up and
	// reversed into apex-first order (the flags are unaffected).
	cycle := sx.cycle[:0]
	for w := u; w != apex; w = sx.parent[w] {
		ai := sx.parentArc[w]
		cycle = append(cycle, step{ai, sx.arcs[ai].to == w})
	}
	enter := len(cycle)
	for i, j := 0, enter-1; i < j; i, j = i+1, j-1 {
		cycle[i], cycle[j] = cycle[j], cycle[i]
	}
	cycle = append(cycle, step{e, entF})
	for w := v; w != apex; w = sx.parent[w] {
		ai := sx.parentArc[w]
		// Moving from v up to apex crosses each arc from w toward
		// parent(w): forward iff the arc points w->parent.
		cycle = append(cycle, step{ai, sx.arcs[ai].from == w})
	}
	sx.cycle = cycle
	return cycle, enter
}

func (sx *simplex) residual(s step) int64 {
	a := &sx.arcs[s.ai]
	if s.forward {
		return a.cap - a.flow
	}
	return a.flow
}

// run is the main simplex loop with round-robin entering-arc selection,
// starting from the current basis (states + tree already rebuilt). Pivot
// work is recorded in ops: ArcScans counts pricing scans, Augmentations
// counts pivots (flow changes), PotentialUpdates counts tree-changing
// pivots, one subtree update (rehang) each.
func (sx *simplex) run(ops *mincost.Counters) error {
	arcs := sx.arcs
	rc := func(i int) int64 { return arcs[i].cost + sx.pi[arcs[i].from] - sx.pi[arcs[i].to] }
	m := len(arcs)
	scan := 0
	maxPivots := 50 * m * sx.total // generous safety bound
	for pivots := 0; ; pivots++ {
		if pivots > maxPivots {
			return fmt.Errorf("netsimplex: pivot bound exceeded (internal error)")
		}
		entering := -1
		for k := 0; k < m; k++ {
			i := (scan + k) % m
			ops.ArcScans++
			if arcs[i].state == atLower && arcs[i].cap > 0 && rc(i) < 0 {
				entering = i
				break
			}
			if arcs[i].state == atUpper && rc(i) > 0 {
				entering = i
				break
			}
		}
		if entering < 0 {
			return nil // optimal
		}
		scan = entering + 1
		cycle, enter := sx.cycleFor(entering)
		delta := inf
		for _, s := range cycle {
			if r := sx.residual(s); r < delta {
				delta = r
			}
		}
		// Leaving arc: the LAST blocking arc along the orientation from
		// the apex (strong feasibility rule).
		leaving := -1
		for idx := range cycle {
			if sx.residual(cycle[idx]) == delta {
				leaving = idx
			}
		}
		for _, s := range cycle {
			if s.forward {
				arcs[s.ai].flow += delta
			} else {
				arcs[s.ai].flow -= delta
			}
		}
		ops.Augmentations++
		if lv := cycle[leaving].ai; lv == entering {
			// The entering arc itself blocks: it swaps bound without
			// entering the tree.
			if arcs[entering].state == atLower {
				arcs[entering].state = atUpper
			} else {
				arcs[entering].state = atLower
			}
		} else {
			// Pivot: entering arc joins the tree; leaving arc departs at
			// the bound it hit. Cutting the leaving arc separates the
			// entering arc's endpoint on the same side of the apex: its
			// tail (the cycle's descent from the apex reaches it) when
			// the leaving arc precedes the entering step, else its head.
			arcs[entering].state = inTree
			if arcs[lv].flow == 0 {
				arcs[lv].state = atLower
			} else {
				arcs[lv].state = atUpper
			}
			tail, head := arcs[entering].from, arcs[entering].to
			if !cycle[enter].forward {
				tail, head = head, tail
			}
			if leaving < enter {
				sx.rehang(entering, tail)
			} else {
				sx.rehang(entering, head)
			}
			ops.PotentialUpdates++
		}
		if pivotHook != nil {
			pivotHook(sx)
		}
	}
}

// MinCostFlow computes the minimum-cost flow of value exactly target from
// the network's source to its sink, writing the assignment into Arc.Flow.
// It returns mincost.ErrInfeasible when the maximum flow is below target.
func MinCostFlow(g *graph.Network, target int64) (mincost.Result, error) {
	var res mincost.Result
	if target < 0 {
		return res, fmt.Errorf("netsimplex: negative target %d", target)
	}
	n := g.NumNodes()
	root := n
	total := n + 1

	// Big-M cost for artificial arcs: strictly larger than any possible
	// path cost so they leave the basis whenever feasibility allows.
	var maxCost int64 = 1
	for i := range g.Arcs {
		c := g.Arcs[i].Cost
		if c < 0 {
			c = -c
		}
		if c > maxCost {
			maxCost = c
		}
	}
	bigM := (maxCost + 1) * int64(total)

	// Node supplies: +target at the source, -target at the sink.
	b := make([]int64, total)
	b[g.Source] = target
	b[g.Sink] = -target

	arcs := make([]arc, 0, len(g.Arcs)+n)
	for i := range g.Arcs {
		a := &g.Arcs[i]
		arcs = append(arcs, arc{from: a.From, to: a.To, cap: a.Cap, cost: a.Cost, origIndex: i})
	}
	// Artificial spanning tree: one arc per real node, oriented by supply
	// sign and carrying the initial imbalance.
	for v := 0; v < n; v++ {
		var a arc
		if b[v] >= 0 {
			a = arc{from: v, to: root, cap: inf, cost: bigM, flow: b[v], origIndex: -1}
		} else {
			a = arc{from: root, to: v, cap: inf, cost: bigM, flow: -b[v], origIndex: -1}
		}
		a.state = inTree
		arcs = append(arcs, a)
	}

	var sx simplex
	sx.init(total)
	sx.arcs = arcs
	if err := sx.rebuildTree(); err != nil {
		return res, err
	}
	if err := sx.run(&res.Ops); err != nil {
		return res, err
	}

	// Feasibility: artificial arcs must be empty.
	for i := range arcs {
		if arcs[i].origIndex == -1 && arcs[i].flow > 0 {
			return res, fmt.Errorf("%w: network simplex left %d units on artificial arcs",
				mincost.ErrInfeasible, arcs[i].flow)
		}
	}
	g.ResetFlow()
	for i := range arcs {
		if arcs[i].origIndex >= 0 {
			g.Arcs[arcs[i].origIndex].Flow = arcs[i].flow
		}
	}
	res.Value = g.Value()
	res.Cost = g.Cost()
	return res, nil
}
