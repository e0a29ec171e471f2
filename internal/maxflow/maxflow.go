// Package maxflow implements the maximum-flow algorithms the paper relies
// on: Ford-Fulkerson with depth-first augmentation, Edmonds-Karp (shortest
// augmenting paths by BFS), and Dinic's algorithm with explicit layered
// networks and blocking flows (§III-B and §IV-A).
//
// All three operate on a graph.Network, write the optimal assignment into
// Arc.Flow, and return the flow value together with operation counters. The
// counters feed the monitor-architecture cost model of §IV: the paper
// measures a centralized scheduler "by the number of instructions executed
// in the algorithm".
//
// On the unit-capacity networks produced by Transformation 1, Dinic runs in
// O(|V|^{2/3} |E|) time (the bound the paper cites from [35]); benchmark E12
// measures that scaling empirically.
package maxflow

import "rsin/internal/graph"

// Counters records primitive-operation counts of a flow computation, used by
// the monitor cost model and the complexity benchmarks.
type Counters struct {
	Augmentations int // number of augmenting paths advanced
	Phases        int // layered-network constructions (Dinic) or 1 otherwise
	ArcScans      int // residual arcs examined
	NodeVisits    int // nodes dequeued/pushed during searches
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Augmentations += other.Augmentations
	c.Phases += other.Phases
	c.ArcScans += other.ArcScans
	c.NodeVisits += other.NodeVisits
}

// Result is the outcome of a max-flow computation.
type Result struct {
	Value int64
	Ops   Counters
}

// residual is the paired-arc residual representation shared by the
// algorithms: residual arc 2i is the forward copy of original arc i and
// residual arc 2i+1 is its reverse. Adjacency is CSR — every node's
// residual arc ids sit contiguously in adj between off[v] and off[v+1] —
// so search loops walk cache-linear int32 runs instead of chasing
// per-node slice headers.
type residual struct {
	g   *graph.Network
	to  []int   // residual arc head
	cap []int64 // remaining residual capacity
	off []int32 // CSR offsets, len NumNodes()+1
	adj []int32 // CSR adjacency: residual arc ids grouped by tail node
}

// arcs returns node v's residual adjacency as a contiguous CSR slice.
func (r *residual) arcs(v int) []int32 { return r.adj[r.off[v]:r.off[v+1]] }

// newResidual builds the residual of g's current flow. The CSR arrays
// are filled with the classic two-pass counting sort: degree count,
// prefix sum, scatter.
func newResidual(g *graph.Network) *residual {
	m := 2 * len(g.Arcs)
	n := g.NumNodes()
	r := &residual{
		g:   g,
		to:  make([]int, m),
		cap: make([]int64, m),
		off: make([]int32, n+1),
		adj: make([]int32, m),
	}
	for i := range g.Arcs {
		a := &g.Arcs[i]
		r.to[2*i] = a.To
		r.cap[2*i] = a.Cap - a.Flow
		r.to[2*i+1] = a.From
		r.cap[2*i+1] = a.Flow
		r.off[a.From+1]++
		r.off[a.To+1]++
	}
	for v := 0; v < n; v++ {
		r.off[v+1] += r.off[v]
	}
	// Scatter using off[v] as the running fill cursor, then shift the
	// cursors back down into offsets (off[v] ends up at the old off[v-1]).
	for i := range g.Arcs {
		a := &g.Arcs[i]
		r.adj[r.off[a.From]] = int32(2 * i)
		r.off[a.From]++
		r.adj[r.off[a.To]] = int32(2*i + 1)
		r.off[a.To]++
	}
	for v := n; v > 0; v-- {
		r.off[v] = r.off[v-1]
	}
	r.off[0] = 0
	return r
}

// push advances amt units of flow along residual arc id.
func (r *residual) push(id int, amt int64) {
	r.cap[id] -= amt
	r.cap[id^1] += amt
}

// writeBack stores the residual state into the network's Arc.Flow fields.
func (r *residual) writeBack() {
	for i := range r.g.Arcs {
		r.g.Arcs[i].Flow = r.cap[2*i+1]
	}
}

// FordFulkerson computes a maximum flow by repeatedly finding any augmenting
// path with a depth-first search, the primal-dual scheme of Ford & Fulkerson
// [17] described in §III-B. It starts from the network's current (legal)
// flow assignment, which lets tests reproduce the incremental reallocation
// of Fig. 3/Fig. 4.
func FordFulkerson(g *graph.Network) Result {
	r := newResidual(g)
	var res Result
	res.Value = g.Value()
	seen := make([]bool, g.NumNodes())
	var dfs func(v int) bool
	var pathArcs []int
	dfs = func(v int) bool {
		if v == g.Sink {
			return true
		}
		res.Ops.NodeVisits++
		seen[v] = true
		for _, id := range r.arcs(v) {
			res.Ops.ArcScans++
			if r.cap[id] > 0 && !seen[r.to[id]] {
				if dfs(r.to[id]) {
					pathArcs = append(pathArcs, int(id))
					return true
				}
			}
		}
		return false
	}
	for {
		for i := range seen {
			seen[i] = false
		}
		pathArcs = pathArcs[:0]
		if !dfs(g.Source) {
			break
		}
		amt := int64(1) << 62
		for _, id := range pathArcs {
			if r.cap[id] < amt {
				amt = r.cap[id]
			}
		}
		for _, id := range pathArcs {
			r.push(id, amt)
		}
		res.Value += amt
		res.Ops.Augmentations++
	}
	res.Ops.Phases = 1
	r.writeBack()
	return res
}

// EdmondsKarp computes a maximum flow by shortest (fewest-arc) augmenting
// paths found with breadth-first search [13].
func EdmondsKarp(g *graph.Network) Result {
	r := newResidual(g)
	var res Result
	res.Value = g.Value()
	n := g.NumNodes()
	prevArc := make([]int, n)
	for {
		for i := range prevArc {
			prevArc[i] = -1
		}
		prevArc[g.Source] = -2
		queue := []int{g.Source}
		found := false
	bfs:
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			res.Ops.NodeVisits++
			for _, id := range r.arcs(v) {
				res.Ops.ArcScans++
				w := r.to[id]
				if r.cap[id] > 0 && prevArc[w] == -1 {
					prevArc[w] = int(id)
					if w == g.Sink {
						found = true
						break bfs
					}
					queue = append(queue, w)
				}
			}
		}
		if !found {
			break
		}
		amt := int64(1) << 62
		for v := g.Sink; v != g.Source; {
			id := prevArc[v]
			if r.cap[id] < amt {
				amt = r.cap[id]
			}
			v = r.to[id^1]
		}
		for v := g.Sink; v != g.Source; {
			id := prevArc[v]
			r.push(id, amt)
			v = r.to[id^1]
		}
		res.Value += amt
		res.Ops.Augmentations++
	}
	res.Ops.Phases = 1
	r.writeBack()
	return res
}

// Dinic computes a maximum flow with Dinic's algorithm [12]: alternate
// between constructing a layered network by BFS from the source (§IV-A,
// Fig. 7 "first phase") and finding a maximal — not maximum — flow in that
// layered network by depth-first search with arc retirement ("second
// phase"). The loop ends when the sink is no longer reachable. iter[v] is
// an absolute cursor into the residual's CSR adjacency array, so the
// blocking-flow DFS resumes each node exactly where its last probe stopped.
func Dinic(g *graph.Network) Result {
	r := newResidual(g)
	level := make([]int, g.NumNodes())
	iter := make([]int, g.NumNodes())
	var res Result
	res.Value = g.Value()

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		level[g.Source] = 0
		queue := []int{g.Source}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			res.Ops.NodeVisits++
			for _, id := range r.arcs(v) {
				res.Ops.ArcScans++
				w := r.to[id]
				if r.cap[id] > 0 && level[w] < 0 {
					level[w] = level[v] + 1
					queue = append(queue, w)
				}
			}
		}
		return level[g.Sink] >= 0
	}

	var dfs func(v int, limit int64) int64
	dfs = func(v int, limit int64) int64 {
		if v == g.Sink {
			return limit
		}
		res.Ops.NodeVisits++
		for end := int(r.off[v+1]); iter[v] < end; iter[v]++ {
			id := r.adj[iter[v]]
			w := r.to[id]
			res.Ops.ArcScans++
			if r.cap[id] > 0 && level[w] == level[v]+1 {
				amt := limit
				if r.cap[id] < amt {
					amt = r.cap[id]
				}
				if got := dfs(w, amt); got > 0 {
					r.push(int(id), got)
					return got
				}
			}
		}
		level[v] = -1 // dead end: retire node for this phase
		return 0
	}

	const inf = int64(1) << 62
	for bfs() {
		res.Ops.Phases++
		for v := range iter {
			iter[v] = int(r.off[v])
		}
		for {
			got := dfs(g.Source, inf)
			if got == 0 {
				break
			}
			res.Value += got
			res.Ops.Augmentations++
		}
	}
	r.writeBack()
	return res
}

// LayeredNetwork exposes Dinic's auxiliary construction for inspection: it
// returns, for the network's current flow, the BFS level of every node in
// the residual graph (-1 when unreachable). Test E8 uses it to reproduce the
// layered network of Fig. 8(b).
func LayeredNetwork(g *graph.Network) []int {
	r := newResidual(g)
	level := make([]int, g.NumNodes())
	for i := range level {
		level[i] = -1
	}
	level[g.Source] = 0
	queue := []int{g.Source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range r.arcs(v) {
			w := r.to[id]
			if r.cap[id] > 0 && level[w] < 0 {
				level[w] = level[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return level
}
