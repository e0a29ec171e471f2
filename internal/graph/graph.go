// Package graph provides the directed flow-network representation used by
// every scheduling transformation in this repository.
//
// A Network is a digraph G(V, E, s, t, c, w) in the notation of Juang & Wah
// §III-A: every arc carries a nonnegative capacity c(e), an optional cost per
// unit flow w(e), and a current flow assignment f(e). The package offers
// legality checking (capacity limitation and flow conservation), integral
// path decomposition (the bridge from a flow assignment back to a set of
// circuits, Theorem 2), and s-t cut extraction (the max-flow = min-cut
// certificate).
//
// Flow algorithms live in sibling packages (maxflow, mincost, multiflow);
// they consume a Network and write the resulting assignment back into
// Arc.Flow.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Arc is a directed edge of a flow network.
type Arc struct {
	From, To int   // endpoint node indices
	Cap      int64 // capacity c(e) >= 0
	Cost     int64 // cost per unit flow w(e); 0 when the problem is pure max-flow
	Flow     int64 // current flow assignment f(e)

	// Label optionally ties the arc back to the object it was transformed
	// from (a network link, a source arc for a processor, ...). The flow
	// packages never read it; the MRSIN transformations use it to map an
	// optimal flow back onto switch settings.
	Label string
}

// Network is a directed flow network with a distinguished source and sink.
// The zero value is not usable; construct with New.
type Network struct {
	Source, Sink int
	nodes        int
	names        []string // optional node names, "" when unset
	Arcs         []Arc
	out          [][]int // arc indices leaving each node
	in           [][]int // arc indices entering each node
}

// New returns an empty network with n nodes (indexed 0..n-1) and the given
// source and sink. It panics if the indices are out of range or equal, since
// that is a programming error in a transformation, not a runtime condition.
func New(n, source, sink int) *Network {
	if n < 2 || source < 0 || source >= n || sink < 0 || sink >= n || source == sink {
		panic(fmt.Sprintf("graph.New: invalid nodes=%d source=%d sink=%d", n, source, sink))
	}
	return &Network{
		Source: source,
		Sink:   sink,
		nodes:  n,
		names:  make([]string, n),
		out:    make([][]int, n),
		in:     make([][]int, n),
	}
}

// NumNodes reports the number of nodes in the network.
func (g *Network) NumNodes() int { return g.nodes }

// AddNode appends a fresh isolated node and returns its index.
func (g *Network) AddNode(name string) int {
	g.nodes++
	g.names = append(g.names, name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return g.nodes - 1
}

// SetName attaches a display name to node v.
func (g *Network) SetName(v int, name string) { g.names[v] = name }

// Name returns the display name of node v, or "n<v>" when unset.
func (g *Network) Name(v int) string {
	if g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("n%d", v)
}

// AddArc inserts an arc and returns its index. Zero-capacity arcs are legal
// but useless; Transformation 1 step (T4) removes them before calling here.
func (g *Network) AddArc(from, to int, cap, cost int64) int {
	if from < 0 || from >= g.nodes || to < 0 || to >= g.nodes {
		panic(fmt.Sprintf("graph.AddArc: node out of range: %d -> %d (nodes=%d)", from, to, g.nodes))
	}
	if cap < 0 {
		panic(fmt.Sprintf("graph.AddArc: negative capacity %d", cap))
	}
	id := len(g.Arcs)
	g.Arcs = append(g.Arcs, Arc{From: from, To: to, Cap: cap, Cost: cost})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// Out returns the indices of arcs leaving v. The slice is owned by the
// network and must not be mutated.
func (g *Network) Out(v int) []int { return g.out[v] }

// In returns the indices of arcs entering v. The slice is owned by the
// network and must not be mutated.
func (g *Network) In(v int) []int { return g.in[v] }

// ResetFlow zeroes the flow assignment on every arc.
func (g *Network) ResetFlow() {
	for i := range g.Arcs {
		g.Arcs[i].Flow = 0
	}
}

// Clone returns a deep copy of the network, including flows.
func (g *Network) Clone() *Network {
	c := &Network{
		Source: g.Source,
		Sink:   g.Sink,
		nodes:  g.nodes,
		names:  append([]string(nil), g.names...),
		Arcs:   append([]Arc(nil), g.Arcs...),
		out:    make([][]int, g.nodes),
		in:     make([][]int, g.nodes),
	}
	for v := range g.out {
		c.out[v] = append([]int(nil), g.out[v]...)
		c.in[v] = append([]int(nil), g.in[v]...)
	}
	return c
}

// Value reports the net flow leaving the source (which, for a legal flow,
// equals the net flow entering the sink).
func (g *Network) Value() int64 {
	var f int64
	for _, id := range g.out[g.Source] {
		f += g.Arcs[id].Flow
	}
	for _, id := range g.in[g.Source] {
		f -= g.Arcs[id].Flow
	}
	return f
}

// Cost reports the total cost sum over arcs of w(e) * f(e).
func (g *Network) Cost() int64 {
	var c int64
	for i := range g.Arcs {
		c += g.Arcs[i].Cost * g.Arcs[i].Flow
	}
	return c
}

// Excess reports, for node v, inflow minus outflow of the current assignment.
func (g *Network) Excess(v int) int64 {
	var e int64
	for _, id := range g.in[v] {
		e += g.Arcs[id].Flow
	}
	for _, id := range g.out[v] {
		e -= g.Arcs[id].Flow
	}
	return e
}

// CheckLegal verifies the two flow constraints of §III-A: capacity
// limitation (0 <= f(e) <= c(e) for every arc) and flow conservation (every
// node other than source and sink has zero excess). It returns a descriptive
// error for the first violation found, or nil for a legal flow.
func (g *Network) CheckLegal() error {
	for i := range g.Arcs {
		a := &g.Arcs[i]
		if a.Flow < 0 || a.Flow > a.Cap {
			return fmt.Errorf("arc %d (%s->%s): flow %d outside [0,%d]",
				i, g.Name(a.From), g.Name(a.To), a.Flow, a.Cap)
		}
	}
	for v := 0; v < g.nodes; v++ {
		if v == g.Source || v == g.Sink {
			continue
		}
		if e := g.Excess(v); e != 0 {
			return fmt.Errorf("node %s: conservation violated, excess %d", g.Name(v), e)
		}
	}
	return nil
}

// ResidualReachable returns the set of nodes reachable from the source in
// the residual graph of the current flow. When the flow is maximum, the
// returned set is the source side of a minimum cut.
func (g *Network) ResidualReachable() []bool {
	seen := make([]bool, g.nodes)
	seen[g.Source] = true
	queue := []int{g.Source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range g.out[v] {
			a := &g.Arcs[id]
			if a.Flow < a.Cap && !seen[a.To] {
				seen[a.To] = true
				queue = append(queue, a.To)
			}
		}
		for _, id := range g.in[v] {
			a := &g.Arcs[id]
			if a.Flow > 0 && !seen[a.From] {
				seen[a.From] = true
				queue = append(queue, a.From)
			}
		}
	}
	return seen
}

// MinCutCapacity returns the capacity of the s-t cut induced by
// ResidualReachable. For a maximum flow this equals the flow value
// (the max-flow min-cut theorem), which tests use as an optimality
// certificate.
func (g *Network) MinCutCapacity() int64 {
	side := g.ResidualReachable()
	var cut int64
	for i := range g.Arcs {
		a := &g.Arcs[i]
		if side[a.From] && !side[a.To] {
			cut += a.Cap
		}
	}
	return cut
}

// Path is one source-to-sink flow path: the arc indices traversed in order.
type Path struct {
	Arcs []int
	Amt  int64 // amount of flow carried along the path
}

// DecomposePaths decomposes the current integral flow assignment into
// source-to-sink paths (flow decomposition). For the unit-capacity networks
// produced by Transformation 1 the result is a set of arc-disjoint paths,
// one per allocated request (Theorem 2); each path becomes a circuit in the
// MRSIN. The flow on the network is left untouched. Decomposition fails with
// an error if the flow is illegal or contains flow cycles that prevent the
// full value from being routed (cycles are silently ignored otherwise, as
// they carry no s-t value).
func (g *Network) DecomposePaths() ([]Path, error) {
	if err := g.CheckLegal(); err != nil {
		return nil, err
	}
	rem := make([]int64, len(g.Arcs))
	for i := range g.Arcs {
		rem[i] = g.Arcs[i].Flow
	}
	want := g.Value()
	var got int64
	var paths []Path
	for got < want {
		// Walk from source along arcs with remaining flow.
		var arcs []int
		v := g.Source
		amt := int64(1) << 62
		visited := make(map[int]bool)
		for v != g.Sink {
			if visited[v] {
				return nil, fmt.Errorf("flow decomposition: cycle at node %s", g.Name(v))
			}
			visited[v] = true
			found := -1
			for _, id := range g.out[v] {
				if rem[id] > 0 {
					found = id
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("flow decomposition: stuck at node %s with %d of %d routed",
					g.Name(v), got, want)
			}
			arcs = append(arcs, found)
			if rem[found] < amt {
				amt = rem[found]
			}
			v = g.Arcs[found].To
		}
		for _, id := range arcs {
			rem[id] -= amt
		}
		got += amt
		paths = append(paths, Path{Arcs: arcs, Amt: amt})
	}
	return paths, nil
}

// String renders the network, one arc per line, for debugging and golden
// tests. Arcs are sorted by (from, to, index) for determinism.
func (g *Network) String() string {
	ids := make([]int, len(g.Arcs))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(x, y int) bool {
		a, b := g.Arcs[ids[x]], g.Arcs[ids[y]]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return ids[x] < ids[y]
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "network %d nodes, source=%s sink=%s\n", g.nodes, g.Name(g.Source), g.Name(g.Sink))
	for _, id := range ids {
		a := g.Arcs[id]
		fmt.Fprintf(&sb, "  %s -> %s cap=%d cost=%d flow=%d", g.Name(a.From), g.Name(a.To), a.Cap, a.Cost, a.Flow)
		if a.Label != "" {
			fmt.Fprintf(&sb, " [%s]", a.Label)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
