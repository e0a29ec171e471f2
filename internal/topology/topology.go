// Package topology models the physical structure of a resource sharing
// interconnection network (RSIN): processors on one side, resources on the
// other, and a loop-free fabric of nonbroadcast crossbar switchboxes in
// between (§II of Juang & Wah).
//
// The package provides builders for the multistage networks named in the
// paper — Omega, indirect binary n-cube, baseline, Benes, Clos, delta,
// gamma/ADM, crossbar, and extra-stage variants — plus a generic builder for
// "any general loop-free network configuration in which the requesting
// processors and free resources can be partitioned into two disjoint
// subsets" (§I).
//
// A Network also carries circuit-switching state: every link is either free
// or occupied by an established circuit. The scheduling transformations in
// internal/core read this state; the token architecture in internal/token
// overlays its own transient "registered" state during a scheduling cycle.
package topology

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"rsin/internal/bitset"
)

// Kind distinguishes the three endpoint classes of an RSIN.
type Kind int

const (
	KindProcessor Kind = iota
	KindBox
	KindResource
)

func (k Kind) String() string {
	switch k {
	case KindProcessor:
		return "proc"
	case KindBox:
		return "box"
	case KindResource:
		return "res"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Endpoint identifies one side of a link: a processor output, a resource
// input, or a numbered port on a switchbox.
type Endpoint struct {
	Kind  Kind
	Index int // processor/box/resource index
	Port  int // port number on a box; 0 for processors and resources
}

func (e Endpoint) String() string {
	if e.Kind == KindBox {
		return fmt.Sprintf("box%d.%d", e.Index, e.Port)
	}
	return fmt.Sprintf("%s%d", e.Kind, e.Index)
}

// LinkState is the circuit-switching state of a link.
type LinkState int

const (
	LinkFree LinkState = iota
	LinkOccupied
)

// Link is a physical wire of the network, directed from the processor side
// toward the resource side. Its State is written only by this package's
// methods (Establish, Release, ForceRelease, OccupyLink, Reset), which
// keep the network's link words in step with it (words.go).
type Link struct {
	ID    int
	From  Endpoint
	To    Endpoint
	State LinkState
}

// Box is an n x m nonbroadcast crossbar switchbox. In and Out hold the link
// IDs wired to each input/output port, or -1 for an unconnected port.
type Box struct {
	ID    int
	Stage int // stage number for multistage layouts; -1 for irregular fabrics
	In    []int
	Out   []int
}

// Circuit is an established (or candidate) connection from a processor to a
// resource: the ordered link IDs of the path.
type Circuit struct {
	Proc  int
	Res   int
	Links []int
}

// Network is the physical RSIN.
type Network struct {
	Name  string
	Procs int // number of processors (input ports)
	Ress  int // number of resources (output ports)
	Boxes []Box
	Links []Link

	ProcLink []int // ProcLink[p]: link leaving processor p, or -1
	ResLink  []int // ResLink[r]: link entering resource r, or -1

	// Hardware fault state (see fault.go). Nil slices mean no component
	// of that class has ever failed; the slices are allocated lazily by
	// the first Fail call so fault-free networks pay nothing.
	linkFault  []bool
	boxFault   []bool
	resFault   []bool
	faultEpoch uint64

	// Link words (words.go), bit l for link l: open marks the links that
	// are free and usable, unusable the links a fault masks.
	open     bitset.Bits
	unusable bitset.Bits

	sweep reachSweep // ReachableResources' scratch; a Clone starts its own
}

// Builder assembles a Network. Wiring errors — duplicate links on the same
// port or endpoint, out-of-range processor/resource/box/port/stage indices —
// are recorded and reported by Build with a descriptive message; the
// offending call returns -1. (They used to panic or, for out-of-range
// indices, produce silently broken networks.)
type Builder struct {
	n    *Network
	errs []error
}

// errf records a wiring error for Build to report and returns -1, the
// sentinel link/box index.
func (b *Builder) errf(format string, args ...any) int {
	b.errs = append(b.errs, fmt.Errorf("topology %q: "+format, append([]any{b.n.Name}, args...)...))
	return -1
}

// NewBuilder starts a network with the given processor and resource counts.
func NewBuilder(name string, procs, ress int) *Builder {
	if procs <= 0 || ress <= 0 {
		panic(fmt.Sprintf("topology.NewBuilder: procs=%d ress=%d", procs, ress))
	}
	n := &Network{
		Name:     name,
		Procs:    procs,
		Ress:     ress,
		ProcLink: make([]int, procs),
		ResLink:  make([]int, ress),
	}
	for i := range n.ProcLink {
		n.ProcLink[i] = -1
	}
	for i := range n.ResLink {
		n.ResLink[i] = -1
	}
	return &Builder{n: n}
}

// AddBox appends an nIn x nOut switchbox at the given stage and returns its
// index. Stage -1 marks an irregular (unstaged) fabric; any smaller stage
// is out of range.
func (b *Builder) AddBox(stage, nIn, nOut int) int {
	if nIn <= 0 || nOut <= 0 {
		return b.errf("AddBox: %dx%d box", nIn, nOut)
	}
	if stage < -1 {
		return b.errf("AddBox: stage %d out of range (minimum -1)", stage)
	}
	id := len(b.n.Boxes)
	in := make([]int, nIn)
	out := make([]int, nOut)
	for i := range in {
		in[i] = -1
	}
	for i := range out {
		out[i] = -1
	}
	b.n.Boxes = append(b.n.Boxes, Box{ID: id, Stage: stage, In: in, Out: out})
	return id
}

func (b *Builder) addLink(from, to Endpoint) int {
	id := len(b.n.Links)
	b.n.Links = append(b.n.Links, Link{ID: id, From: from, To: to})
	return id
}

// checkBoxPort validates a box index and one of its port indices; dir is
// "input" or "output" and n the port count on that side.
func (b *Builder) checkBoxPort(call string, box, port int, dir string, ok bool) bool {
	if box < 0 || box >= len(b.n.Boxes) {
		b.errf("%s: box %d out of range [0,%d)", call, box, len(b.n.Boxes))
		return false
	}
	if !ok {
		b.errf("%s: box %d has no %s port %d", call, box, dir, port)
		return false
	}
	return true
}

// LinkProcToBox wires processor p to input port of a box.
func (b *Builder) LinkProcToBox(p, box, port int) int {
	if p < 0 || p >= b.n.Procs {
		return b.errf("LinkProcToBox: processor %d out of range [0,%d)", p, b.n.Procs)
	}
	if !b.checkBoxPort("LinkProcToBox", box, port, "input",
		box >= 0 && box < len(b.n.Boxes) && port >= 0 && port < len(b.n.Boxes[box].In)) {
		return -1
	}
	if b.n.ProcLink[p] != -1 {
		return b.errf("LinkProcToBox: processor %d already wired", p)
	}
	if b.n.Boxes[box].In[port] != -1 {
		return b.errf("LinkProcToBox: box %d input port %d already wired", box, port)
	}
	id := b.addLink(Endpoint{KindProcessor, p, 0}, Endpoint{KindBox, box, port})
	b.n.ProcLink[p] = id
	b.n.Boxes[box].In[port] = id
	return id
}

// LinkBoxToBox wires an output port of one box to an input port of another.
func (b *Builder) LinkBoxToBox(from, fromPort, to, toPort int) int {
	if !b.checkBoxPort("LinkBoxToBox", from, fromPort, "output",
		from >= 0 && from < len(b.n.Boxes) && fromPort >= 0 && fromPort < len(b.n.Boxes[from].Out)) {
		return -1
	}
	if !b.checkBoxPort("LinkBoxToBox", to, toPort, "input",
		to >= 0 && to < len(b.n.Boxes) && toPort >= 0 && toPort < len(b.n.Boxes[to].In)) {
		return -1
	}
	if b.n.Boxes[from].Out[fromPort] != -1 {
		return b.errf("LinkBoxToBox: box %d output port %d already wired", from, fromPort)
	}
	if b.n.Boxes[to].In[toPort] != -1 {
		return b.errf("LinkBoxToBox: box %d input port %d already wired", to, toPort)
	}
	id := b.addLink(Endpoint{KindBox, from, fromPort}, Endpoint{KindBox, to, toPort})
	b.n.Boxes[from].Out[fromPort] = id
	b.n.Boxes[to].In[toPort] = id
	return id
}

// LinkBoxToRes wires an output port of a box to resource r.
func (b *Builder) LinkBoxToRes(box, port, r int) int {
	if !b.checkBoxPort("LinkBoxToRes", box, port, "output",
		box >= 0 && box < len(b.n.Boxes) && port >= 0 && port < len(b.n.Boxes[box].Out)) {
		return -1
	}
	if r < 0 || r >= b.n.Ress {
		return b.errf("LinkBoxToRes: resource %d out of range [0,%d)", r, b.n.Ress)
	}
	if b.n.Boxes[box].Out[port] != -1 {
		return b.errf("LinkBoxToRes: box %d output port %d already wired", box, port)
	}
	if b.n.ResLink[r] != -1 {
		return b.errf("LinkBoxToRes: resource %d already wired", r)
	}
	id := b.addLink(Endpoint{KindBox, box, port}, Endpoint{KindResource, r, 0})
	b.n.Boxes[box].Out[port] = id
	b.n.ResLink[r] = id
	return id
}

// Build validates the wiring and returns the network. It reports any
// wiring errors recorded by the link methods (duplicate ports,
// out-of-range indices), then checks that the box graph is loop-free (a
// hard requirement of the paper's method) and that every processor and
// resource is wired.
func (b *Builder) Build() (*Network, error) {
	n := b.n
	b.n = nil
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("topology %q: invalid wiring: %w", n.Name, errors.Join(b.errs...))
	}
	for p, l := range n.ProcLink {
		if l == -1 {
			return nil, fmt.Errorf("topology %q: processor %d not wired", n.Name, p)
		}
	}
	for r, l := range n.ResLink {
		if l == -1 {
			return nil, fmt.Errorf("topology %q: resource %d not wired", n.Name, r)
		}
	}
	if err := n.checkAcyclic(); err != nil {
		return nil, err
	}
	n.open, n.unusable = bitset.Make(len(n.Links)), bitset.Make(len(n.Links))
	n.refreshWords()
	return n, nil
}

// MustBuild is Build that panics on error, for the package's own
// constructors whose wiring is correct by construction.
func (b *Builder) MustBuild() *Network {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

// checkAcyclic topologically sorts the box graph.
func (n *Network) checkAcyclic() error {
	indeg := make([]int, len(n.Boxes))
	for _, l := range n.Links {
		if l.From.Kind == KindBox && l.To.Kind == KindBox {
			indeg[l.To.Index]++
		}
	}
	var queue []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		seen++
		for _, lid := range n.Boxes[v].Out {
			if lid == -1 {
				continue
			}
			l := n.Links[lid]
			if l.To.Kind == KindBox {
				indeg[l.To.Index]--
				if indeg[l.To.Index] == 0 {
					queue = append(queue, l.To.Index)
				}
			}
		}
	}
	if seen != len(n.Boxes) {
		return fmt.Errorf("topology %q: box graph contains a cycle", n.Name)
	}
	return nil
}

// Clone deep-copies the network including link states.
func (n *Network) Clone() *Network {
	c := &Network{
		Name:     n.Name,
		Procs:    n.Procs,
		Ress:     n.Ress,
		Boxes:    make([]Box, len(n.Boxes)),
		Links:    append([]Link(nil), n.Links...),
		ProcLink: append([]int(nil), n.ProcLink...),
		ResLink:  append([]int(nil), n.ResLink...),
	}
	for i, bx := range n.Boxes {
		c.Boxes[i] = Box{
			ID:    bx.ID,
			Stage: bx.Stage,
			In:    append([]int(nil), bx.In...),
			Out:   append([]int(nil), bx.Out...),
		}
	}
	if n.linkFault != nil {
		c.linkFault = append([]bool(nil), n.linkFault...)
	}
	if n.boxFault != nil {
		c.boxFault = append([]bool(nil), n.boxFault...)
	}
	if n.resFault != nil {
		c.resFault = append([]bool(nil), n.resFault...)
	}
	c.faultEpoch = n.faultEpoch
	c.open, c.unusable = slices.Clone(n.open), slices.Clone(n.unusable)
	return c
}

// Reset frees every link.
func (n *Network) Reset() {
	for i := range n.Links {
		n.Links[i].State = LinkFree
	}
	n.refreshWords()
}

// NumStages reports the highest stage index + 1 across boxes (0 for a
// network with no boxes).
func (n *Network) NumStages() int {
	s := 0
	for _, b := range n.Boxes {
		if b.Stage+1 > s {
			s = b.Stage + 1
		}
	}
	return s
}

// FreeLinks counts links in the free state.
func (n *Network) FreeLinks() int {
	c := 0
	for _, l := range n.Links {
		if l.State == LinkFree {
			c++
		}
	}
	return c
}

// validateCircuit checks that c's links form a contiguous free path from
// c.Proc to c.Res.
func (n *Network) validateCircuit(c Circuit, wantState LinkState) error {
	if len(c.Links) == 0 {
		return fmt.Errorf("circuit p%d->r%d: empty path", c.Proc, c.Res)
	}
	first := n.Links[c.Links[0]]
	if first.From != (Endpoint{KindProcessor, c.Proc, 0}) {
		return fmt.Errorf("circuit p%d->r%d: first link starts at %v", c.Proc, c.Res, first.From)
	}
	last := n.Links[c.Links[len(c.Links)-1]]
	if last.To != (Endpoint{KindResource, c.Res, 0}) {
		return fmt.Errorf("circuit p%d->r%d: last link ends at %v", c.Proc, c.Res, last.To)
	}
	for i := 0; i+1 < len(c.Links); i++ {
		a, b := n.Links[c.Links[i]], n.Links[c.Links[i+1]]
		if a.To.Kind != KindBox || b.From.Kind != KindBox || a.To.Index != b.From.Index {
			return fmt.Errorf("circuit p%d->r%d: links %d and %d do not meet at a box", c.Proc, c.Res, a.ID, b.ID)
		}
	}
	for _, lid := range c.Links {
		if n.Links[lid].State != wantState {
			return fmt.Errorf("circuit p%d->r%d: link %d is %v, want %v",
				c.Proc, c.Res, lid, n.Links[lid].State, wantState)
		}
	}
	return nil
}

// Establish marks the circuit's links occupied. It fails, changing nothing,
// if the path is not contiguous, any link is already occupied, or any link
// traverses a failed component (schedulers mask faults, so an attempt to
// establish across one indicates a scheduler bug or a racing failure).
func (n *Network) Establish(c Circuit) error {
	if err := n.validateCircuit(c, LinkFree); err != nil {
		return err
	}
	for _, lid := range c.Links {
		if !n.LinkUsable(lid) {
			return fmt.Errorf("circuit p%d->r%d: link %d traverses a failed component", c.Proc, c.Res, lid)
		}
	}
	for _, lid := range c.Links {
		n.setState(lid, LinkOccupied)
	}
	return nil
}

// Release frees the circuit's links. It fails, changing nothing, if the
// path is not contiguous or any link is not occupied.
func (n *Network) Release(c Circuit) error {
	if err := n.validateCircuit(c, LinkOccupied); err != nil {
		return err
	}
	for _, lid := range c.Links {
		n.setState(lid, LinkFree)
	}
	return nil
}

// FindPath depth-first searches for a path of free links from processor p
// to the resource for which goal returns true, honoring link occupancy and
// hardware faults. Returns nil when no path exists. The heuristic
// schedulers use it; the optimal scheduler never needs it.
func (n *Network) FindPath(p int, goal func(res int) bool) *Circuit {
	start := n.ProcLink[p]
	if start == -1 || n.Links[start].State != LinkFree || !n.LinkUsable(start) {
		return nil
	}
	visitedBox := make([]bool, len(n.Boxes))
	var path []int
	var dfs func(lid int) *Circuit
	dfs = func(lid int) *Circuit {
		l := n.Links[lid]
		if l.State != LinkFree || !n.LinkUsable(lid) {
			return nil
		}
		path = append(path, lid)
		defer func() { path = path[:len(path)-1] }()
		switch l.To.Kind {
		case KindResource:
			if goal(l.To.Index) {
				return &Circuit{Proc: p, Res: l.To.Index, Links: append([]int(nil), path...)}
			}
			return nil
		case KindBox:
			bi := l.To.Index
			if visitedBox[bi] {
				return nil
			}
			visitedBox[bi] = true
			for _, out := range n.Boxes[bi].Out {
				if out == -1 {
					continue
				}
				if c := dfs(out); c != nil {
					return c
				}
			}
			return nil
		}
		return nil
	}
	return dfs(start)
}

// String renders a structural summary (deterministic) for debugging.
func (n *Network) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d procs, %d ress, %d boxes, %d links, %d stages\n",
		n.Name, n.Procs, n.Ress, len(n.Boxes), len(n.Links), n.NumStages())
	ids := make([]int, len(n.Links))
	for i := range ids {
		ids[i] = i
	}
	sort.Ints(ids)
	for _, id := range ids {
		l := n.Links[id]
		state := ""
		if l.State == LinkOccupied {
			state = " (occupied)"
		}
		fmt.Fprintf(&sb, "  link%d: %v -> %v%s\n", id, l.From, l.To, state)
	}
	return sb.String()
}
