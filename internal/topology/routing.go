// Combinatorial routing tables. The paper's §II observation about
// Omega-class multistage networks — and the disjoint-path analyses of
// the same fabrics in the related work — is that every (processor,
// resource) pair has a unique or very small set of source-sink paths,
// fixed by the wiring. A scheduler that knows those paths up front can
// resolve most grants by probing a handful of links combinatorially
// instead of running a flow search over the whole residual network;
// internal/core's arena solver does exactly that, falling back to
// max-flow augmentation only on conflict.

package topology

// Routing-table construction caps. A table is only worth holding when
// the per-pair path sets are small (Omega: 1, Benes(2^k): 2^(k-1),
// Clos(n,m,r): m); fabrics whose path counts blow past these caps —
// large random networks, say — get no table and always use flow search.
const (
	// MaxPathsPerPair bounds the candidate set of one (proc, res) pair.
	MaxPathsPerPair = 32
	// maxTableLinks bounds the total link-id storage of one table.
	maxTableLinks = 1 << 21
)

// RoutingTable is the static path enumeration of one Network: for every
// (processor, resource) pair, every loop-free link path between them,
// laid out CSR-style — pair k's path indices are pairOff[k]..pairOff[k+1],
// and path j's link ids are linkSeq[pathOff[j]:pathOff[j+1]] (processor
// link first, resource link last).
//
// The table is the wiring and nothing else: it never changes after
// construction and holds neither circuit occupancy nor hardware faults.
// Callers probe candidate paths against live link state at grant time,
// and a link that is busy or unusable under a fault fails that probe
// alike. Being immutable, a table is safe for concurrent readers.
type RoutingTable struct {
	ress    int
	pairOff []int32 // len procs*ress+1, indexes pathOff
	pathOff []int32 // len numPaths+1, indexes linkSeq
	linkSeq []int32 // concatenated link ids of every path
}

// NewRoutingTable enumerates every (processor, resource) path of the
// network. It returns nil when any pair's path count exceeds
// MaxPathsPerPair or the total storage exceeds the table cap — the
// signal that this fabric is not of the few-paths class and flow search
// should be used unconditionally.
func NewRoutingTable(n *Network) *RoutingTable {
	t := &RoutingTable{
		ress:    n.Ress,
		pairOff: make([]int32, n.Procs*n.Ress+1),
		pathOff: []int32{0},
	}

	// Per-processor DFS over the loop-free box graph, collecting the
	// path to every resource it can reach. Paths are gathered per pair
	// (p, r) in r order so the CSR emit below is a straight append.
	perRes := make([][][]int32, n.Ress)
	var stack []int32
	overflow := false
	var dfs func(lid int)
	dfs = func(lid int) {
		if overflow {
			return
		}
		stack = append(stack, int32(lid))
		to := n.Links[lid].To
		switch to.Kind {
		case KindResource:
			r := to.Index
			if len(perRes[r]) >= MaxPathsPerPair {
				overflow = true
			} else {
				perRes[r] = append(perRes[r], append([]int32(nil), stack...))
			}
		case KindBox:
			for _, out := range n.Boxes[to.Index].Out {
				if out != -1 {
					dfs(out)
				}
			}
		}
		stack = stack[:len(stack)-1]
	}

	total := 0
	for p := 0; p < n.Procs; p++ {
		for r := range perRes {
			perRes[r] = perRes[r][:0]
		}
		if lid := n.ProcLink[p]; lid != -1 {
			dfs(lid)
		}
		if overflow {
			return nil
		}
		for r := 0; r < n.Ress; r++ {
			for _, path := range perRes[r] {
				t.linkSeq = append(t.linkSeq, path...)
				t.pathOff = append(t.pathOff, int32(len(t.linkSeq)))
				total += len(path)
				if total > maxTableLinks {
					return nil
				}
			}
			t.pairOff[p*n.Ress+r+1] = int32(len(t.pathOff) - 1)
		}
	}
	return t
}

// NumPaths reports the total number of enumerated paths.
func (t *RoutingTable) NumPaths() int { return len(t.pathOff) - 1 }

// PairPaths returns the half-open range of path indices for the
// (processor, resource) pair; iterate it with PathLinks.
func (t *RoutingTable) PairPaths(p, r int) (int32, int32) {
	k := p*t.ress + r
	return t.pairOff[k], t.pairOff[k+1]
}

// PathLinks returns path j's link ids, processor link first, resource
// link last. The slice aliases the table; callers must not modify it.
func (t *RoutingTable) PathLinks(j int32) []int32 {
	return t.linkSeq[t.pathOff[j]:t.pathOff[j+1]]
}
