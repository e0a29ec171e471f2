package topology

import "testing"

// pathValid checks that a table path is a wirable processor->resource
// circuit: starts at p's link, ends at r's link, and consecutive links
// share a box.
func pathValid(t *testing.T, n *Network, p, r int, links []int32) {
	t.Helper()
	if len(links) == 0 {
		t.Fatalf("pair (%d,%d): empty path", p, r)
	}
	first := n.Links[links[0]]
	if first.From != (Endpoint{KindProcessor, p, 0}) {
		t.Fatalf("pair (%d,%d): path starts at %v", p, r, first.From)
	}
	last := n.Links[links[len(links)-1]]
	if last.To != (Endpoint{KindResource, r, 0}) {
		t.Fatalf("pair (%d,%d): path ends at %v", p, r, last.To)
	}
	for i := 0; i+1 < len(links); i++ {
		a, b := n.Links[links[i]], n.Links[links[i+1]]
		if a.To.Kind != KindBox || b.From.Kind != KindBox || a.To.Index != b.From.Index {
			t.Fatalf("pair (%d,%d): links %d,%d do not meet at a box", p, r, links[i], links[i+1])
		}
	}
}

func TestRoutingTableOmegaUniquePaths(t *testing.T) {
	n := Omega(16)
	rt := NewRoutingTable(n)
	if rt == nil {
		t.Fatal("NewRoutingTable(Omega(16)) = nil")
	}
	if got, want := rt.NumPaths(), 16*16; got != want {
		t.Fatalf("NumPaths = %d, want %d (one per pair)", got, want)
	}
	for p := 0; p < n.Procs; p++ {
		for r := 0; r < n.Ress; r++ {
			lo, hi := rt.PairPaths(p, r)
			if hi-lo != 1 {
				t.Fatalf("pair (%d,%d): %d paths, want 1", p, r, hi-lo)
			}
			pathValid(t, n, p, r, rt.PathLinks(lo))
		}
	}
}

func TestRoutingTableBenesMultiplePaths(t *testing.T) {
	n := Benes(8)
	rt := NewRoutingTable(n)
	if rt == nil {
		t.Fatal("NewRoutingTable(Benes(8)) = nil")
	}
	// Benes(2^k) has 2^(k-1) paths per pair: one per middle-stage choice.
	for p := 0; p < n.Procs; p++ {
		for r := 0; r < n.Ress; r++ {
			lo, hi := rt.PairPaths(p, r)
			if hi-lo != 4 {
				t.Fatalf("pair (%d,%d): %d paths, want 4", p, r, hi-lo)
			}
			for j := lo; j < hi; j++ {
				pathValid(t, n, p, r, rt.PathLinks(j))
			}
		}
	}
}

func TestRoutingTableExtraStageDoubling(t *testing.T) {
	n := OmegaExtra(8, 1)
	rt := NewRoutingTable(n)
	if rt == nil {
		t.Fatal("NewRoutingTable(OmegaExtra(8,1)) = nil")
	}
	lo, hi := rt.PairPaths(3, 5)
	if hi-lo != 2 {
		t.Fatalf("omega+1 pair: %d paths, want 2", hi-lo)
	}
}

func TestRoutingTableCapOverflow(t *testing.T) {
	// A Benes wide enough that per-pair path count (n/2) exceeds the cap
	// must yield no table.
	n := Benes(128)
	if rt := NewRoutingTable(n); rt != nil {
		t.Fatalf("Benes(128) (64 paths/pair) built a table with %d paths; want nil", rt.NumPaths())
	}
}
