package core

import "testing"

// simulateCollective runs the phase sequence over a model where each rank
// keeps, per chunk, the set of ranks whose contribution it has absorbed
// (for unreduced partials) — sending a chunk merges the sender's set into
// the receiver's; a rank holding a FULLY reduced chunk transfers the full
// set. Returns contrib[rank][chunk] = set of contributing ranks.
func simulateCollective(k int, phases []Phase) [][]map[int]bool {
	contrib := make([][]map[int]bool, k)
	for r := 0; r < k; r++ {
		contrib[r] = make([]map[int]bool, k)
		for c := 0; c < k; c++ {
			contrib[r][c] = map[int]bool{r: true} // own contribution only
		}
	}
	for _, ph := range phases {
		// All sends within a phase read pre-phase state (concurrent).
		type delta struct{ to, chunk, from int }
		var deltas []delta
		for _, tr := range ph {
			deltas = append(deltas, delta{tr.To, tr.Chunk, tr.From})
		}
		snapshots := make([]map[int]bool, len(deltas))
		for i, d := range deltas {
			snap := map[int]bool{}
			for r := range contrib[d.from][d.chunk] {
				snap[r] = true
			}
			snapshots[i] = snap
		}
		for i, d := range deltas {
			for r := range snapshots[i] {
				contrib[d.to][d.chunk][r] = true
			}
		}
	}
	return contrib
}

func TestLowerRingAllReduce(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8} {
		phases, err := LowerCollective(RingAllReduce, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(phases) != 2*(k-1) {
			t.Fatalf("k=%d: %d phases, want %d", k, len(phases), 2*(k-1))
		}
		checkRingShape(t, k, phases)
		contrib := simulateCollective(k, phases)
		for r := 0; r < k; r++ {
			for c := 0; c < k; c++ {
				if len(contrib[r][c]) != k {
					t.Fatalf("k=%d: rank %d chunk %d has %d of %d contributions after allreduce",
						k, r, c, len(contrib[r][c]), k)
				}
			}
		}
	}
}

func TestLowerReduceScatter(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8} {
		phases, err := LowerCollective(RingReduceScatter, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(phases) != k-1 {
			t.Fatalf("k=%d: %d phases, want %d", k, len(phases), k-1)
		}
		checkRingShape(t, k, phases)
		contrib := simulateCollective(k, phases)
		// Every rank must end owning at least one fully reduced chunk.
		for r := 0; r < k; r++ {
			full := 0
			for c := 0; c < k; c++ {
				if len(contrib[r][c]) == k {
					full++
				}
			}
			if full < 1 {
				t.Fatalf("k=%d: rank %d holds no fully reduced chunk after reduce-scatter", k, r)
			}
		}
		// And every chunk is fully reduced somewhere.
		for c := 0; c < k; c++ {
			found := false
			for r := 0; r < k; r++ {
				if len(contrib[r][c]) == k {
					found = true
				}
			}
			if !found {
				t.Fatalf("k=%d: chunk %d never fully reduced", k, c)
			}
		}
	}
}

// checkRingShape pins the per-phase structure: every rank sends exactly
// once and receives exactly once, always to its ring successor.
func checkRingShape(t *testing.T, k int, phases []Phase) {
	t.Helper()
	for pi, ph := range phases {
		if len(ph) != k {
			t.Fatalf("phase %d has %d transfers, want %d", pi, len(ph), k)
		}
		if cap(ph) != k {
			t.Fatalf("phase %d has capacity %d: an append to it would overwrite the next phase", pi, cap(ph))
		}
		sent, recv := map[int]bool{}, map[int]bool{}
		for _, tr := range ph {
			if tr.To != (tr.From+1)%k {
				t.Fatalf("phase %d: transfer %+v is not a ring hop", pi, tr)
			}
			if tr.Chunk < 0 || tr.Chunk >= k {
				t.Fatalf("phase %d: transfer %+v chunk out of range", pi, tr)
			}
			if sent[tr.From] || recv[tr.To] {
				t.Fatalf("phase %d: rank sends or receives twice", pi)
			}
			sent[tr.From], recv[tr.To] = true, true
		}
	}
}

func TestLowerCollectiveErrors(t *testing.T) {
	if _, err := LowerCollective(RingAllReduce, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := LowerCollective(Collective(99), 4); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}
