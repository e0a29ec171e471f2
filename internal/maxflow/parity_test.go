package maxflow

import "testing"

// TestOpsCounterParity pins the operation-counter convention the warm
// arena shares with the cold solvers, so warm-vs-cold ratios and the
// ops-per-task CI gate stay apples-to-apples:
//
//   - per-arc primitives (Augment's probes) charge one ArcScan per
//     residual arc whose state is examined;
//   - word-granular primitives (ResidualWord, BuildCut, CutBlocked)
//     charge one ArcScan per 64-arc word examined — one machine op in
//     the §IV instruction model;
//   - LoadWords charges no ArcScans at all: it is the commit half of a
//     probe the caller already paid for through counted ResidualWord
//     fetches, and its revalidation is an uncounted software assertion;
//   - NodeVisits counts nodes whose adjacency is expanded, excluding the
//     sink; successful commits and landed units charge one Augmentation.
//
// The arena is a straight chain source(0) -> 2 -> 3 -> sink(1) whose CSR
// layout (counting sort by arc id) makes every charge exactly derivable.
func TestOpsCounterParity(t *testing.T) {
	w := NewWarm(4, 0, 1)
	a0 := w.AddArc(0, 2) // source arc
	a1 := w.AddArc(2, 3) // interior link
	a2 := w.AddArc(3, 1) // sink arc
	for _, a := range []int{a0, a1, a2} {
		w.SetEnabled(a, true)
	}
	w.BeginSolve()

	mask := uint64(1)<<uint(a0) | uint64(1)<<uint(a1) | uint64(1)<<uint(a2)
	words := []PathWord{{Word: 0, Mask: mask}}

	// ResidualWord: exactly one scan per fetch.
	var c Counters
	if got := w.ResidualWord(0, &c); got&mask != mask {
		t.Fatalf("ResidualWord(0) = %b, want the chain free (mask %b)", got, mask)
	}
	if want := (Counters{ArcScans: 1}); c != want {
		t.Fatalf("ResidualWord ops = %+v, want %+v", c, want)
	}

	// LoadWords: the probe above already paid; the commit itself charges
	// only the Augmentation.
	c = Counters{}
	if !w.LoadWords(words, &c) {
		t.Fatal("LoadWords failed on an idle chain")
	}
	if want := (Counters{Augmentations: 1}); c != want {
		t.Fatalf("LoadWords ops = %+v, want %+v", c, want)
	}
	w.ClearFlow()

	// Augment on the idle chain: source-arc probe (1), then the DFS
	// expands nodes 2 and 3 (the sink is never expanded), scanning each
	// node's two residual arcs: reverse-of-entry (no capacity) and the
	// forward continuation.
	c = Counters{}
	if !w.Augment(a0, &c) {
		t.Fatal("Augment failed on an idle chain")
	}
	if want := (Counters{Augmentations: 1, ArcScans: 5, NodeVisits: 2}); c != want {
		t.Fatalf("Augment ops = %+v, want %+v", c, want)
	}
	w.ClearFlow()

	// Failed search and its certificate. With the sink arc disabled the
	// same sweep dead-ends at node 3 (same 5 scans, no augmentation),
	// retiring nodes 2 and 3; BuildCut then reads the one state word, and
	// CutBlocked revalidates the one-word F side (R is empty: the only
	// into-the-dead-set arc is the exempt source arc).
	w.SetEnabled(a2, false)
	w.BeginSolve()
	c = Counters{}
	if w.Augment(a0, &c) {
		t.Fatal("Augment succeeded over a disabled sink arc")
	}
	if want := (Counters{ArcScans: 5, NodeVisits: 2}); c != want {
		t.Fatalf("failed Augment ops = %+v, want %+v", c, want)
	}
	c = Counters{}
	cut := w.BuildCut(Cut{}, &c)
	if want := (Counters{ArcScans: 1}); c != want {
		t.Fatalf("BuildCut ops = %+v, want %+v", c, want)
	}
	if len(cut.F) != 1 || cut.F[0].Mask != uint64(1)<<uint(a2) || len(cut.R) != 0 {
		t.Fatalf("cut = %+v, want F={word 0: sink arc}, R empty", cut)
	}
	c = Counters{}
	if !w.CutBlocked(cut, &c) {
		t.Fatal("certificate did not hold on unchanged state")
	}
	if want := (Counters{ArcScans: 1}); c != want {
		t.Fatalf("CutBlocked ops = %+v, want %+v", c, want)
	}

	// Re-enabling the sink arc puts forward residual on the F side: the
	// certificate must stop holding (and still charge its word).
	w.SetEnabled(a2, true)
	c = Counters{}
	if w.CutBlocked(cut, &c) {
		t.Fatal("certificate held after the cut arc was re-enabled")
	}
	if want := (Counters{ArcScans: 1}); c != want {
		t.Fatalf("CutBlocked (stale) ops = %+v, want %+v", c, want)
	}
}
