package maxflow

import (
	"math/rand"
	"testing"

	"rsin/internal/testutil"
)

// TestCountersAdd pins the accumulation semantics the monitor cost model
// depends on: Add sums every field, the zero value is an identity, and
// accumulation over algorithm runs is monotone.
func TestCountersAdd(t *testing.T) {
	a := Counters{Augmentations: 1, Phases: 2, ArcScans: 3, NodeVisits: 4}
	b := Counters{Augmentations: 10, Phases: 20, ArcScans: 30, NodeVisits: 40}
	a.Add(b)
	want := Counters{Augmentations: 11, Phases: 22, ArcScans: 33, NodeVisits: 44}
	if a != want {
		t.Fatalf("Add: got %+v, want %+v", a, want)
	}
	var zero Counters
	a.Add(zero)
	if a != want {
		t.Fatalf("adding zero changed counters: %+v", a)
	}
	zero.Add(want)
	if zero != want {
		t.Fatalf("zero.Add: got %+v, want %+v", zero, want)
	}
}

// TestCountersMonotone accumulates the counters of real computations and
// asserts every field stays non-negative and non-decreasing — the property
// the §IV monitor cost model needs from its instruction counts.
func TestCountersMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var acc Counters
	prev := acc
	for i := 0; i < 20; i++ {
		g := testutil.RandomUnitNetwork(rng, 3, 6, 0.4)
		res := Dinic(g)
		if res.Ops.Augmentations < 0 || res.Ops.Phases < 0 || res.Ops.ArcScans < 0 || res.Ops.NodeVisits < 0 {
			t.Fatalf("negative counter: %+v", res.Ops)
		}
		acc.Add(res.Ops)
		if acc.ArcScans < prev.ArcScans || acc.NodeVisits < prev.NodeVisits ||
			acc.Augmentations < prev.Augmentations || acc.Phases < prev.Phases {
			t.Fatalf("accumulation not monotone: %+v after %+v", acc, prev)
		}
		prev = acc
	}
	if acc.ArcScans == 0 || acc.NodeVisits == 0 {
		t.Fatalf("counters never advanced: %+v", acc)
	}
}
