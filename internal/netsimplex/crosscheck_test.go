package netsimplex

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"rsin/internal/graph"
	"rsin/internal/maxflow"
	"rsin/internal/mincost"
)

// crossCheck runs all three optimal engines on the instance and fails the
// test on any objective divergence, for every feasible target value. It
// returns the common optimal cost at maximum flow (0 if the instance is
// trivially empty).
func crossCheck(t *testing.T, g *graph.Network, tag string) int64 {
	t.Helper()
	mf := maxflow.Dinic(g.Clone())
	if mf.Value == 0 {
		return 0
	}
	var last int64
	for target := int64(1); target <= mf.Value; target++ {
		r1, err1 := MinCostFlow(g.Clone(), target)
		r2, err2 := mincost.SuccessiveShortestPaths(g.Clone(), target)
		r3, err3 := mincost.OutOfKilter(g.Clone(), target)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("%s target %d: errors simplex=%v ssp=%v ook=%v", tag, target, err1, err2, err3)
		}
		if r1.Cost != r2.Cost || r1.Cost != r3.Cost {
			t.Fatalf("%s target %d: simplex %d vs ssp %d vs ook %d",
				tag, target, r1.Cost, r2.Cost, r3.Cost)
		}
		last = r1.Cost
	}
	// Above max flow the three must agree on infeasibility too.
	for _, solve := range []func(*graph.Network, int64) (mincost.Result, error){
		MinCostFlow, mincost.SuccessiveShortestPaths, mincost.OutOfKilter,
	} {
		if _, err := solve(g.Clone(), mf.Value+1); !errors.Is(err, mincost.ErrInfeasible) {
			t.Fatalf("%s: over-target not ErrInfeasible: %v", tag, err)
		}
	}
	return last
}

// TestQuickCrossSolver is the testing/quick property: on randomized 0-1
// capacity networks with signed (including negative) costs, the three
// optimal min-cost engines report one objective for every feasible target
// and agree on infeasibility beyond max flow.
func TestQuickCrossSolver(t *testing.T) {
	trials := 0
	prop := func(seed int64) bool {
		trials++
		rng := rand.New(rand.NewSource(seed))
		g := testutilUnitWithCosts(rng)
		crossCheck(t, g, "quick")
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if trials == 0 {
		t.Fatal("quick generated no instances")
	}
}

// FuzzMinCostEngines is the fuzzable form of the same property, with a
// seed corpus covering the regimes that historically disagreed: all-zero
// costs (degenerate ties), all-negative costs, and mixed signs.
func FuzzMinCostEngines(f *testing.F) {
	for _, c := range fuzzCorpus {
		f.Add(c.seed, c.stages, c.width, c.costBias)
	}
	f.Fuzz(func(t *testing.T, seed int64, stages, width uint8, costBias int64) {
		g := fuzzInstance(seed, stages, width, costBias)
		withTreeCheck(t, func() { crossCheck(t, g, "fuzz") })
	})
}

// fuzzCorpus is FuzzMinCostEngines' seed corpus, shared with the per-pivot
// tree differential.
var fuzzCorpus = []struct {
	seed          int64
	stages, width uint8
	costBias      int64
}{
	{1, 2, 3, 4},
	{42, 3, 2, 0},   // all costs ~0: tie-heavy
	{7, 4, 4, -6},   // negative-leaning costs
	{211, 2, 5, 12}, // wide positive spread
}

// fuzzInstance decodes one FuzzMinCostEngines input into a layered 0-1
// network with costs centred on costBias.
func fuzzInstance(seed int64, stages, width uint8, costBias int64) *graph.Network {
	s := 1 + int(stages%4)
	w := 1 + int(width%5)
	if costBias > 1<<20 || costBias < -(1<<20) {
		costBias %= 1 << 20
	}
	rng := rand.New(rand.NewSource(seed))
	n := s * w
	g := graph.New(n+2, 0, n+1)
	node := func(st, i int) int { return 1 + st*w + i }
	cost := func() int64 { return costBias + rng.Int63n(9) - 4 }
	for i := 0; i < w; i++ {
		g.AddArc(0, node(0, i), 1, cost())
		g.AddArc(node(s-1, i), n+1, 1, cost())
	}
	for st := 0; st+1 < s; st++ {
		for i := 0; i < w; i++ {
			for j := 0; j < w; j++ {
				if rng.Intn(2) == 0 {
					g.AddArc(node(st, i), node(st+1, j), 1, cost())
				}
			}
		}
	}
	return g
}

// TestNegativeCostRegressions pins small hand-built instances in the
// negative-cost regime as fixtures. The zig-zag instance forces flow
// cancellation through a negative arc; the tie instance has two optima of
// equal cost, where an engine is free to pick either assignment but not a
// different objective.
func TestNegativeCostRegressions(t *testing.T) {
	// Zig-zag: s->a (cost -5), a->t (cost 10), s->b (cost 1), b->t (-1),
	// a->b (-3). Optimal 2 units: s->a->b->t (-9) + s->a->t (5) vs
	// s->b->t (0): engines must all find cost -4 for target 2.
	g := graph.New(4, 0, 3)
	g.AddArc(0, 1, 2, -5) // s->a
	g.AddArc(1, 3, 1, 10) // a->t
	g.AddArc(0, 2, 1, 1)  // s->b
	g.AddArc(2, 3, 2, -1) // b->t
	g.AddArc(1, 2, 1, -3) // a->b
	if got := crossCheck(t, g, "zigzag"); got != -4 {
		t.Fatalf("zigzag full-flow cost %d, want -4", got)
	}

	// Equal-cost optima: two disjoint paths of identical total cost.
	h := graph.New(4, 0, 3)
	h.AddArc(0, 1, 1, -2)
	h.AddArc(1, 3, 1, 5)
	h.AddArc(0, 2, 1, 4)
	h.AddArc(2, 3, 1, -1)
	if got := crossCheck(t, h, "tie"); got != 6 {
		t.Fatalf("tie full-flow cost %d, want 6", got)
	}
}
