package netsimplex

import (
	"fmt"
	"math/rand"
	"testing"

	"rsin/internal/graph"
	"rsin/internal/maxflow"
)

// withTreeCheck runs fn with pivotHook installed: after every pivot the
// incrementally maintained parent, parentArc, depth and pi are compared
// to a from-scratch rebuildTree over a copy of the arc states. The tree
// and pi[root] = 0 determine all four uniquely, so any difference is an
// update bug, and pricing on a wrong pi would pick a different pivot.
func withTreeCheck(t *testing.T, fn func()) int {
	t.Helper()
	pivots := 0
	pivotHook = func(sx *simplex) {
		pivots++
		if err := treeMatchesRebuild(sx); err != nil {
			t.Fatalf("pivot %d: %v", pivots, err)
		}
	}
	defer func() { pivotHook = nil }()
	fn()
	return pivots
}

// treeMatchesRebuild rebuilds sx's tree from scratch on a copy and
// reports the first node whose tree fields differ.
func treeMatchesRebuild(sx *simplex) error {
	var ref simplex
	ref.init(sx.total)
	ref.arcs = append([]arc(nil), sx.arcs...)
	if err := ref.rebuildTree(); err != nil {
		return err
	}
	for v := 0; v < sx.total; v++ {
		if sx.parent[v] != ref.parent[v] || sx.parentArc[v] != ref.parentArc[v] ||
			sx.depth[v] != ref.depth[v] || sx.pi[v] != ref.pi[v] {
			return fmt.Errorf("node %d: parent %d/%d, parentArc %d/%d, depth %d/%d, pi %d/%d (incremental/rebuilt)",
				v, sx.parent[v], ref.parent[v], sx.parentArc[v], ref.parentArc[v],
				sx.depth[v], ref.depth[v], sx.pi[v], ref.pi[v])
		}
	}
	return nil
}

// treeTrial drives both front ends over g with the per-pivot check on:
// the three-engine cross-check (one-shot MinCostFlow at every target)
// and a Warm arena solved cold, then re-solved on its reused basis after
// a cost jitter. It returns the pivots checked.
func treeTrial(t *testing.T, g *graph.Network, rng *rand.Rand, tag string) int {
	t.Helper()
	return withTreeCheck(t, func() {
		crossCheck(t, g, tag)
		start := g.Clone()
		mf := maxflow.Dinic(start)
		w, ids := buildArena(start)
		if _, _, err := w.Solve(mf.Value, false); err != nil {
			t.Fatalf("%s: warm: %v", tag, err)
		}
		for i := range g.Arcs {
			w.SetArc(ids[i], g.Arcs[i].Cap, g.Arcs[i].Cost+rng.Int63n(5)-2)
		}
		w.ResetFlow()
		for i := range start.Arcs {
			w.SetFlow(ids[i], start.Arcs[i].Flow)
		}
		if _, _, err := w.Solve(mf.Value, true); err != nil {
			t.Fatalf("%s: reused basis: %v", tag, err)
		}
	})
}

// TestPivotTreeDifferential holds the subtree update to a whole-tree
// rebuild after every pivot, on TestQuickCrossSolver's instance family
// and on FuzzMinCostEngines' seed corpus.
func TestPivotTreeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	pivots := 0
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		g := testutilUnitWithCosts(rand.New(rand.NewSource(rng.Int63())))
		pivots += treeTrial(t, g, rng, fmt.Sprintf("quick %d", trial))
	}
	for i, c := range fuzzCorpus {
		g := fuzzInstance(c.seed, c.stages, c.width, c.costBias)
		pivots += treeTrial(t, g, rng, fmt.Sprintf("corpus %d", i))
	}
	if pivots == 0 {
		t.Fatal("no pivot was checked")
	}
	t.Logf("%d pivots checked", pivots)
}
