package mincost

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"rsin/internal/graph"
	"rsin/internal/maxflow"
	"rsin/internal/testutil"
)

// costDiamond: two s-t routes with different costs.
func costDiamond() *graph.Network {
	g := graph.New(4, 0, 3)
	g.AddArc(0, 1, 2, 1) // s->a cheap
	g.AddArc(0, 2, 2, 5) // s->b expensive
	g.AddArc(1, 3, 2, 1) // a->t
	g.AddArc(2, 3, 2, 1) // b->t
	return g
}

func solvers() map[string]func(*graph.Network, int64) (Result, error) {
	return map[string]func(*graph.Network, int64) (Result, error){
		"SSP": SuccessiveShortestPaths,
		"OOK": OutOfKilter,
	}
}

func TestCheapRouteChosenFirst(t *testing.T) {
	for name, solve := range solvers() {
		t.Run(name, func(t *testing.T) {
			g := costDiamond()
			res, err := solve(g, 2)
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if res.Value != 2 || res.Cost != 4 {
				t.Fatalf("got value=%d cost=%d, want 2, 4 (all via cheap route)", res.Value, res.Cost)
			}
			if err := g.CheckLegal(); err != nil {
				t.Fatalf("illegal flow: %v", err)
			}
			if g.Cost() != res.Cost {
				t.Fatalf("network cost %d != reported %d", g.Cost(), res.Cost)
			}
		})
	}
}

func TestSplitAcrossRoutes(t *testing.T) {
	for name, solve := range solvers() {
		t.Run(name, func(t *testing.T) {
			g := costDiamond()
			res, err := solve(g, 4)
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if res.Value != 4 || res.Cost != 2*2+6*2 {
				t.Fatalf("got value=%d cost=%d, want 4, 16", res.Value, res.Cost)
			}
		})
	}
}

func TestInfeasibleTarget(t *testing.T) {
	g := costDiamond()
	_, err := SuccessiveShortestPaths(g, 5)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("SSP: want ErrInfeasible, got %v", err)
	}
	// Partial assignment left behind is the min-cost max flow.
	if g.Value() != 4 {
		t.Fatalf("partial flow %d, want max flow 4", g.Value())
	}
	g2 := costDiamond()
	if _, err := OutOfKilter(g2, 5); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("OOK: want ErrInfeasible, got %v", err)
	}
}

func TestZeroTarget(t *testing.T) {
	for name, solve := range solvers() {
		g := costDiamond()
		res, err := solve(g, 0)
		if err != nil || res.Value != 0 || res.Cost != 0 {
			t.Fatalf("%s zero target: %+v err=%v", name, res, err)
		}
	}
}

// TestCancellationNeeded forces the optimum to reroute flow placed by an
// earlier cheap augmentation: the classic network where the greedy shortest
// path must later be partially cancelled via a negative-cost residual arc.
func TestCancellationNeeded(t *testing.T) {
	// s->a(1,$1), s->b(1,$10), a->b(1,$0), a->t(1,$10), b->t(1,$1)
	// Flow 2 optimum: s->a->b->t ($2) + s->b? b full... s->a cap 1.
	// Routes: {s-a-t, s-b-t} cost 1+10+10+1=22, or {s-a-b-t, s-b-?}
	// infeasible; optimum is 22? Let's instead make a->b cap 1 and check
	// flow 2 = s-a-b-t + s-b-t impossible (b->t cap 1). True optimum for
	// F=2: s-a-t + s-b-t = 22 vs s-a-b-t + s-b-t shares b->t. So 22.
	// For F=1: s-a-b-t = 2, which SSP finds first; pushing to F=2 must
	// cancel a->b. Final cost 22 proves cancellation worked.
	g := graph.New(4, 0, 3)
	g.AddArc(0, 1, 1, 1)  // s->a
	g.AddArc(0, 2, 1, 10) // s->b
	g.AddArc(1, 2, 1, 0)  // a->b
	g.AddArc(1, 3, 1, 10) // a->t
	g.AddArc(2, 3, 1, 1)  // b->t
	for name, solve := range solvers() {
		h := g.Clone()
		res, err := solve(h, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cost != 22 {
			t.Fatalf("%s: cost %d, want 22", name, res.Cost)
		}
	}
}

// TestSSPEqualsOOKOnRandomNetworks is the cross-algorithm optimality check:
// both methods must find identical minimum costs at the max-flow value.
func TestSSPEqualsOOKOnRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		g := testutil.RandomNetwork(rng, 2+rng.Intn(10), 0.3, 5, 8)
		mf := maxflow.Dinic(g.Clone())
		if mf.Value == 0 {
			continue
		}
		target := 1 + rng.Int63n(mf.Value)
		g1, g2 := g.Clone(), g.Clone()
		r1, err1 := SuccessiveShortestPaths(g1, target)
		r2, err2 := OutOfKilter(g2, target)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: unexpected errors %v / %v (target %d <= maxflow %d)",
				trial, err1, err2, target, mf.Value)
		}
		if r1.Cost != r2.Cost || r1.Value != target || r2.Value != target {
			t.Fatalf("trial %d: SSP %+v vs OOK %+v (target %d)", trial, r1, r2, target)
		}
		if g1.CheckLegal() != nil || g2.CheckLegal() != nil {
			t.Fatalf("trial %d: illegal flows", trial)
		}
	}
}

func TestQuickMinCostLegalAndOptimalValue(t *testing.T) {
	f := func(seed int64, nRaw, tRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomNetwork(rng, 2+int(nRaw%8), 0.35, 4, 6)
		mf := maxflow.Dinic(g.Clone())
		if mf.Value == 0 {
			return true
		}
		target := 1 + int64(tRaw)%mf.Value
		res, err := SuccessiveShortestPaths(g, target)
		if err != nil || res.Value != target {
			return false
		}
		return g.CheckLegal() == nil && g.Value() == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOpsCounters(t *testing.T) {
	g := costDiamond()
	res, err := SuccessiveShortestPaths(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops.Augmentations == 0 || res.Ops.ArcScans == 0 {
		t.Fatalf("SSP counters empty: %+v", res.Ops)
	}
	g2 := costDiamond()
	res2, err := OutOfKilter(g2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Ops.Augmentations == 0 {
		t.Fatalf("OOK counters empty: %+v", res2.Ops)
	}
}
