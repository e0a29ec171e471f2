package graph

import (
	"strings"
	"testing"
)

// diamond builds the classic 4-node diamond: s -> a,b -> t.
func diamond(t *testing.T) (*Network, [4]int) {
	t.Helper()
	g := New(4, 0, 3)
	g.SetName(0, "s")
	g.SetName(1, "a")
	g.SetName(2, "b")
	g.SetName(3, "t")
	var ids [4]int
	ids[0] = g.AddArc(0, 1, 2, 1) // s->a
	ids[1] = g.AddArc(0, 2, 1, 2) // s->b
	ids[2] = g.AddArc(1, 3, 2, 3) // a->t
	ids[3] = g.AddArc(2, 3, 2, 4) // b->t
	return g, ids
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	cases := []struct {
		name            string
		n, source, sink int
	}{
		{"too few nodes", 1, 0, 0},
		{"source out of range", 3, 3, 1},
		{"negative source", 3, -1, 1},
		{"sink out of range", 3, 0, 3},
		{"source equals sink", 3, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d,%d,%d) did not panic", tc.n, tc.source, tc.sink)
				}
			}()
			New(tc.n, tc.source, tc.sink)
		})
	}
}

func TestAddArcPanics(t *testing.T) {
	g := New(3, 0, 2)
	for _, fn := range []func(){
		func() { g.AddArc(-1, 1, 1, 0) },
		func() { g.AddArc(0, 3, 1, 0) },
		func() { g.AddArc(0, 1, -1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("AddArc accepted invalid input")
				}
			}()
			fn()
		}()
	}
}

func TestAddNodeGrowsNetwork(t *testing.T) {
	g := New(2, 0, 1)
	v := g.AddNode("bypass")
	if v != 2 || g.NumNodes() != 3 {
		t.Fatalf("AddNode: got index %d, nodes %d; want 2, 3", v, g.NumNodes())
	}
	if g.Name(v) != "bypass" {
		t.Fatalf("Name(%d) = %q, want bypass", v, g.Name(v))
	}
	g.AddArc(0, v, 1, 0) // must not panic
}

func TestNameDefaults(t *testing.T) {
	g := New(2, 0, 1)
	if got := g.Name(1); got != "n1" {
		t.Fatalf("unnamed node renders %q, want n1", got)
	}
	g.SetName(1, "t")
	if got := g.Name(1); got != "t" {
		t.Fatalf("named node renders %q, want t", got)
	}
}

func TestValueAndExcess(t *testing.T) {
	g, ids := diamond(t)
	g.Arcs[ids[0]].Flow = 2
	g.Arcs[ids[1]].Flow = 1
	g.Arcs[ids[2]].Flow = 2
	g.Arcs[ids[3]].Flow = 1
	if v := g.Value(); v != 3 {
		t.Fatalf("Value = %d, want 3", v)
	}
	if e := g.Excess(1); e != 0 {
		t.Fatalf("Excess(a) = %d, want 0", e)
	}
	if err := g.CheckLegal(); err != nil {
		t.Fatalf("legal flow rejected: %v", err)
	}
	if c := g.Cost(); c != 2*1+1*2+2*3+1*4 {
		t.Fatalf("Cost = %d, want 14", c)
	}
}

func TestCheckLegalDetectsCapacityViolation(t *testing.T) {
	g, ids := diamond(t)
	g.Arcs[ids[1]].Flow = 5 // capacity 1
	if err := g.CheckLegal(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("capacity violation not reported: %v", err)
	}
	g.Arcs[ids[1]].Flow = -1
	if err := g.CheckLegal(); err == nil {
		t.Fatal("negative flow not reported")
	}
}

func TestCheckLegalDetectsConservationViolation(t *testing.T) {
	g, ids := diamond(t)
	g.Arcs[ids[0]].Flow = 1 // into a, nothing out
	err := g.CheckLegal()
	if err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("conservation violation not reported: %v", err)
	}
}

func TestDecomposePathsUnitFlows(t *testing.T) {
	g, ids := diamond(t)
	g.Arcs[ids[0]].Flow = 1
	g.Arcs[ids[2]].Flow = 1
	g.Arcs[ids[1]].Flow = 1
	g.Arcs[ids[3]].Flow = 1
	paths, err := g.DecomposePaths()
	if err != nil {
		t.Fatalf("DecomposePaths: %v", err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	var total int64
	for _, p := range paths {
		total += p.Amt
		if g.Arcs[p.Arcs[0]].From != g.Source || g.Arcs[p.Arcs[len(p.Arcs)-1]].To != g.Sink {
			t.Fatalf("path %v does not run s->t", p.Arcs)
		}
	}
	if total != g.Value() {
		t.Fatalf("decomposed %d units, flow value %d", total, g.Value())
	}
}

func TestDecomposePathsMultiUnit(t *testing.T) {
	g, ids := diamond(t)
	g.Arcs[ids[0]].Flow = 2
	g.Arcs[ids[2]].Flow = 2
	paths, err := g.DecomposePaths()
	if err != nil {
		t.Fatalf("DecomposePaths: %v", err)
	}
	if len(paths) != 1 || paths[0].Amt != 2 {
		t.Fatalf("got %+v, want single path of 2 units", paths)
	}
}

func TestDecomposePathsRejectsIllegalFlow(t *testing.T) {
	g, ids := diamond(t)
	g.Arcs[ids[0]].Flow = 1 // conservation violated at a
	if _, err := g.DecomposePaths(); err == nil {
		t.Fatal("illegal flow decomposed without error")
	}
}

func TestDecomposePathsEmptyFlow(t *testing.T) {
	g, _ := diamond(t)
	paths, err := g.DecomposePaths()
	if err != nil || len(paths) != 0 {
		t.Fatalf("zero flow: got %d paths, err %v", len(paths), err)
	}
}

func TestResidualReachableAndMinCut(t *testing.T) {
	g, ids := diamond(t)
	// Saturate the max flow by hand: value 3 (s->a cap 2, s->b cap 1).
	g.Arcs[ids[0]].Flow = 2
	g.Arcs[ids[1]].Flow = 1
	g.Arcs[ids[2]].Flow = 2
	g.Arcs[ids[3]].Flow = 1
	side := g.ResidualReachable()
	if !side[g.Source] || side[g.Sink] {
		t.Fatalf("cut side wrong: %v", side)
	}
	if cut := g.MinCutCapacity(); cut != 3 {
		t.Fatalf("MinCutCapacity = %d, want 3", cut)
	}
}

func TestResidualReachableUsesBackwardArcs(t *testing.T) {
	// s -> a -> t with flow 1, plus b -> a. From s nothing forward remains,
	// but b must stay unreachable; from t backward reachability through the
	// flow arc is what matters for augmenting-path logic, checked via a
	// partial flow: s->a saturated, a->t has slack.
	g := New(4, 0, 3)
	sa := g.AddArc(0, 1, 1, 0)
	g.AddArc(1, 3, 2, 0)
	g.AddArc(2, 1, 1, 0) // b->a, no flow
	g.Arcs[sa].Flow = 0
	side := g.ResidualReachable()
	if !side[1] || !side[3] {
		t.Fatal("forward residual reachability broken")
	}
	if side[2] {
		t.Fatal("node b should be unreachable (its arc points into the reachable set)")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, ids := diamond(t)
	c := g.Clone()
	c.Arcs[ids[0]].Flow = 2
	c.SetName(1, "changed")
	if g.Arcs[ids[0]].Flow != 0 {
		t.Fatal("Clone shares arc storage")
	}
	if g.Name(1) == "changed" {
		t.Fatal("Clone shares name storage")
	}
	c.AddArc(0, 3, 1, 0)
	if len(g.Out(0)) == len(c.Out(0)) {
		t.Fatal("Clone shares adjacency storage")
	}
}

func TestResetFlow(t *testing.T) {
	g, ids := diamond(t)
	g.Arcs[ids[0]].Flow = 2
	g.ResetFlow()
	for i, a := range g.Arcs {
		if a.Flow != 0 {
			t.Fatalf("arc %d flow not reset", i)
		}
	}
}

func TestStringIsDeterministicAndLabeled(t *testing.T) {
	g, ids := diamond(t)
	g.Arcs[ids[3]].Label = "link b-t"
	s1, s2 := g.String(), g.String()
	if s1 != s2 {
		t.Fatal("String not deterministic")
	}
	if !strings.Contains(s1, "[link b-t]") {
		t.Fatalf("label missing from rendering:\n%s", s1)
	}
	if !strings.Contains(s1, "source=s sink=t") {
		t.Fatalf("header missing names:\n%s", s1)
	}
}

func TestOutInAdjacency(t *testing.T) {
	g, ids := diamond(t)
	if len(g.Out(0)) != 2 || len(g.In(3)) != 2 {
		t.Fatal("adjacency sizes wrong")
	}
	if g.Out(1)[0] != ids[2] {
		t.Fatal("Out(a) should contain a->t")
	}
	if g.In(1)[0] != ids[0] {
		t.Fatal("In(a) should contain s->a")
	}
}
