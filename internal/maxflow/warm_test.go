package maxflow

import (
	"math/rand"
	"testing"

	"rsin/internal/graph"
)

// warmFixture is a layered random DAG shaped like a Transformation-1
// network: source -> left column -> middle columns -> right column ->
// sink, every arc unit capacity.
type warmFixture struct {
	w       *Warm
	nodes   int
	srcArcs []int // one per left node
	arcs    [][2]int
}

func buildWarmFixture(rng *rand.Rand, cols, width int) *warmFixture {
	nodes := 2 + cols*width
	node := func(c, i int) int { return 2 + c*width + i }
	f := &warmFixture{nodes: nodes}
	f.w = NewWarm(nodes, 0, 1)
	add := func(u, v int) int {
		id := f.w.AddArc(u, v)
		f.arcs = append(f.arcs, [2]int{u, v})
		return id
	}
	for i := 0; i < width; i++ {
		f.srcArcs = append(f.srcArcs, add(0, node(0, i)))
	}
	for c := 0; c+1 < cols; c++ {
		for i := 0; i < width; i++ {
			deg := 1 + rng.Intn(2)
			for d := 0; d < deg; d++ {
				add(node(c, i), node(c+1, rng.Intn(width)))
			}
		}
	}
	for i := 0; i < width; i++ {
		add(node(cols-1, i), 1)
	}
	return f
}

// refValue solves the instance cold: a fresh graph.Network holding only
// the enabled, flow-free arcs (frozen units occupy their arcs exactly
// like occupied links leave Transformation 1).
func (f *warmFixture) refValue() int64 {
	g := graph.New(f.nodes, 0, 1)
	for id, uv := range f.arcs {
		if f.w.Enabled(id) && !f.w.Flow(id) {
			g.AddArc(uv[0], uv[1], 1, 0)
		}
	}
	return Dinic(g).Value
}

// solve runs one warm solve over every idle source arc and returns the
// units landed.
func (f *warmFixture) solve(c *Counters) int {
	f.w.BeginSolve()
	landed := 0
	for _, s := range f.srcArcs {
		if f.w.Augment(s, c) {
			landed++
		}
	}
	return landed
}

// retractNew decomposes the units landed by the last solve and clears
// them, restoring the pre-solve flow state.
func (f *warmFixture) retractNew(t *testing.T) {
	t.Helper()
	for _, s := range f.srcArcs {
		if !f.w.Flow(s) {
			continue
		}
		path, ok := f.w.AppendPathFrom(nil, s)
		if !ok {
			t.Fatalf("AppendPathFrom(nil, %d) failed on a loaded source arc", s)
		}
		if err := f.w.ClearPath(path); err != nil {
			t.Fatalf("ClearPath: %v", err)
		}
	}
}

// TestWarmMatchesDinic drives random instances through enable/disable
// deltas and checks every solve's value against a cold Dinic solve of
// the identical instance.
func TestWarmMatchesDinic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		f := buildWarmFixture(rng, 2+rng.Intn(3), 2+rng.Intn(5))
		// Start from a random instance, then mutate it between solves.
		for a := 0; a < f.w.NumArcs(); a++ {
			f.w.SetEnabled(a, rng.Intn(3) > 0)
		}
		for step := 0; step < 8; step++ {
			var c Counters
			want := f.refValue()
			got := int64(f.solve(&c))
			if got != want {
				t.Fatalf("trial %d step %d: warm landed %d units, cold says %d", trial, step, got, want)
			}
			f.retractNew(t)
			for k := 0; k < 1+rng.Intn(4); k++ {
				a := rng.Intn(f.w.NumArcs())
				f.w.SetEnabled(a, !f.w.Enabled(a) && !f.w.Flow(a))
			}
		}
	}
}

// TestWarmFrozenUnitsAreInvisible pins the freeze contract: a unit left
// on disabled arcs is neither rerouted by augmentation nor walked by
// decomposition, and re-enabling its arcs after ClearPath restores the
// capacity.
func TestWarmFrozenUnitsAreInvisible(t *testing.T) {
	// Two source arcs feeding routes that share the single sink-side arc.
	w := NewWarm(5, 0, 1)
	srcA := w.AddArc(0, 2)
	srcB := w.AddArc(0, 3)
	ab := w.AddArc(2, 4)
	bb := w.AddArc(3, 4)
	out := w.AddArc(4, 1)
	for _, a := range []int{srcA, srcB, ab, bb, out} {
		w.SetEnabled(a, true)
	}
	var c Counters
	w.BeginSolve()
	if !w.Augment(srcA, &c) {
		t.Fatal("first unit should land")
	}
	path, ok := w.AppendPathFrom(nil, srcA)
	if !ok {
		t.Fatal("decompose failed")
	}
	// Freeze the established circuit: disable its arcs, keep the flow.
	for _, a := range path {
		w.SetEnabled(a, false)
	}
	// The shared tail arc is now frozen: the second request must fail,
	// and must not cancel the frozen unit to get through.
	w.BeginSolve()
	if w.Augment(srcB, &c) {
		t.Fatal("augmentation rerouted a frozen unit")
	}
	if !w.Flow(srcA) || !w.Flow(ab) || !w.Flow(out) {
		t.Fatal("frozen flow was disturbed")
	}
	if _, ok := w.AppendPathFrom(nil, srcA); ok {
		t.Fatal("decomposition walked a frozen (disabled) unit")
	}
	// Release: clear the path, re-enable, and the blocked request lands.
	if err := w.ClearPath(path); err != nil {
		t.Fatalf("ClearPath: %v", err)
	}
	for _, a := range path {
		w.SetEnabled(a, true)
	}
	w.BeginSolve()
	if !w.Augment(srcB, &c) {
		t.Fatal("released capacity should admit the blocked request")
	}
}

// TestWarmClearPathErrors pins the divergence detection: retracting a
// path whose units are gone fails without mutating anything.
func TestWarmClearPathErrors(t *testing.T) {
	w := NewWarm(3, 0, 1)
	a := w.AddArc(0, 2)
	b := w.AddArc(2, 1)
	w.SetEnabled(a, true)
	w.SetEnabled(b, true)
	var c Counters
	w.BeginSolve()
	if !w.Augment(a, &c) {
		t.Fatal("augment failed")
	}
	if err := w.ClearPath([]int{a, b, b}); err == nil {
		t.Fatal("double-clear in one path should fail")
	} else if !w.Flow(a) || !w.Flow(b) {
		t.Fatal("failed ClearPath mutated flow state")
	}
	if err := w.ClearPath([]int{a, 99}); err == nil {
		t.Fatal("out-of-range arc should fail")
	}
	if err := w.ClearPath([]int{a, b}); err != nil {
		t.Fatalf("valid ClearPath: %v", err)
	}
	if err := w.ClearPath([]int{a}); err == nil {
		t.Fatal("clearing an idle arc should fail")
	}
}

// TestWarmDeadMarkingStillFindsAllUnits guards the node-retirement
// optimization: interleaving failing and succeeding sweeps in one solve
// must not retire nodes a later sweep needs. The fixture makes the
// first sweep fail (its resource column is saturated by a frozen unit)
// while the second sweep succeeds through a disjoint column.
func TestWarmDeadMarkingStillFindsAllUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		f := buildWarmFixture(rng, 3, 4)
		for a := 0; a < f.w.NumArcs(); a++ {
			f.w.SetEnabled(a, rng.Intn(4) > 0)
		}
		var c Counters
		// Shuffle augmentation order so failing sweeps run before and
		// after succeeding ones across trials.
		order := rng.Perm(len(f.srcArcs))
		f.w.BeginSolve()
		landed := int64(0)
		for _, i := range order {
			if f.w.Augment(f.srcArcs[i], &c) {
				landed++
			}
		}
		// Retract and recompute cold for the comparison.
		f.retractNew(t)
		if want := f.refValue(); landed != want {
			t.Fatalf("trial %d: warm landed %d, cold %d", trial, landed, want)
		}
	}
}

// TestWarmCommoditySweep drives the sequential-commodity primitives on the
// instance where freezing matters: commodity A (a -> x -> ra) and
// commodity B (b -> x -> rb) share node x. Every step of the sweep sets
// its own source and sink arcs, and EnableIdle drops A's loaded arcs from
// B's instance with their flow kept, so B can neither end at A's resource
// nor cancel A's unit.
func TestWarmCommoditySweep(t *testing.T) {
	const (
		s, tt   = 0, 1
		a, b    = 2, 3
		x       = 4
		ra, rb  = 5, 6
		nodes   = 7
		wordLen = 1
	)
	w := NewWarm(nodes, s, tt)
	srcA := w.AddArc(s, a)
	srcB := w.AddArc(s, b)
	ax := w.AddArc(a, x)
	bx := w.AddArc(b, x)
	xra := w.AddArc(x, ra)
	xrb := w.AddArc(x, rb)
	snkA := w.AddArc(ra, tt)
	snkB := w.AddArc(rb, tt)
	if w.ArcWords() != wordLen {
		t.Fatalf("fixture grew past one state word: %d", w.ArcWords())
	}
	bit := func(arcs ...int) uint64 {
		var m uint64
		for _, id := range arcs {
			m |= 1 << uint(id)
		}
		return m
	}
	links := bit(ax, bx, xra, xrb)
	var c Counters

	// Commodity A: its own source and sink arcs over every link.
	w.ClearFlow()
	w.EnableIdle([]uint64{links | bit(srcA, snkA)})
	w.BeginSolve()
	if !w.Augment(srcA, &c) {
		t.Fatal("commodity A should ship its unit")
	}
	path, ok := w.AppendPathFrom([]int{-1}, srcA)
	if !ok || len(path) != 5 || path[0] != -1 || path[1] != srcA || path[4] != snkA {
		t.Fatalf("AppendPathFrom = %v, %v", path, ok)
	}

	// Commodity B: A's arcs drop out of the instance with their flow kept.
	w.EnableIdle([]uint64{links | bit(srcB, snkB)})
	for _, id := range []int{srcA, ax, xra, snkA} {
		if w.Enabled(id) || !w.Flow(id) {
			t.Fatalf("arc %d of commodity A should be frozen: enabled=%v flow=%v", id, w.Enabled(id), w.Flow(id))
		}
	}
	w.BeginSolve()
	if !w.Augment(srcB, &c) {
		t.Fatal("commodity B should ship over the links A left")
	}
	if pb, ok := w.AppendPathFrom(nil, srcB); !ok || pb[len(pb)-1] != snkB {
		t.Fatalf("commodity B's unit ended at arc %v, want its own sink arc %d", pb, snkB)
	}
	if _, ok := w.AppendPathFrom(nil, srcA); ok {
		t.Fatal("decomposition walked commodity A's frozen unit")
	}

	// A new solve reuses the memory, not the flow.
	w.ClearFlow()
	for id := 0; id < w.NumArcs(); id++ {
		if w.Flow(id) {
			t.Fatalf("arc %d still loaded after ClearFlow", id)
		}
	}
}
