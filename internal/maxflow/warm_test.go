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

// decompose walks every unit the last solve landed back to a path, as a
// planner's decode does.
func (f *warmFixture) decompose(t *testing.T) {
	t.Helper()
	for _, s := range f.srcArcs {
		if !f.w.Flow(s) {
			continue
		}
		if _, ok := f.w.AppendPathFrom(nil, s); !ok {
			t.Fatalf("AppendPathFrom(nil, %d) failed on a loaded source arc", s)
		}
	}
}

// TestWarmMatchesDinic solves random instances, mutating their membership
// between solves on one reused arena, and checks every solve's value
// against a cold Dinic solve of the identical instance.
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
			f.decompose(t)
			f.w.ClearFlow()
			for k := 0; k < 1+rng.Intn(4); k++ {
				a := rng.Intn(f.w.NumArcs())
				f.w.SetEnabled(a, !f.w.Enabled(a))
			}
		}
	}
}

// TestWarmFrozenUnitsAreInvisible pins the freeze contract: a unit left
// on disabled arcs is neither rerouted by augmentation nor walked by
// decomposition, and the next solve's ClearFlow and EnableIdle restore the
// capacity.
func TestWarmFrozenUnitsAreInvisible(t *testing.T) {
	// Two source arcs feeding routes that share the single sink-side arc.
	w := NewWarm(5, 0, 1)
	srcA := w.AddArc(0, 2)
	srcB := w.AddArc(0, 3)
	ab := w.AddArc(2, 4)
	bb := w.AddArc(3, 4)
	out := w.AddArc(4, 1)
	all := []uint64{1<<uint(srcA) | 1<<uint(srcB) | 1<<uint(ab) | 1<<uint(bb) | 1<<uint(out)}
	w.ClearFlow()
	w.EnableIdle(all)
	var c Counters
	w.BeginSolve()
	if !w.Augment(srcA, &c) {
		t.Fatal("first unit should land")
	}
	if _, ok := w.AppendPathFrom(nil, srcA); !ok {
		t.Fatal("decompose failed")
	}
	// Freeze the established circuit: EnableIdle drops its loaded arcs
	// from the instance and keeps the flow.
	w.EnableIdle(all)
	for _, a := range []int{srcA, ab, out} {
		if w.Enabled(a) {
			t.Fatalf("loaded arc %d stayed enabled", a)
		}
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
	// The next solve starts empty: the blocked request lands.
	w.ClearFlow()
	w.EnableIdle(all)
	w.BeginSolve()
	if !w.Augment(srcB, &c) {
		t.Fatal("released capacity should admit the blocked request")
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
		// Empty the arena and recompute cold for the comparison.
		f.decompose(t)
		f.w.ClearFlow()
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

// The arena readers and the one-arc toggle below serve the tests only:
// the service sets membership a word at a time, through EnableIdle.

// NumArcs reports the number of logical arcs.
func (w *Warm) NumArcs() int { return w.nArcs }

// Enabled reports whether arc a is part of the current instance.
func (w *Warm) Enabled(a int) bool { return w.enabled.Get(a) }

// SetEnabled toggles arc a's membership in the instance and reports
// whether the state changed. Disabling an arc that carries flow is legal
// and freezes the unit in place; enabling an arc that carries flow is a
// caller bug — the stale unit would saturate the arc — so a caller starts
// each instance with ClearFlow (EnableIdle never enables a loaded arc).
func (w *Warm) SetEnabled(a int, on bool) bool {
	if w.enabled.Get(a) == on {
		return false
	}
	w.enabled.SetTo(a, on)
	return true
}
