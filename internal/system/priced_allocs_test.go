package system

import (
	"math/rand"
	"runtime"
	"testing"

	"rsin/internal/netsimplex"
	"rsin/internal/topology"
)

// pricedCycleAllocBound is the recorded ceiling on the mean allocations of
// one banker'd MinCost cycle in TestPricedCycleAllocs' tiered trace. What
// remains is the result a cycle hands back — the CycleResult, the Mapping
// with its Assigned and Blocked slices, the exchanges it made — and the
// banker's scratch: about 6 a cycle, 8 with exchanges. Circuits decode into
// the planner's per-processor path slots, so a link slice per circuit
// (about 9 grants a cycle here) reads above the bound, and a per-pivot or
// per-solve rebuild reads in the thousands.
const pricedCycleAllocBound = 12

// TestPricedCycleAllocs pins the cost of a priced epoch in allocations.
// A warm network simplex solve on a reused basis allocates nothing, and a
// banker'd MinCost System.Cycle on Omega-32 with tiered requests stays
// within pricedCycleAllocBound on average, with tier exchanges or without.
func TestPricedCycleAllocs(t *testing.T) {
	t.Run("warm solve", func(t *testing.T) {
		w, target, reprice := pricedArena(32)
		flip := false
		allocs := testing.AllocsPerRun(200, func() {
			flip = !flip
			reprice(flip)
			res, used, err := w.Solve(target, true)
			if err != nil || !used || res.Ops.Augmentations == 0 {
				t.Fatalf("solve: err %v, basis reused %v, %d pivots", err, used, res.Ops.Augmentations)
			}
		})
		if allocs != 0 {
			t.Errorf("a warm solve on a reused basis allocates %.1f objects, want 0", allocs)
		}
	})
	t.Run("mincost cycle", func(t *testing.T) {
		if exchanges := pricedCycleTrace(t, false); exchanges != 0 {
			t.Fatalf("%d exchanges without Preempt", exchanges)
		}
	})
	// The same trace with the exchange planner on: the victims' revokes and
	// the beneficiaries' admissions ride inside the cycle, under the same
	// bound.
	t.Run("mincost cycle with Preempt", func(t *testing.T) {
		if exchanges := pricedCycleTrace(t, true); exchanges == 0 {
			t.Fatal("did not exercise: the trace made no exchange")
		}
	})
}

// pricedCycleTrace runs TestPricedCycleAllocs' tiered trace — every
// processor of a banker'd MinCost Omega-32 kept busy with a tier-k task of
// Need 1 or 2 — holds the mean allocations of its cycles to
// pricedCycleAllocBound and returns the exchanges made.
func pricedCycleTrace(t *testing.T, preempt bool) (exchanges int) {
	s := newCycleSystem(t, Config{Net: topology.Omega(32), Discipline: MinCost, Avoidance: AvoidanceBankers, Preempt: preempt})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(27))
	owner := make([]TaskID, 32)
	for p := range owner {
		owner[p] = -1
	}
	var ms runtime.MemStats
	var total uint64
	granted := 0
	const cycles = 300
	for c := 0; c < cycles+1; c++ {
		for p := range owner {
			if owner[p] == -1 {
				owner[p] = mustSubmit(t, s, Task{Proc: p, Tier: rng.Intn(MaxTier + 1), Priority: rng.Int63n(1000), Need: 1 + rng.Intn(2)})
			}
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		r := cycle(t, s)
		runtime.ReadMemStats(&ms)
		if c > 0 { // the first solve builds the arena
			total += ms.Mallocs - before
			granted += r.Granted
		}
		exchanges += len(r.Preempted)
		for _, a := range r.Mapping.Assigned {
			if err := s.EndTransmission(a.Req.Proc); err != nil {
				t.Fatal(err)
			}
		}
		for p, id := range owner {
			if s.Remaining(id) == 0 && rng.Intn(2) == 0 {
				if err := s.EndService(id); err != nil {
					t.Fatal(err)
				}
				owner[p] = -1
			}
		}
	}
	if granted == 0 {
		t.Fatal("the trace granted nothing")
	}
	mean := float64(total) / cycles
	t.Logf("%.1f allocations per cycle, %d grants and %d exchanges over %d cycles", mean, granted, exchanges, cycles)
	if mean > pricedCycleAllocBound {
		t.Errorf("a banker'd MinCost cycle allocates %.1f objects on average, bound %d", mean, pricedCycleAllocBound)
	}
	return exchanges
}

// pricedArena builds a Transformation 2 shaped arena — source, n
// processors, n resources, a bypass node, sink — with every processor
// requesting and a random half of the processor-resource pairs linked,
// banks a first basis from the all-bypass flow, and returns it with the
// flow value and a reprice function that flips between two cost vectors
// and reloads the all-bypass flow, so every later Solve on the reused
// basis has pivots to do.
func pricedArena(n int) (*netsimplex.Warm, int64, func(alt bool)) {
	const src, sink = 0, 1
	proc := func(p int) int { return 2 + p }
	res := func(r int) int { return 2 + n + r }
	byp := 2 + 2*n
	w := netsimplex.NewWarm(byp+1, src, sink)
	rng := rand.New(rand.NewSource(1986))
	type priced struct {
		id          int
		cost, cost2 int64
	}
	var req, bypass []int
	var links []priced
	for p := 0; p < n; p++ {
		req = append(req, w.AddArc(src, proc(p)))
		bypass = append(bypass, w.AddArc(proc(p), byp))
		for r := 0; r < n; r++ {
			if rng.Intn(2) == 0 {
				links = append(links, priced{w.AddArc(proc(p), res(r)), rng.Int63n(50), rng.Int63n(50)})
			}
		}
	}
	var sinks []int
	for r := 0; r < n; r++ {
		sinks = append(sinks, w.AddArc(res(r), sink))
	}
	bypSink := w.AddArc(byp, sink)
	reprice := func(alt bool) {
		for _, id := range req {
			w.SetArc(id, 1, 0)
		}
		for _, id := range bypass {
			w.SetArc(id, 1, 1000)
		}
		for _, l := range links {
			c := l.cost
			if alt {
				c = l.cost2
			}
			w.SetArc(l.id, 1, c)
		}
		for _, id := range sinks {
			w.SetArc(id, 1, 0)
		}
		w.SetArc(bypSink, int64(n), 0)
		w.ResetFlow()
		for p := 0; p < n; p++ {
			w.SetFlow(req[p], 1)
			w.SetFlow(bypass[p], 1)
		}
		w.SetFlow(bypSink, int64(n))
	}
	reprice(false)
	if _, _, err := w.Solve(int64(n), false); err != nil {
		panic(err)
	}
	return w, int64(n), reprice
}
