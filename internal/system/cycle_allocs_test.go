package system

import (
	"runtime"
	"testing"

	"rsin/internal/topology"
)

// TestCycleAllocs pins a warm scheduling cycle at zero allocations under
// each planner path the service runs: MaxFlow, MinCost settled by
// certification on the max-flow arena, and typed. A cycle hands back the
// System's reused CycleResult and the planner's Mapping, refilled by every
// decode (valid until the next solve), and its circuits' links are the
// planner's path slots, so nothing in it is made per cycle. The trace keeps
// Omega-16 busy: every idle processor submits, each cycle's grants end
// their transmissions, and half the provisioned tasks end their service
// each round, so cycles grant and block. Only the Cycle calls are counted,
// from the eleventh on: the first solves build the arena and size the
// planner's and the System's scratch to the largest epoch. Odd
// processors need two units, so demand outruns the free pool and
// requests block.
func TestCycleAllocs(t *testing.T) {
	types := make([]int, 16)
	for r := range types {
		types[r] = r % 3
	}
	rows := []struct {
		name string
		cfg  Config
		task func(p int) Task
	}{
		{"maxflow", Config{Net: topology.Omega(16)}, func(p int) Task { return Task{Proc: p, Need: 1 + p%2} }},
		{"mincost certified", Config{Net: topology.Omega(16), Discipline: MinCost}, func(p int) Task { return Task{Proc: p, Need: 1 + p%2, Priority: int64(p % 4)} }},
		{"typed", Config{Net: topology.Omega(16), Discipline: Hetero, Types: types}, func(p int) Task {
			if p%2 == 0 {
				return Task{Proc: p, Needs: map[int]int{p % 3: 1}}
			}
			return Task{Proc: p, Needs: map[int]int{p % 3: 1, (p + 1) % 3: 1}}
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s := newCycleSystem(t, row.cfg)
			owner := make([]TaskID, 16)
			for p := range owner {
				owner[p] = -1
			}
			var before, after runtime.MemStats
			var total uint64
			granted, blocked, certified := 0, 0, 0
			const cycles, warm = 200, 10
			for c := 0; c < cycles+warm; c++ {
				for p, id := range owner {
					if id == -1 {
						owner[p] = mustSubmit(t, s, row.task(p))
					}
				}
				// No collection may be under way while the cycle runs: the
				// collector's own bookkeeping would count as the cycle's.
				runtime.GC()
				runtime.ReadMemStats(&before)
				r := cycle(t, s)
				runtime.ReadMemStats(&after)
				if c >= warm {
					total += after.Mallocs - before.Mallocs
					granted += r.Granted
					blocked += len(r.Mapping.Blocked)
					if r.Mapping.Solve.Certified {
						certified++
					}
				}
				for _, a := range r.Mapping.Assigned {
					if err := s.EndTransmission(a.Req.Proc); err != nil {
						t.Fatal(err)
					}
				}
				for p, id := range owner {
					if s.Remaining(id) == 0 && (p+c)%2 == 0 {
						if err := s.EndService(id); err != nil {
							t.Fatal(err)
						}
						owner[p] = -1
					}
				}
			}
			t.Logf("%d objects over %d cycles: %d grants, %d blocked, %d certified", total, cycles, granted, blocked, certified)
			if granted == 0 || blocked == 0 || row.cfg.Discipline == MinCost && certified == 0 {
				t.Fatalf("did not exercise: %d grants, %d blocked, %d certified cycles", granted, blocked, certified)
			}
			if total != 0 {
				t.Errorf("%d warm cycles allocated %d objects, want 0", cycles, total)
			}
		})
	}
}
