package system

import (
	"testing"

	"rsin/internal/core"
	"rsin/internal/topology"
)

// cycleStates are the standing states BenchmarkSystemCycleNoopSolver and
// TestBankerCycleAllocs cycle on. Each is built with the real solver where
// it needs grants to get there, then a fake installed through the solver
// seam grants nothing, so the state — and the work of a cycle apart from
// its solve: hooks, the gang gate, the banker's admission, the assembly of
// reqs/avail — is the same every iteration.
var cycleStates = []struct {
	name   string
	banker bool
	build  func(tb testing.TB) *System
}{
	// 64 processors requesting on Omega-64, the greedy path.
	{"untyped", false, func(tb testing.TB) *System {
		s := newCycleSystem(tb, Config{Net: topology.Omega(64)})
		for p := 0; p < 64; p++ {
			mustSubmit(tb, s, Task{Proc: p})
		}
		return s
	}},
	// The same under the banker with an active gang among the requesters:
	// the composite entity, 62 first-contact singletons.
	{"banker+gang", true, func(tb testing.TB) *System {
		s := newCycleSystem(tb, Config{Net: topology.Omega(64), Avoidance: AvoidanceBankers})
		if _, _, err := s.SubmitGang([]Task{{Proc: 0}, {Proc: 1}}); err != nil {
			tb.Fatal(err)
		}
		for p := 2; p < 64; p++ {
			mustSubmit(tb, s, Task{Proc: p})
		}
		return s
	}},
	// The gangs workload's steady state: Omega-32 with every unit held — by
	// six provisioned 4-member gangs and eight provisioned singletons —
	// four more gangs waiting behind them and a singleton queued on every
	// processor, so every admission fails on an empty free count.
	{"banker+gangs saturated", true, func(tb testing.TB) *System {
		s := newCycleSystem(tb, Config{Net: topology.Omega(32), Avoidance: AvoidanceBankers})
		gang := func(first int) {
			m := []Task{{Proc: first}, {Proc: first + 1}, {Proc: first + 2}, {Proc: first + 3}}
			if _, _, err := s.SubmitGang(m); err != nil {
				tb.Fatal(err)
			}
		}
		for g := 0; g < 6; g++ {
			gang(4 * g)
		}
		for p := 24; p < 32; p++ {
			mustSubmit(tb, s, Task{Proc: p})
		}
		provisionAll(tb, s)
		if s.FreeResources() != 0 {
			tb.Fatalf("%d resources still unheld", s.FreeResources())
		}
		for g := 0; g < 4; g++ {
			gang(4 * g)
		}
		for p := 0; p < 32; p++ {
			mustSubmit(tb, s, Task{Proc: p})
		}
		return s
	}},
	// Omega-16 x 3 types, need vectors over two types each: every task holds
	// the unit of its first type and requests one of its second, so each
	// admission moves a committed two-type row.
	{"banker typed", true, func(tb testing.TB) *System {
		types := make([]int, 16)
		for r := range types {
			types[r] = r % 3
		}
		s := newCycleSystem(tb, Config{Net: topology.Omega(16), Discipline: Hetero, Types: types, Avoidance: AvoidanceBankers})
		for p := 0; p < 8; p++ {
			mustSubmit(tb, s, Task{Proc: p, Needs: map[int]int{p % 3: 1, (p + 1) % 3: 1}})
		}
		r := deliver(tb, s)
		if r.Granted == 0 || len(s.led.owner) != r.Granted {
			tb.Fatalf("granted %d first units, %d committed rows", r.Granted, len(s.led.owner))
		}
		for p := 8; p < 16; p++ {
			mustSubmit(tb, s, Task{Proc: p, Needs: map[int]int{p % 3: 1, (p + 1) % 3: 1}})
		}
		return s
	}},
}

func newCycleSystem(tb testing.TB, cfg Config) *System {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// deliver runs one cycle with the real solver and ends its transmissions.
func deliver(tb testing.TB, s *System) *CycleResult {
	tb.Helper()
	r := cycle(tb, s)
	for _, a := range r.Mapping.Assigned {
		if err := s.EndTransmission(a.Req.Proc); err != nil {
			tb.Fatal(err)
		}
	}
	return r
}

// provisionAll cycles until a cycle grants nothing.
func provisionAll(tb testing.TB, s *System) {
	tb.Helper()
	for deliver(tb, s).Granted > 0 {
	}
}

// freeze installs the solver that grants nothing and runs the one cycle
// that settles the state (the gate admits whoever it is going to admit).
// It returns what every later cycle must repeat: the requests the solver is
// handed and the requests the banker withholds.
func freeze(tb testing.TB, s *System) (requests *int, deferred int) {
	tb.Helper()
	requests, nothing := new(int), &core.Mapping{}
	s.solve = func(reqs []core.Request, avail []core.Avail) (*core.Mapping, error) {
		*requests = len(reqs)
		return nothing, nil
	}
	r := cycle(tb, s)
	return requests, r.Deferred
}

// BenchmarkSystemCycleNoopSolver measures what a cycle costs apart from
// its solve, on each of cycleStates.
func BenchmarkSystemCycleNoopSolver(b *testing.B) {
	for _, st := range cycleStates {
		b.Run(st.name, func(b *testing.B) {
			s := st.build(b)
			requests, deferred := freeze(b, s)
			want := *requests
			if want+deferred == 0 {
				b.Fatal("nobody requests in this state")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := s.Cycle()
				if err != nil {
					b.Fatal(err)
				}
				if r.Deferred != deferred {
					b.Fatalf("cycle deferred %d requests, the first %d: the state moved", r.Deferred, deferred)
				}
			}
			if *requests != want {
				b.Fatalf("the solver saw %d requests, the first time %d: the state moved", *requests, want)
			}
		})
	}
}

// TestBankerCycleAllocs pins what the ledger bought: a cycle under the
// banker allocates its CycleResult and, when it solves nothing, the empty
// Mapping — no snapshot, no map, no per-admission copy — whatever the
// number of entities, gangs and types in play.
func TestBankerCycleAllocs(t *testing.T) {
	for _, st := range cycleStates {
		if !st.banker {
			continue
		}
		t.Run(st.name, func(t *testing.T) {
			s := st.build(t)
			_, deferred := freeze(t, s)
			if err := ledgerMismatch(s); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if r, err := s.Cycle(); err != nil || r.Deferred != deferred {
					t.Fatalf("cycle: %v, deferred %d want %d", err, r.Deferred, deferred)
				}
			})
			if allocs > 2 {
				t.Errorf("a banker'd cycle allocates %.0f objects, want at most 2 (CycleResult, empty Mapping)", allocs)
			}
		})
	}
}
