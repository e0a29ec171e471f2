// The race detector's instrumentation allocates on its own, which makes
// testing.AllocsPerRun read high; CI runs this guard in the plain
// (non-race) test job.
//go:build !race

package core_test

import (
	"math/rand"
	"testing"

	"rsin/internal/core"
	"rsin/internal/topology"
	"rsin/internal/workload"
)

// typedAllocInstance is a half-loaded Omega-16 with three striped
// resource types, the shape of the bench's typed_pool epochs.
func typedAllocInstance() (*topology.Network, []core.Request, []core.Avail) {
	net := topology.Omega(16)
	rng := rand.New(rand.NewSource(5))
	var reqs []core.Request
	var avail []core.Avail
	for i := 0; i < 16; i++ {
		if i%2 == 0 {
			reqs = append(reqs, core.Request{Proc: i, Type: rng.Intn(3)})
		}
		if i%4 != 3 {
			avail = append(avail, core.Avail{Res: i, Type: i % 3})
		}
	}
	return net, reqs, avail
}

// TestTypedEpochAllocs is the alloc guard of the typed solver: on a warm
// planner an epoch allocates nothing. The Mapping it returns, with its
// Assigned and Blocked slices, is the planner's, refilled by every decode;
// there is no graph, no map, no label, and no link slice (circuits decode
// into the planner's per-processor path slots). That holds for an epoch
// certified by the bound and for one the routing-table search settles.
func TestTypedEpochAllocs(t *testing.T) {
	chained := workload.AdversarialTyped()[0]
	rows := []struct {
		name   string
		search bool // the epoch misses the bound and the search settles it
		build  func() (*topology.Network, []core.Request, []core.Avail)
	}{
		{"bound met", false, typedAllocInstance},
		{"bound missed, search", true, func() (*topology.Network, []core.Request, []core.Avail) {
			return chained.Net, chained.Reqs, chained.Avail
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			net, reqs, avail := row.build()
			var planner core.Planner
			m, err := planner.ScheduleHetero(net, reqs, avail, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Solve.MultiFastPath || m.Solve.MultiLP || m.Solve.MultiSearch != row.search ||
				m.Allocated() == 0 || len(m.Blocked) == 0 {
				t.Fatalf("the instance must be certified (search %v) with grants and blocked requests: %+v, %d assigned, %d blocked",
					row.search, m.Solve, m.Allocated(), len(m.Blocked))
			}
			got := testing.AllocsPerRun(200, func() {
				if _, err := planner.ScheduleHetero(net, reqs, avail, nil); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Fatalf("a certified epoch on a warm planner allocated %.0f times, want 0: its mapping is the planner's", got)
			}
		})
	}
}
