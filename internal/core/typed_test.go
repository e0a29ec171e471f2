package core_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rsin/internal/core"
	"rsin/internal/multiflow"
	"rsin/internal/topology"
	"rsin/internal/workload"
)

// checkTyped holds a typed mapping to the instance it answers: every
// request assigned or blocked exactly once, each assignment a distinct free
// resource of the requested type, and the circuits establishing cleanly on
// a copy of the (possibly faulted) fabric — contiguous, over free and
// usable links, link-disjoint.
func checkTyped(t testing.TB, net *topology.Network, reqs []core.Request, avail []core.Avail, m *core.Mapping) {
	t.Helper()
	want := map[int]core.Request{}
	for _, r := range reqs {
		want[r.Proc] = r
	}
	offered := map[int]int{}
	for _, a := range avail {
		offered[a.Res] = a.Type
	}
	if len(m.Assigned)+len(m.Blocked) != len(reqs) {
		t.Fatalf("%d assigned + %d blocked for %d requests", len(m.Assigned), len(m.Blocked), len(reqs))
	}
	seenRes := map[int]bool{}
	for _, a := range m.Assigned {
		if r, ok := want[a.Req.Proc]; !ok || r != a.Req {
			t.Fatalf("assignment %+v answers no request", a)
		}
		delete(want, a.Req.Proc)
		ty, ok := offered[a.Res]
		if !ok || ty != a.Req.Type || seenRes[a.Res] {
			t.Fatalf("request %+v got resource %d (offered %v as type %d, reused %v)", a.Req, a.Res, ok, ty, seenRes[a.Res])
		}
		seenRes[a.Res] = true
		if a.Circuit.Proc != a.Req.Proc || a.Circuit.Res != a.Res {
			t.Fatalf("assignment %+v carries circuit p%d->r%d", a, a.Circuit.Proc, a.Circuit.Res)
		}
	}
	for _, r := range m.Blocked {
		if w, ok := want[r.Proc]; !ok || w != r {
			t.Fatalf("blocked %+v is not an unanswered request", r)
		}
		delete(want, r.Proc)
	}
	if err := m.Apply(net.Clone()); err != nil {
		t.Fatalf("mapping does not establish on the fabric: %v", err)
	}
}

// oracleTyped is the exact integral optimum by LP branch-and-bound on the
// raw multicommodity network: none of the planner's code is in it.
func oracleTyped(t testing.TB, net *topology.Network, reqs []core.Request, avail []core.Avail) int {
	t.Helper()
	g, comms := core.BuildMulticommodity(net, reqs, avail)
	bb, err := multiflow.BranchAndBound(g, comms, nil, 0)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if bb.Truncated {
		t.Fatalf("oracle ran out of nodes on %s", net.Name)
	}
	return int(math.Round(bb.Total))
}

// checkAgainstOracle runs the default path and the Exact path on one
// instance and holds both to the oracle: Exact equals it; the default path
// equals it whenever it reports a zero gap, is never more than its gap
// below it, and never above its own bound. It returns the default mapping.
func checkAgainstOracle(t testing.TB, name string, net *topology.Network, reqs []core.Request, avail []core.Avail) *core.Mapping {
	t.Helper()
	def, err := core.ScheduleHetero(net, reqs, avail, nil)
	if err != nil {
		t.Fatalf("%s: default: %v", name, err)
	}
	exact, err := core.ScheduleHetero(net, reqs, avail, &core.HeteroOptions{Exact: true})
	if err != nil {
		t.Fatalf("%s: exact: %v", name, err)
	}
	oracle := oracleTyped(t, net, reqs, avail)
	if exact.Allocated() != oracle || exact.Solve.MultiGap != 0 {
		t.Fatalf("%s: exact path allocated %d (gap %d), oracle %d", name, exact.Allocated(), exact.Solve.MultiGap, oracle)
	}
	if def.Solve.MultiGap == 0 && def.Allocated() != oracle {
		t.Fatalf("%s: zero-gap path allocated %d, oracle %d (solve %+v)", name, def.Allocated(), oracle, def.Solve)
	}
	if def.Allocated()+def.Solve.MultiGap < oracle {
		t.Fatalf("%s: allocated %d + gap %d below oracle %d", name, def.Allocated(), def.Solve.MultiGap, oracle)
	}
	if float64(def.Allocated()) > def.Solve.MultiLPBound+1e-6 {
		t.Fatalf("%s: allocated %d above its own bound %v", name, def.Allocated(), def.Solve.MultiLPBound)
	}
	if def.Solve.MultiFastPath && (def.Solve.MultiGreedy || def.Solve.MultiGap != 0) {
		t.Fatalf("%s: certified with a gap: %+v", name, def.Solve)
	}
	checkTyped(t, net, reqs, avail, def)
	checkTyped(t, net, reqs, avail, exact)
	return def
}

// pathOf reports how a typed epoch was settled.
func pathOf(m *core.Mapping) workload.TypedPath {
	switch {
	case m.Solve.MultiLP:
		return workload.ByLP
	case m.Solve.MultiSearch:
		return workload.BySearch
	}
	return workload.ByBound
}

// TestDifferentialMulticommodityVsOracle cross-checks the typed epoch
// solver against the exact branch-and-bound oracle: across the restricted
// topologies under fault churn, and on the adversarial instances that
// leave the common path. The run must have seen all three ways an epoch is
// settled — the combinatorial bound met, the bound missed and the
// routing-table search settling it, and the LP reached (no routing table,
// or a search out of nodes) — or the comparison proved nothing about one
// of them — and among the LP epochs one on a fabric with a routing table,
// whose search ran out of nodes. A search-settled epoch claims a zero gap,
// so checkAgainstOracle holds it to the oracle exactly; the instance whose
// search runs out of nodes stops a solver that takes an exhausted search
// for a proof.
func TestDifferentialMulticommodityVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	builders := []func() *topology.Network{
		func() *topology.Network { return topology.Omega(8) },
		func() *topology.Network { return topology.Benes(8) },
		func() *topology.Network { return topology.Clos(2, 2, 3) },
	}
	trials := 36
	if testing.Short() {
		trials = 12
	}
	var settled [3]int // by workload.TypedPath
	exhausted := 0     // LP epochs on a fabric with a routing table to search
	tally := func(net *topology.Network, m *core.Mapping) {
		settled[pathOf(m)]++
		if pathOf(m) == workload.ByLP && topology.NewRoutingTable(net) != nil {
			exhausted++
		}
	}
	// The first `trials` instances draw from three types; as many again
	// draw from five, where the solver no longer tries every type order
	// but reverse, starved-first and rotations (TestTypedOrderSequence).
	for trial := 0; trial < 2*trials; trial++ {
		types := 3
		if trial >= trials {
			types = 5
		}
		net := builders[trial%len(builders)]()
		// Fault churn: fail a couple of links (and sometimes a box) so the
		// surviving fabric varies per trial.
		for f := 0; f < rng.Intn(3); f++ {
			net.FailLink(rng.Intn(len(net.Links)))
		}
		if len(net.Boxes) > 0 && rng.Float64() < 0.25 {
			net.FailBox(rng.Intn(len(net.Boxes)))
		}
		var reqs []core.Request
		for p := 0; p < net.Procs; p++ {
			if rng.Float64() < 0.6 {
				reqs = append(reqs, core.Request{Proc: p, Type: rng.Intn(types)})
			}
		}
		var avail []core.Avail
		for r := 0; r < net.Ress; r++ {
			if rng.Float64() < 0.6 {
				avail = append(avail, core.Avail{Res: r, Type: rng.Intn(types)})
			}
		}
		if len(reqs) == 0 || len(avail) == 0 {
			continue
		}
		tally(net, checkAgainstOracle(t, net.Name, net, reqs, avail))
	}
	for _, in := range workload.AdversarialTyped() {
		def := checkAgainstOracle(t, in.Name, in.Net, in.Reqs, in.Avail)
		tally(in.Net, def)
		if oracle := oracleTyped(t, in.Net, in.Reqs, in.Avail); oracle != in.Optimum {
			t.Errorf("%s: oracle %d, table says %d", in.Name, oracle, in.Optimum)
		}
		if got := pathOf(def); got != in.Path {
			t.Errorf("%s: settled by %v, table says %v (solve %+v)", in.Name, got, in.Path, def.Solve)
		}
		if starved := pathOf(def) == workload.ByBound && def.Solve.MultiRetries > 0; starved != in.Starves {
			t.Errorf("%s: bound met only after retries = %v, table says %v (solve %+v)", in.Name, starved, in.Starves, def.Solve)
		}
	}
	if settled[workload.ByBound] == 0 || settled[workload.BySearch] == 0 || settled[workload.ByLP] == 0 || exhausted == 0 {
		t.Fatalf("did not exercise all three paths: %d epochs met the bound, %d were settled by the search, %d reached the LP (%d after a search ran out of nodes)",
			settled[workload.ByBound], settled[workload.BySearch], settled[workload.ByLP], exhausted)
	}
}

// TestTypedPlannerDeterministic is the determinism contract of the typed
// solver: its mapping is a pure function of (fabric state, reqs, avail).
// A long-lived planner is driven through 1200 epochs of seeded typed
// demand while circuits are established and released and links and boxes
// fail and heal; every epoch it must return the assignments, blocked
// requests and solve flags a fresh core.ScheduleHetero returns on the same
// instance. Ops may differ: the long-lived planner's blocked-request
// certificates skip searches the fresh one runs (and fails). Both fabrics
// have a routing table, so no epoch may reach the LP: a bound miss is the
// search's to settle, and some must have been.
func TestTypedPlannerDeterministic(t *testing.T) {
	builders := []func() *topology.Network{
		func() *topology.Network { return topology.Omega(16) },
		func() *topology.Network { return topology.Benes(8) },
	}
	const epochsPerFabric = 600
	var settled [3]int // by workload.TypedPath
	for bi, build := range builders {
		rng := rand.New(rand.NewSource(1013 + int64(bi)))
		net := build()
		var planner core.Planner
		var standing []topology.Circuit
		for epoch := 0; epoch < epochsPerFabric; epoch++ {
			// Hardware churn: about one epoch in three fails or heals
			// something, so fault epochs advance under the planner.
			switch rng.Intn(9) {
			case 0:
				net.FailLink(rng.Intn(len(net.Links)))
			case 1:
				net.FailBox(rng.Intn(len(net.Boxes)))
			case 2:
				if faulted := net.FaultedLinks(); len(faulted) > 0 {
					net.RepairLink(faulted[rng.Intn(len(faulted))])
				}
			case 3:
				for b := range net.Boxes {
					if net.BoxFaulted(b) {
						net.RepairBox(b)
						break
					}
				}
			}
			// A third of the standing circuits end (or were severed).
			kept := standing[:0]
			for _, c := range standing {
				if rng.Intn(3) == 0 {
					net.ForceRelease(c)
				} else {
					kept = append(kept, c)
				}
			}
			standing = kept
			busyProc, busyRes := map[int]bool{}, map[int]bool{}
			for _, c := range standing {
				busyProc[c.Proc], busyRes[c.Res] = true, true
			}
			var reqs []core.Request
			for p := 0; p < net.Procs; p++ {
				if !busyProc[p] && rng.Float64() < 0.6 {
					reqs = append(reqs, core.Request{Proc: p, Type: rng.Intn(3)})
				}
			}
			var avail []core.Avail
			for r := 0; r < net.Ress; r++ {
				if !busyRes[r] && !net.ResourceFaulted(r) && rng.Float64() < 0.7 {
					avail = append(avail, core.Avail{Res: r, Type: r % 3})
				}
			}
			if len(reqs) == 0 {
				continue
			}
			got, err := planner.ScheduleHetero(net, reqs, avail, nil)
			if err != nil {
				t.Fatalf("%s epoch %d: planner: %v", net.Name, epoch, err)
			}
			fresh, err := core.ScheduleHetero(net, reqs, avail, nil)
			if err != nil {
				t.Fatalf("%s epoch %d: fresh: %v", net.Name, epoch, err)
			}
			if !reflect.DeepEqual(got.Assigned, fresh.Assigned) || !reflect.DeepEqual(got.Blocked, fresh.Blocked) || got.Solve != fresh.Solve {
				t.Fatalf("%s epoch %d: the long-lived planner and a fresh one disagree:\n%+v\n%+v", net.Name, epoch, got, fresh)
			}
			checkTyped(t, net, reqs, avail, got)
			if got.Solve.MultiLP {
				t.Errorf("%s epoch %d reached the LP (solve %+v)", net.Name, epoch, got.Solve)
			}
			settled[pathOf(got)]++
			if err := got.Apply(net); err != nil {
				t.Fatalf("%s epoch %d: %v", net.Name, epoch, err)
			}
			for _, a := range got.Assigned {
				standing = append(standing, a.Circuit)
			}
		}
	}
	met, searched := settled[workload.ByBound], settled[workload.BySearch]
	if met+searched < 1000 || searched == 0 {
		t.Fatalf("%d epochs met the bound and %d were settled by the search; the contract wants 1000 in all, some searched",
			met, searched)
	}
	t.Logf("%d epochs met the bound, %d were settled by the search, %d reached the LP", met, searched, settled[workload.ByLP])
}
