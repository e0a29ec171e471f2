package system

import (
	"errors"
	"maps"
	"runtime"
	"slices"
	"testing"

	"rsin/internal/topology"
)

// fail and repair are the tests' one-op fault calls: a batch of one
// through ApplyFault, so through ApplyFaults like every fault.
func (s *System) fail(target FaultTarget, i int) ([]TaskID, error) {
	return s.ApplyFault(FaultOp{Target: target, Index: i})
}

func (s *System) repair(target FaultTarget, i int) error {
	_, err := s.ApplyFault(FaultOp{Repair: true, Target: target, Index: i})
	return err
}

// TestFailLinkSeversCircuit: failing a link under an in-flight circuit
// revokes the delivered unit and re-queues the task. FailLink's list is
// the sever's one report: the processor's pending EndTransmission gets
// the plain not-transmitting error.
func TestFailLinkSeversCircuit(t *testing.T) {
	s, _ := New(Config{Net: topology.Omega(8)})
	id := mustSubmit(t, s, Task{Proc: 3})
	cycle(t, s)
	if len(s.Holding(id)) != 1 || s.Transmitting(3) != id {
		t.Fatalf("setup: holding %v, transmitting %d", s.Holding(id), s.Transmitting(3))
	}
	// Fail the resource-side link: the resource becomes unreachable but
	// the processor keeps its access link and can re-route elsewhere.
	clinks := s.task(id).circuits[0].Links
	lid := clinks[len(clinks)-1]

	severed, err := s.fail(FaultTargetLink, lid)
	if err != nil {
		t.Fatal(err)
	}
	if len(severed) != 1 || severed[0] != id {
		t.Fatalf("severed %v, want [%d]", severed, id)
	}
	if len(s.Holding(id)) != 0 {
		t.Fatalf("revoked unit still held: %v", s.Holding(id))
	}
	if s.Transmitting(3) != -1 {
		t.Fatal("severed processor still marked transmitting")
	}
	if err := s.EndTransmission(3); err == nil || errors.Is(err, ErrCircuitSevered) {
		t.Fatalf("EndTransmission after sever: %v, want plain not-transmitting error", err)
	}

	// The task — still at its queue head — reacquires on the surviving
	// fabric.
	r := cycle(t, s)
	if r.Granted != 1 || len(s.Holding(id)) != 1 {
		t.Fatalf("task not re-granted: granted=%d holding=%v", r.Granted, s.Holding(id))
	}
	for _, c := range s.task(id).circuits {
		for _, l := range c.Links {
			if l == lid {
				t.Fatal("re-grant routed through the failed link")
			}
		}
	}

	// Full recovery: finish the task and heal the fabric.
	if err := s.EndTransmission(3); err != nil {
		t.Fatal(err)
	}
	if err := s.EndService(id); err != nil {
		t.Fatal(err)
	}
	if err := s.repair(FaultTargetLink, lid); err != nil {
		t.Fatal(err)
	}
	if s.FreeResources() != 8 || s.net.HasFaults() {
		t.Fatalf("fabric not fully restored: free=%d faults=%v", s.FreeResources(), s.net.HasFaults())
	}
}

// TestFailResourceRevokesAcquiring: a failed resource is clawed back
// from a task still acquiring, and never granted while faulted.
func TestFailResourceRevokesAcquiring(t *testing.T) {
	s, _ := New(Config{Net: topology.Omega(4)})
	id := mustSubmit(t, s, Task{Proc: 1, Need: 2})
	cycle(t, s)
	if err := s.EndTransmission(1); err != nil {
		t.Fatal(err)
	}
	r0 := s.Holding(id)[0]

	affected, err := s.fail(FaultTargetResource, r0)
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0] != id {
		t.Fatalf("affected %v, want [%d]", affected, id)
	}
	if len(s.Holding(id)) != 0 {
		t.Fatalf("failed resource still held: %v", s.Holding(id))
	}

	// The task reacquires both units from the surviving pool; the faulted
	// resource must not be among them.
	for len(s.Holding(id)) < 2 {
		r := cycle(t, s)
		if r.Granted == 0 {
			t.Fatalf("no progress: holding %v", s.Holding(id))
		}
		if err := s.EndTransmission(1); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range s.Holding(id) {
		if r == r0 {
			t.Fatal("faulted resource was granted")
		}
	}
	if err := s.EndService(id); err != nil {
		t.Fatal(err)
	}
}

// TestFailResourceLatentForProvisioned: a fully provisioned task keeps a
// unit whose resource fails; the fault takes effect at EndService, when
// the resource leaves the pool instead of rejoining it.
func TestFailResourceLatentForProvisioned(t *testing.T) {
	s, _ := New(Config{Net: topology.Omega(4)})
	id := mustSubmit(t, s, Task{Proc: 0})
	cycle(t, s)
	if err := s.EndTransmission(0); err != nil {
		t.Fatal(err)
	}
	r0 := s.Holding(id)[0]
	affected, err := s.fail(FaultTargetResource, r0)
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 0 || len(s.Holding(id)) != 1 {
		t.Fatalf("provisioned task disturbed: affected=%v holding=%v", affected, s.Holding(id))
	}
	if err := s.EndService(id); err != nil {
		t.Fatal(err)
	}

	// The returned-but-faulted resource is never granted again...
	id2 := mustSubmit(t, s, Task{Proc: 1})
	cycle(t, s)
	if got := s.Holding(id2); len(got) != 1 || got[0] == r0 {
		t.Fatalf("faulted resource granted: %v", got)
	}
	// ...until repaired. Occupy every remaining healthy resource first, so
	// the post-repair request can only be satisfied by r0 itself — which
	// pins reuse regardless of which optimal assignment the solver picks.
	for p := 2; p < 4; p++ {
		mustSubmit(t, s, Task{Proc: p})
	}
	cycle(t, s)
	for p := 2; p < 4; p++ {
		if err := s.EndTransmission(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.repair(FaultTargetResource, r0); err != nil {
		t.Fatal(err)
	}
	id3 := mustSubmit(t, s, Task{Proc: 0})
	cycle(t, s)
	if got := s.Holding(id3); len(got) != 1 || got[0] != r0 {
		t.Fatalf("repaired resource not reused: holding %v, want [%d]", got, r0)
	}
}

// TestFailBoxSeversAndMasks: failing a switchbox severs circuits through
// it and removes all its links from scheduling until repair.
func TestFailBoxSeversAndMasks(t *testing.T) {
	s, _ := New(Config{Net: topology.Omega(8)})
	id := mustSubmit(t, s, Task{Proc: 5})
	cycle(t, s)
	// Find a box on the in-flight circuit: the head of any non-first link.
	var box int
	found := false
	for _, lid := range s.task(id).circuits[0].Links {
		if from := s.net.Links[lid].From; from.Kind == topology.KindBox {
			box, found = from.Index, true
			break
		}
	}
	if !found {
		t.Fatal("circuit crosses no box")
	}
	severed, err := s.fail(FaultTargetBox, box)
	if err != nil {
		t.Fatal(err)
	}
	if len(severed) != 1 || severed[0] != id {
		t.Fatalf("severed %v, want [%d]", severed, id)
	}
	r := cycle(t, s)
	for _, a := range r.Mapping.Assigned {
		for _, lid := range a.Circuit.Links {
			l := s.net.Links[lid]
			if (l.From.Kind == topology.KindBox && l.From.Index == box) ||
				(l.To.Kind == topology.KindBox && l.To.Index == box) {
				t.Fatal("grant routed through the failed box")
			}
		}
	}
	if err := s.repair(FaultTargetBox, box); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedAdmission: once faults shrink usable capacity below a
// task's demand, Submit rejects it with ErrUnsatisfiable; repair
// restores admission.
func TestDegradedAdmission(t *testing.T) {
	s, _ := New(Config{Net: topology.Omega(4)})
	for r := 1; r < 4; r++ {
		if _, err := s.fail(FaultTargetResource, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(Task{Proc: 0, Need: 2}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("Need=2 on 1-resource fabric: %v, want ErrUnsatisfiable", err)
	}
	if _, err := s.Submit(Task{Proc: 0, Need: 1}); err != nil {
		t.Fatalf("Need=1 still satisfiable: %v", err)
	}
	if err := s.repair(FaultTargetResource, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Task{Proc: 1, Need: 2}); err != nil {
		t.Fatalf("Need=2 after repair: %v", err)
	}
}

// TestBankersExcludesFaulted: the banker's safety check must not count
// faulted resources as completion capacity. On a 4-resource fabric with
// 2 failed, two Need=2 tasks can never both complete — avoidance must
// defer the second, not wedge.
func TestBankersExcludesFaulted(t *testing.T) {
	s, _ := New(Config{Net: topology.Omega(4), Avoidance: AvoidanceBankers})
	if _, err := s.fail(FaultTargetResource, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.fail(FaultTargetResource, 3); err != nil {
		t.Fatal(err)
	}
	a := mustSubmit(t, s, Task{Proc: 0, Need: 2})
	b := mustSubmit(t, s, Task{Proc: 1, Need: 2})
	for i := 0; i < 8 && len(s.Holding(a)) < 2; i++ {
		cycle(t, s)
		for p := 0; p < 2; p++ {
			if s.Transmitting(p) != -1 {
				if err := s.EndTransmission(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if len(s.Holding(a)) != 2 {
		t.Fatalf("first task starved on safe capacity: holding %v", s.Holding(a))
	}
	if got := len(s.Holding(b)); got != 0 {
		t.Fatalf("banker granted %d units to a task that cannot complete degraded", got)
	}
	if err := s.EndService(a); err != nil {
		t.Fatal(err)
	}
}

// TestApplyFaultsBatch pins a fault batch at the System, over a task
// needing three units that holds one and transmits to a second: every op
// is checked before any lands, so a bad last op changes nothing; the ops
// apply in order, each with its own sever, so failing and repairing a link
// in one batch still severs the circuit across it; only the ops that
// changed the fabric are reported; a task that lost units to two ops is
// listed once; and a census the batch replaced was never written.
func TestApplyFaultsBatch(t *testing.T) {
	fail := func(tg FaultTarget, i int) FaultOp { return FaultOp{Target: tg, Index: i} }
	heal := func(tg FaultTarget, i int) FaultOp { return FaultOp{Repair: true, Target: tg, Index: i} }
	// l is a link of the standing circuit, r the unit held without one.
	rows := []struct {
		name    string
		ops     func(l, r int) []FaultOp
		changed int // -1: the batch is refused
		held    int // units the task holds after the batch
	}{
		{"bad last op", func(l, r int) []FaultOp {
			return []FaultOp{fail(FaultTargetResource, r), fail(FaultTargetLink, l), fail(FaultTargetLink, 1<<20)}
		}, -1, 2},
		{"fail, fail", func(l, r int) []FaultOp { return []FaultOp{fail(FaultTargetLink, l), fail(FaultTargetLink, l)} }, 1, 1},
		{"fail, repair", func(l, r int) []FaultOp { return []FaultOp{fail(FaultTargetLink, l), heal(FaultTargetLink, l)} }, 2, 1},
		{"revoke and sever", func(l, r int) []FaultOp {
			return []FaultOp{fail(FaultTargetResource, r), fail(FaultTargetLink, l)}
		}, 2, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s, _ := New(Config{Net: topology.Omega(8)})
			id := mustSubmit(t, s, Task{Proc: 3, Need: 3})
			cycle(t, s)
			if err := s.EndTransmission(3); err != nil {
				t.Fatal(err)
			}
			cycle(t, s)
			if len(s.Holding(id)) != 2 || s.Transmitting(3) != id {
				t.Fatalf("setup: holding %v, transmitting %d", s.Holding(id), s.Transmitting(3))
			}
			c := s.task(id).circuits[0]
			l, r := c.Links[1], s.Holding(id)[0]
			if r == c.Res {
				r = s.Holding(id)[1]
			}
			ep, words, free := s.FaultEpoch(), slices.Clone(s.OpenLinks()), s.FreeResources()
			census := s.UsableResources()
			was := maps.Clone(census)

			changed, severed, err := s.ApplyFaults(row.ops(l, r))
			if !maps.Equal(census, was) {
				t.Fatalf("the batch wrote the census it replaced: %v, was %v", census, was)
			}
			if err := ledgerMismatch(s); err != nil {
				t.Fatal(err)
			}
			if row.changed < 0 {
				if err == nil || changed != nil || severed != nil {
					t.Fatalf("bad batch: changed %v, severed %v, err %v", changed, severed, err)
				}
				if s.FaultEpoch() != ep || !slices.Equal(s.OpenLinks(), words) || !maps.Equal(s.UsableResources(), was) ||
					s.FreeResources() != free || s.Transmitting(3) != id || len(s.Holding(id)) != row.held {
					t.Fatal("a refused batch changed the System")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(changed) != row.changed || s.FaultEpoch() != ep+uint64(row.changed) {
				t.Fatalf("changed %v, fault epoch moved %d; want %d changed ops", changed, s.FaultEpoch()-ep, row.changed)
			}
			if !slices.Equal(severed, []TaskID{id}) || s.Transmitting(3) != -1 || len(s.Holding(id)) != row.held {
				t.Fatalf("severed %v, transmitting %d, holding %v; want [%d] severed once, holding %d",
					severed, s.Transmitting(3), s.Holding(id), id, row.held)
			}
		})
	}
}

// Allocations of one fault batch on Omega-64 with a circuit standing,
// census read included (TestFaultBatchAllocs). Each is one new census,
// the map UsableByType builds (2 objects): on a faulted fabric the
// reachability sweep behind it runs on the network's reused scratch.
const (
	failBatchAllocs   = 2
	repairBatchAllocs = 2
)

// TestFaultBatchAllocs pins a fault batch's cost in allocations: a one-op
// fail batch and a one-op repair batch, each followed by the census read
// the service makes, on Omega-64 with a circuit standing. A changing batch
// makes one new census and nothing else: UsableResources hands the map
// over without a copy, and the batch's report lives in the System's
// reused slices.
func TestFaultBatchAllocs(t *testing.T) {
	s, _ := New(Config{Net: topology.Omega(64)})
	id := mustSubmit(t, s, Task{Proc: 0})
	cycle(t, s)
	c := s.task(id).circuits[0]
	// A stage-1 link off the circuit: failing it severs nothing and
	// strands no resource.
	l := len(s.net.Links) / 2
	for slices.Contains(c.Links, l) {
		l++
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	batch := func(op FaultOp) uint64 {
		// No collection may be under way while the batch runs: the
		// collector's own bookkeeping would count as the batch's.
		runtime.GC()
		runtime.ReadMemStats(&before)
		severed, err := s.ApplyFault(op)
		census := s.UsableResources()
		runtime.ReadMemStats(&after)
		if err != nil || len(severed) != 0 || census[0] != 64 || s.Transmitting(0) != id {
			t.Fatalf("%+v: severed %v, census %v, err %v; the circuit must stand", op, severed, census, err)
		}
		return after.Mallocs - before.Mallocs
	}
	fail, heal := FaultOp{Target: FaultTargetLink, Index: l}, FaultOp{Repair: true, Target: FaultTargetLink, Index: l}
	batch(fail) // the fabric's first fault makes its fault flags
	batch(heal)
	const runs = 100
	var failed, repaired uint64
	for range runs {
		failed += batch(fail)
		repaired += batch(heal)
	}
	t.Logf("fail batch %.2f, repair batch %.2f objects", float64(failed)/runs, float64(repaired)/runs)
	if failed != failBatchAllocs*runs || repaired != repairBatchAllocs*runs {
		t.Errorf("a fail batch allocates %.2f objects, a repair batch %.2f; want %d and %d (one census each, no copy)",
			float64(failed)/runs, float64(repaired)/runs, failBatchAllocs, repairBatchAllocs)
	}
}
