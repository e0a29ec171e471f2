package system

import (
	"errors"
	"testing"

	"rsin/internal/topology"
)

// TestFailLinkSeversCircuit: failing a link under an in-flight circuit
// revokes the delivered unit, re-queues the task, and surfaces exactly
// one ErrCircuitSevered to the processor's pending EndTransmission.
func TestFailLinkSeversCircuit(t *testing.T) {
	s, _ := New(Config{Net: topology.Omega(8)})
	id := mustSubmit(t, s, Task{Proc: 3})
	cycle(t, s)
	if len(s.Holding(id)) != 1 || s.Transmitting(3) != id {
		t.Fatalf("setup: holding %v, transmitting %d", s.Holding(id), s.Transmitting(3))
	}
	// Fail the resource-side link: the resource becomes unreachable but
	// the processor keeps its access link and can re-route elsewhere.
	clinks := s.tasks[id].circuits[0].Links
	lid := clinks[len(clinks)-1]

	severed, err := s.FailLink(lid)
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
	if err := s.EndTransmission(3); !errors.Is(err, ErrCircuitSevered) {
		t.Fatalf("EndTransmission after sever: %v, want ErrCircuitSevered", err)
	}
	if err := s.EndTransmission(3); err == nil || errors.Is(err, ErrCircuitSevered) {
		t.Fatalf("second EndTransmission: %v, want plain not-transmitting error", err)
	}

	// The sever is visible in the next cycle's accounting, and the task —
	// still at its queue head — reacquires on the surviving fabric.
	r := cycle(t, s)
	if r.Broken != 1 {
		t.Fatalf("CycleResult.Broken = %d, want 1", r.Broken)
	}
	if r.Granted != 1 || len(s.Holding(id)) != 1 {
		t.Fatalf("task not re-granted: granted=%d holding=%v", r.Granted, s.Holding(id))
	}
	for _, c := range s.tasks[id].circuits {
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
	if err := s.RepairLink(lid); err != nil {
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

	affected, err := s.FailResource(r0)
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
	affected, err := s.FailResource(r0)
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
	if err := s.RepairResource(r0); err != nil {
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
	for _, lid := range s.tasks[id].circuits[0].Links {
		if from := s.net.Links[lid].From; from.Kind == topology.KindBox {
			box, found = from.Index, true
			break
		}
	}
	if !found {
		t.Fatal("circuit crosses no box")
	}
	severed, err := s.FailBox(box)
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
	if err := s.RepairBox(box); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedAdmission: once faults shrink usable capacity below a
// task's demand, Submit rejects it with ErrUnsatisfiable; repair
// restores admission.
func TestDegradedAdmission(t *testing.T) {
	s, _ := New(Config{Net: topology.Omega(4)})
	for r := 1; r < 4; r++ {
		if _, err := s.FailResource(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(Task{Proc: 0, Need: 2}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("Need=2 on 1-resource fabric: %v, want ErrUnsatisfiable", err)
	}
	if _, err := s.Submit(Task{Proc: 0, Need: 1}); err != nil {
		t.Fatalf("Need=1 still satisfiable: %v", err)
	}
	if err := s.RepairResource(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Task{Proc: 1, Need: 2}); err != nil {
		t.Fatalf("Need=2 after repair: %v", err)
	}
}

// TestHardwareHookScriptsFaults: Config.HardwareHook ops are applied at
// the top of the cycle, before the solve — a fault scripted for cycle N
// already masks the fabric N schedules on.
func TestHardwareHookScriptsFaults(t *testing.T) {
	calls := 0
	var deadLink int
	s, _ := New(Config{
		Net: topology.Omega(8),
		HardwareHook: func(point string) []FaultOp {
			if point != FaultCycle {
				t.Fatalf("hook consulted at %q", point)
			}
			calls++
			switch calls {
			case 2:
				return []FaultOp{{Target: FaultTargetLink, Index: deadLink}}
			case 3:
				return []FaultOp{{Repair: true, Target: FaultTargetLink, Index: deadLink}}
			}
			return nil
		},
	})
	id := mustSubmit(t, s, Task{Proc: 6})
	cycle(t, s) // cycle 1: grant
	deadLink = s.tasks[id].circuits[0].Links[0]
	r := cycle(t, s) // cycle 2: hook kills the circuit's link, then re-grants
	if r.Broken != 1 {
		t.Fatalf("Broken = %d, want 1", r.Broken)
	}
	if !s.net.LinkFaulted(deadLink) {
		t.Fatal("scripted fault not applied")
	}
	cycle(t, s) // cycle 3: hook repairs
	if s.net.HasFaults() {
		t.Fatal("scripted repair not applied")
	}
	if err := s.EndTransmission(6); err != nil {
		t.Fatal(err)
	}
	if err := s.EndService(id); err != nil {
		t.Fatal(err)
	}
}

// TestBankersExcludesFaulted: the banker's safety check must not count
// faulted resources as completion capacity. On a 4-resource fabric with
// 2 failed, two Need=2 tasks can never both complete — avoidance must
// defer the second, not wedge.
func TestBankersExcludesFaulted(t *testing.T) {
	s, _ := New(Config{Net: topology.Omega(4), Avoidance: AvoidanceBankers})
	if _, err := s.FailResource(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FailResource(3); err != nil {
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
