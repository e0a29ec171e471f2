package system

import (
	"errors"
	"testing"

	"rsin/internal/topology"
)

// Typed-needs coverage: validation, sequential multi-type acquisition,
// per-type admission censuses, the typed banker, fault revocation lockstep,
// and the gang activation-wedge regression.

func TestTypedNeedsValidation(t *testing.T) {
	s, err := New(Config{Net: topology.Omega(8), Types: []int{0, 0, 1, 1, 0, 0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		task Task
	}{
		{"needs with scalar need", Task{Proc: 0, Need: 2, Needs: map[int]int{0: 1}}},
		{"needs with scalar type", Task{Proc: 0, Type: 1, Needs: map[int]int{0: 1}}},
		{"empty needs", Task{Proc: 0, Needs: map[int]int{}}},
		{"negative type", Task{Proc: 0, Needs: map[int]int{-1: 1}}},
		{"zero count", Task{Proc: 0, Needs: map[int]int{0: 0}}},
		{"negative count", Task{Proc: 0, Needs: map[int]int{1: -2}}},
	}
	for _, c := range cases {
		if _, err := s.Submit(c.task); !errors.Is(err, ErrBadTask) {
			t.Errorf("%s: err = %v, want ErrBadTask", c.name, err)
		}
	}
	// The well-formed typed vector is accepted.
	if _, err := s.Submit(Task{Proc: 0, Needs: map[int]int{0: 1, 1: 2}}); err != nil {
		t.Fatalf("valid typed task rejected: %v", err)
	}
}

func TestTypedNeedsUnsatisfiable(t *testing.T) {
	types := []int{0, 0, 1, 1, 0, 0, 1, 1}
	s, err := New(Config{Net: topology.Omega(8), Types: types})
	if err != nil {
		t.Fatal(err)
	}
	// A type this deployment does not stock.
	if _, err := s.Submit(Task{Proc: 0, Needs: map[int]int{7: 1}}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("unstocked type: err = %v, want ErrUnsatisfiable", err)
	}
	// More units of a type than the census holds.
	if _, err := s.Submit(Task{Proc: 0, Needs: map[int]int{1: 5}}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("over-census demand: err = %v, want ErrUnsatisfiable", err)
	}
	// Degraded: after losing a type-1 resource the usable census shrinks.
	if _, err := s.FailResource(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Task{Proc: 0, Needs: map[int]int{1: 4}}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("degraded demand: err = %v, want ErrUnsatisfiable", err)
	}
	if _, err := s.Submit(Task{Proc: 0, Needs: map[int]int{1: 3}}); err != nil {
		t.Fatalf("satisfiable degraded demand rejected: %v", err)
	}
	// On an untyped fabric every resource is type 0: a typed vector naming
	// any other type can never be met.
	u, _ := New(Config{Net: topology.Omega(8)})
	if _, err := u.Submit(Task{Proc: 0, Needs: map[int]int{1: 1}}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("typed task on untyped fabric: err = %v, want ErrUnsatisfiable", err)
	}
	if _, err := u.Submit(Task{Proc: 0, Needs: map[int]int{0: 2}}); err != nil {
		t.Fatalf("type-0 vector on untyped fabric rejected: %v", err)
	}
}

// TestScalarTypeOnUntypedFabric is the wedge regression: the scalar form
// {Type: 5} is the one-entry vector {5: 1}, so an untyped fabric (every
// resource type 0) must refuse it exactly as it refuses the vector. It
// used to be admitted, and under banker's grants was deferred on every
// cycle forever — the task queued behind it on the same processor never
// ran.
func TestScalarTypeOnUntypedFabric(t *testing.T) {
	s, err := New(Config{Net: topology.Omega(8), Avoidance: AvoidanceBankers})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Task{Proc: 0, Type: 5}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("scalar type 5 on untyped fabric: err = %v, want ErrUnsatisfiable", err)
	}
	gangOf := []Task{{Proc: 1, Type: 5}, {Proc: 2}}
	if _, _, err := s.SubmitGang(gangOf); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("gang with a scalar type-5 member: err = %v, want ErrUnsatisfiable", err)
	}
	id := mustSubmit(t, s, Task{Proc: 0})
	for i := 0; i < 3 && s.Remaining(id) != 0; i++ {
		if r := cycle(t, s); r.Deferred != 0 {
			t.Fatalf("cycle %d deferred %d requests on an otherwise empty fabric", i, r.Deferred)
		}
	}
	if s.Remaining(id) != 0 {
		t.Fatal("task queued behind the refused one never ran")
	}
}

// remainingOf reads a task's outstanding demand for one type off its ledger.
func remainingOf(st *taskState, ty int) int {
	for i, d := range st.demand {
		if d.Type == ty {
			return d.Count - st.have[i]
		}
	}
	return 0
}

// TestTypedSequentialAcquisition: a {0:1, 1:2} task acquires one unit per
// cycle, lowest type first, each grant landing on a resource of the
// requested type, with the per-entry charge ledger in step.
func TestTypedSequentialAcquisition(t *testing.T) {
	types := []int{0, 0, 1, 1, 0, 0, 1, 1}
	s, err := New(Config{Net: topology.Omega(8), Discipline: Hetero, Types: types})
	if err != nil {
		t.Fatal(err)
	}
	id := mustSubmit(t, s, Task{Proc: 2, Needs: map[int]int{0: 1, 1: 2}})
	wantTypes := []int{0, 1, 1} // lowest-numbered type first
	for i, want := range wantTypes {
		r := cycle(t, s)
		if r.Granted != 1 {
			t.Fatalf("step %d: granted %d", i, r.Granted)
		}
		if err := s.EndTransmission(2); err != nil {
			t.Fatal(err)
		}
		held := s.Holding(id)
		if len(held) != i+1 {
			t.Fatalf("step %d: holding %v", i, held)
		}
		if got := types[held[i]]; got != want {
			t.Fatalf("step %d: granted resource %d of type %d, want type %d", i, held[i], got, want)
		}
	}
	st := s.task(id)
	if len(st.have) != 2 || st.have[0] != 1 || st.have[1] != 2 {
		t.Fatalf("charge ledger %v against %v, want [1 2]", st.have, st.demand)
	}
	if st.remaining() != 0 || remainingOf(st, 0) != 0 || remainingOf(st, 1) != 0 {
		t.Fatalf("remaining %d / per-type %d,%d after full acquisition",
			st.remaining(), remainingOf(st, 0), remainingOf(st, 1))
	}
	if err := s.EndService(id); err != nil {
		t.Fatal(err)
	}
	if s.FreeResources() != 8 {
		t.Fatal("resources not released")
	}
}

// TestTypedCircularDeadlock: three typed tasks form the classic circular
// wait across three types; the naive policy deadlocks, the typed banker's
// scan defers one task and completes everything.
func TestTypedCircularDeadlock(t *testing.T) {
	types := []int{0, 1, 2}
	vectors := []map[int]int{
		{0: 1, 1: 1}, // takes type 0, then waits on 1
		{1: 1, 2: 1}, // takes type 1, then waits on 2
		{0: 1, 2: 1}, // wants type 0 back: closes the cycle
	}
	build := func(av Avoidance) *System {
		s, err := New(Config{Net: topology.Crossbar(3, 3), Discipline: Hetero, Types: types, Avoidance: av})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	naive := build(AvoidanceNone)
	for p, v := range vectors {
		mustSubmit(t, naive, Task{Proc: p, Needs: v})
	}
	// First cycle: tasks 0 and 1 take types 0 and 1; task 2 also requests
	// type 0 (lowest first) and is blocked, so after task 0's second grant
	// stalls, 1 holds 1 waiting on 2... drive until quiescent.
	for i := 0; i < 6; i++ {
		cycle(t, naive)
		for p := 0; p < 3; p++ {
			_ = naive.EndTransmission(p)
		}
	}
	// Under AvoidanceNone this load CAN wedge holding-and-waiting; the
	// typed detector must agree with the state either way (no false
	// positive while a grant is still possible).
	if naive.Deadlocked() {
		free := map[int]int{}
		for r := 0; r < 3; r++ {
			if naive.resHolder[r] == -1 && !naive.net.ResourceFaulted(r) {
				free[naive.resType(r)]++
			}
		}
		for st := range naive.tasks() {
			for ty, n := range free {
				if n > 0 && remainingOf(st, ty) > 0 && naive.headTask(st.task.Proc) == st {
					t.Fatalf("Deadlocked() true while head task %d could take free type %d", st.id, ty)
				}
			}
		}
	}

	banker := build(AvoidanceBankers)
	ids := make([]TaskID, 3)
	for p, v := range vectors {
		ids[p] = mustSubmit(t, banker, Task{Proc: p, Needs: v})
	}
	for i := 0; i < 40 && banker.Pending() > 0; i++ {
		if banker.Deadlocked() {
			t.Fatal("typed banker deadlocked")
		}
		cycle(t, banker)
		for p := 0; p < 3; p++ {
			_ = banker.EndTransmission(p)
		}
		for _, id := range ids {
			if st := banker.task(id); st != nil && st.remaining() == 0 && banker.transmitting[st.task.Proc] != id {
				if err := banker.EndService(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if banker.Pending() != 0 {
		t.Fatal("typed banker left tasks pending")
	}
}

// TestTypedRevokeLockstep: failing the resource backing a typed task's
// type-0 unit must revoke exactly that type's charge, and the task must
// reacquire a surviving type-0 unit.
func TestTypedRevokeLockstep(t *testing.T) {
	types := []int{0, 0, 1, 1, 0, 0, 1, 1}
	s, err := New(Config{Net: topology.Omega(8), Discipline: Hetero, Types: types})
	if err != nil {
		t.Fatal(err)
	}
	id := mustSubmit(t, s, Task{Proc: 2, Needs: map[int]int{0: 1, 1: 1}})
	cycle(t, s)
	if err := s.EndTransmission(2); err != nil {
		t.Fatal(err)
	}
	st := s.task(id)
	held := s.Holding(id)
	if len(held) != 1 || types[held[0]] != 0 {
		t.Fatalf("first grant %v, want one type-0 unit", held)
	}
	affected, err := s.FailResource(held[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0] != id {
		t.Fatalf("affected %v, want [%d]", affected, id)
	}
	if len(st.held) != 0 || st.have[0] != 0 || st.have[1] != 0 {
		t.Fatalf("held and charge ledger out of step after revoke: %v / %v", st.held, st.have)
	}
	if remainingOf(st, 0) != 1 || remainingOf(st, 1) != 1 {
		t.Fatalf("per-type remaining %d,%d after revoke, want 1,1", remainingOf(st, 0), remainingOf(st, 1))
	}
	// Reacquire both units on the surviving fabric.
	for i := 0; i < 2; i++ {
		r := cycle(t, s)
		if r.Granted != 1 {
			t.Fatalf("reacquire step %d: granted %d", i, r.Granted)
		}
		if err := s.EndTransmission(2); err != nil {
			t.Fatal(err)
		}
	}
	held = s.Holding(id)
	gotTypes := map[int]int{}
	for _, r := range held {
		gotTypes[types[r]]++
	}
	if gotTypes[0] != 1 || gotTypes[1] != 1 {
		t.Fatalf("final holdings %v (types %v), want one of each type", held, gotTypes)
	}
	if err := s.EndService(id); err != nil {
		t.Fatal(err)
	}
}

// TestGangActivationWedgeRegression is the satellite-1 bugfix pin: a gang
// made permanently unsatisfiable by a resource failure must NOT block the
// strict-FIFO activation gate — gangs behind it stay serviceable — while
// the wedged gang keeps its slot and activates after repair.
//
// Before the fix activateGangs broke at the first gang that failed the
// safety scan, and a pending gang whose per-type demand exceeded the usable
// census could never pass it: every gang submitted after the fault wedged
// gated forever.
func TestGangActivationWedgeRegression(t *testing.T) {
	types := []int{1, 1, 0, 0}
	s, err := New(Config{Net: topology.Crossbar(4, 4), Discipline: Hetero, Types: types})
	if err != nil {
		t.Fatal(err)
	}
	// Gang A needs both type-1 units.
	gidA, _, err := s.SubmitGang([]Task{
		{Proc: 0, Type: 1, Need: 1},
		{Proc: 1, Type: 1, Need: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One type-1 resource fails before A ever activates: A's demand (2 of
	// type 1) now exceeds the usable census (1) until repair.
	if _, err := s.FailResource(0); err != nil {
		t.Fatal(err)
	}
	// Gang B wants only type-0 units, which are all healthy.
	gidB, _, err := s.SubmitGang([]Task{
		{Proc: 2}, // scalar default: one type-0 unit
		{Proc: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := cycle(t, s)
	if s.GangActive(gidA) {
		t.Fatal("unsatisfiable gang A activated")
	}
	if !s.GangActive(gidB) {
		t.Fatal("gang B wedged behind the unsatisfiable gang A (the pre-fix bug)")
	}
	if r.GangsActivated != 1 || s.PendingGangs() != 1 {
		t.Fatalf("activated %d pending %d, want 1/1", r.GangsActivated, s.PendingGangs())
	}
	// Repair restores the census; A activates on the next cycle, still
	// holding its FIFO slot.
	if err := s.RepairResource(0); err != nil {
		t.Fatal(err)
	}
	r = cycle(t, s)
	if !s.GangActive(gidA) || r.GangsActivated != 1 {
		t.Fatalf("gang A did not activate after repair (activated %d)", r.GangsActivated)
	}
	if s.PendingGangs() != 0 {
		t.Fatalf("pending gangs %d after repair", s.PendingGangs())
	}
}

// TestTypedGangSubmitUnsatisfiable: typed members aggregate per type
// against the usable census at submission, on typed and untyped fabrics.
func TestTypedGangSubmitUnsatisfiable(t *testing.T) {
	types := []int{1, 1, 0, 0}
	s, err := New(Config{Net: topology.Crossbar(4, 4), Types: types})
	if err != nil {
		t.Fatal(err)
	}
	// Two typed members wanting 2 type-1 units each: 4 > census 2.
	_, _, err = s.SubmitGang([]Task{
		{Proc: 0, Needs: map[int]int{1: 2}},
		{Proc: 1, Needs: map[int]int{1: 2}},
	})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("over-census typed gang: err = %v, want ErrUnsatisfiable", err)
	}
	// Mixed typed + scalar aggregation within the census fits.
	gid, _, err := s.SubmitGang([]Task{
		{Proc: 0, Needs: map[int]int{0: 1, 1: 1}},
		{Proc: 1, Type: 1, Need: 1},
	})
	if err != nil {
		t.Fatalf("satisfiable mixed gang rejected: %v", err)
	}
	if err := s.CancelGang(gid); err != nil {
		t.Fatal(err)
	}
	// A typed member on an untyped fabric naming a type it cannot stock.
	u, _ := New(Config{Net: topology.Crossbar(4, 4)})
	_, _, err = u.SubmitGang([]Task{
		{Proc: 0, Needs: map[int]int{1: 1}},
		{Proc: 1},
	})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("typed gang on untyped fabric: err = %v, want ErrUnsatisfiable", err)
	}
}
