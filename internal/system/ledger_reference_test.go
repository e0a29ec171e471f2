package system

import (
	"fmt"
	"slices"
	"testing"
)

// The from-scratch banker, kept as the reference the ledger is held to.
// This is the code System.Cycle ran before the ledger (DESIGN.md §22): a
// snapshot of the whole allocation state rebuilt from a walk over every
// task, map-based entities, a safety scan that copies its maps, and no
// completing-grant shortcut. It decides nothing in the service any more;
// the helpers at the bottom of this file recompute it beside every
// operation of the differential traces and fuzz targets and require the
// live ledger — and every decision a cycle takes on it — to agree.

// hypoState is the banker's hypothetical world used for sequential
// admission within one cycle: free resources per type and the committed
// census. Entities are the units of completion, not tasks — a singleton
// releases its units when it alone finishes, but a gang's members release
// nothing until the whole gang has acquired its full set, so an active
// gang is one composite entity aggregating its members' demand and
// holdings per type. Modeling members independently is the classic unsafe
// shortcut: the banker would count a provisioned member's unit as
// releasable while the gang still waits on its siblings, and admit
// cross-gang hold-and-wait deadlocks.
type hypoState struct {
	freeByType map[int]int
	entities   []*hypoEntity
	byTask     map[TaskID]*hypoEntity
}

// hypoEntity is one completion unit: remaining demand and current
// holdings per resource type.
type hypoEntity struct {
	rem  map[int]int
	held map[int]int
}

func newHypoEntity() *hypoEntity {
	return &hypoEntity{rem: map[int]int{}, held: map[int]int{}}
}

// entityAdd accumulates the task's per-type remaining demand and holdings
// into a banker's entity (the shared body of the hypothetical snapshot and
// the gang composite candidate).
func (t *taskState) entityAdd(e *hypoEntity) {
	for i, d := range t.demand {
		e.rem[d.Type] += d.Count - t.have[i]
		e.held[d.Type] += t.have[i]
	}
}

// hypothetical snapshots the current allocation state. Gangs in also count
// as active: the gate's earlier admissions of the cycle being predicted.
func (s *System) hypothetical(also map[*entity]bool) *hypoState {
	h := &hypoState{freeByType: map[int]int{}, byTask: map[TaskID]*hypoEntity{}}
	for r := 0; r < s.net.Ress; r++ {
		// A failed resource is not free capacity: counting it would let
		// the banker admit holders that cannot complete until repair.
		if s.resHolder[r] == -1 && !s.net.ResourceFaulted(r) {
			h.freeByType[s.resType(r)]++
		}
	}
	gangEnt := map[*entity]*hypoEntity{}
	// Ascending task order, so a failure reads the same on every run.
	ids := make([]TaskID, 0, s.Pending())
	for t := range s.tasks() {
		ids = append(ids, t.id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		t := s.task(id)
		if g := t.ent; len(g.members) > 1 {
			if g.atGate && !also[g] {
				continue // gated members hold nothing and are not committed
			}
			// Members of an active gang are committed even while holding
			// nothing: the gang's activation promised it a completion
			// order, and singleton admission must not grant that capacity
			// away.
			e := gangEnt[g]
			if e == nil {
				e = newHypoEntity()
				gangEnt[g] = e
				h.entities = append(h.entities, e)
			}
			t.entityAdd(e)
			h.byTask[id] = e
			continue
		}
		if len(t.held) == 0 {
			continue
		}
		e := newHypoEntity()
		t.entityAdd(e)
		h.entities = append(h.entities, e)
		h.byTask[id] = e
	}
	return h
}

// safe checks the banker's condition: some completion order lets every
// committed entity finish (held to bruteForceSafe in
// gang_differential_test.go, as is the ledger's scan).
func (h *hypoState) safe() bool {
	free := make(map[int]int, len(h.freeByType))
	for typ, n := range h.freeByType {
		free[typ] = n
	}
	done := make([]bool, len(h.entities))
	finished := 0
	for progress := true; progress && finished < len(h.entities); {
		progress = false
		for i, e := range h.entities {
			if done[i] || !fitsFree(e.rem, free) {
				continue
			}
			for typ, n := range e.held {
				free[typ] += n // finishing releases everything it holds
			}
			done[i] = true
			finished++
			progress = true
		}
	}
	return finished == len(h.entities)
}

// fitsFree reports whether a remaining-demand vector fits within the free
// vector.
func fitsFree(rem, free map[int]int) bool {
	for typ, n := range rem {
		if n > free[typ] {
			return false
		}
	}
	return true
}

// admit tentatively grants one resource of the task's requested type in the
// hypothetical state; if the result is unsafe the grant is rolled back and
// admit reports false. Every verdict but the empty-free-count one comes
// from a full scan.
func (h *hypoState) admit(t *taskState) bool {
	ty := t.reqType()
	if h.freeByType[ty] == 0 {
		return false
	}
	e, created := h.byTask[t.id], false
	if e == nil {
		e = newHypoEntity()
		t.entityAdd(e)
		h.entities = append(h.entities, e)
		h.byTask[t.id] = e
		created = true
	}
	h.freeByType[ty]--
	e.rem[ty]--
	e.held[ty]++
	if h.safe() {
		return true
	}
	h.freeByType[ty]++
	e.rem[ty]++
	e.held[ty]--
	if created {
		h.entities = h.entities[:len(h.entities)-1]
		delete(h.byTask, t.id)
	}
	return false
}

// prediction is what the reference says the next Cycle will decide, on a
// System with no hooks installed: which pending gangs the gate admits, in
// order; which task each processor requests for (nil: none); how many
// requests the banker withholds; with Config.Preempt, which tier exchanges
// the cycle makes (predictExchanges, exchange_test.go).
type prediction struct {
	activated []GangID
	requests  []*taskState
	deferred  int
	exchanges []Exchange
}

// predictCycle runs the gang gate and sequential admission the way cycle
// did before the ledger — a fresh snapshot per gate candidate, one more for
// the admissions — without touching the System.
func predictCycle(s *System) prediction {
	pr := prediction{requests: make([]*taskState, s.net.Procs)}
	admitted := map[*entity]bool{}
	usable := s.usableResources()
	for _, g := range s.gangPending {
		if _, _, ok := g.demand.Fits(usable); !ok {
			continue // unsatisfiable at this fault epoch: skipped in place
		}
		cand := newHypoEntity()
		for _, t := range g.members {
			t.entityAdd(cand)
		}
		hypo := s.hypothetical(admitted)
		hypo.entities = append(hypo.entities, cand)
		if !hypo.safe() {
			break
		}
		admitted[g] = true
		pr.activated = append(pr.activated, GangID(g.members[0].id))
	}
	gangs := false
	for t := range s.tasks() {
		gangs = gangs || len(t.ent.members) > 1
	}
	var hypo *hypoState
	if s.cfg.Avoidance == AvoidanceBankers || gangs {
		hypo = s.hypothetical(admitted)
	}
	for p := range pr.requests {
		if s.transmitting[p] != -1 {
			continue
		}
		for qi, t := range s.queues[p] {
			if t.remaining() <= 0 {
				continue
			}
			gang := len(t.ent.members) > 1
			active := gang && (!t.ent.atGate || admitted[t.ent])
			if gang && !active {
				continue // gated
			}
			if qi > 0 && !active {
				continue // singletons never bypass
			}
			if hypo != nil && !hypo.admit(t) {
				pr.deferred++
				continue
			}
			pr.requests[p] = t
			break
		}
	}
	if s.cfg.Preempt {
		predictExchanges(s, &pr, hypo)
	}
	return pr
}

// audited wraps a System so that every operation a trace or fuzz input
// performs is followed by the ledger differential, and every Cycle is also
// held to the reference's prediction of its decisions. The tests drive it
// exactly as they drove the System.
type audited struct {
	*System
	t testing.TB
}

func audit(t testing.TB, s *System) audited { return audited{s, t} }

// after is the tail of every audited operation (deferred, so it sees the
// state the operation left whatever it returned).
func (a audited) after(op string) {
	a.t.Helper()
	if err := ledgerMismatch(a.System); err != nil {
		a.t.Fatalf("ledger differential after %s: %v", op, err)
	}
}

func (a audited) Submit(task Task) (TaskID, error) {
	defer a.after("Submit")
	return a.System.Submit(task)
}

func (a audited) SubmitGang(members []Task) (GangID, []TaskID, error) {
	defer a.after("SubmitGang")
	return a.System.SubmitGang(members)
}

// Cycle predicts the cycle's decisions from scratch, runs it, and compares:
// the gangs activated, the task each processor requested for, the number
// deferred, the tier exchanges — then the ledger, which the grant loop has
// moved.
func (a audited) Cycle() (*CycleResult, error) {
	a.t.Helper()
	s := a.System
	if s.cfg.FaultHook != nil {
		a.t.Fatal("audited.Cycle cannot predict a cycle its FaultHook may fail")
	}
	want := predictCycle(s)
	r, err := s.Cycle()
	if err != nil {
		return r, err
	}
	if r.GangsActivated != len(want.activated) {
		a.t.Fatalf("cycle activated %d gangs, the from-scratch gate admits %v", r.GangsActivated, want.activated)
	}
	for _, gid := range want.activated {
		if !s.GangActive(gid) {
			a.t.Fatalf("the from-scratch gate admits gang %d (of %v); the ledger's did not", gid, want.activated)
		}
	}
	for p, t := range want.requests {
		if got := s.taskOf[p]; got != t {
			a.t.Fatalf("processor %d requested for %s, the from-scratch banker says %s", p, taskName(got), taskName(t))
		}
	}
	if r.Deferred != want.deferred {
		a.t.Fatalf("cycle deferred %d requests, the from-scratch banker %d", r.Deferred, want.deferred)
	}
	if !slices.Equal(r.Preempted, want.exchanges) {
		a.t.Fatalf("cycle exchanged %+v, the reference planner %+v", r.Preempted, want.exchanges)
	}
	a.after("Cycle")
	return r, nil
}

func taskName(t *taskState) string {
	if t == nil {
		return "nobody"
	}
	return fmt.Sprintf("task %d", t.id)
}

func (a audited) EndTransmission(p int) error {
	defer a.after("EndTransmission")
	return a.System.EndTransmission(p)
}

func (a audited) EndService(id TaskID) error {
	defer a.after("EndService")
	return a.System.EndService(id)
}

func (a audited) EndGangService(gid GangID) error {
	defer a.after("EndGangService")
	return a.System.EndGangService(gid)
}

func (a audited) Cancel(id TaskID) error {
	defer a.after("Cancel")
	return a.System.Cancel(id)
}

func (a audited) CancelGang(gid GangID) error {
	defer a.after("CancelGang")
	return a.System.CancelGang(gid)
}

func (a audited) Preempt(id TaskID, r int) error {
	defer a.after("Preempt")
	return a.System.Preempt(id, r)
}

func (a audited) FailLink(id int) ([]TaskID, error) {
	defer a.after("FailLink")
	return a.System.FailLink(id)
}

func (a audited) RepairLink(id int) error {
	defer a.after("RepairLink")
	return a.System.RepairLink(id)
}

func (a audited) FailBox(id int) ([]TaskID, error) {
	defer a.after("FailBox")
	return a.System.FailBox(id)
}

func (a audited) RepairBox(id int) error {
	defer a.after("RepairBox")
	return a.System.RepairBox(id)
}

func (a audited) FailResource(r int) ([]TaskID, error) {
	defer a.after("FailResource")
	return a.System.FailResource(r)
}

func (a audited) RepairResource(r int) error {
	defer a.after("RepairResource")
	return a.System.RepairResource(r)
}

// ledgerMismatch recomputes everything the ledger keeps from the state it
// is a summary of — the holder table, the fault flags, every task's demand
// and holdings — and reports the first disagreement: the per-type free
// counts, the unheld and owed totals, and the committed entities, row by
// row against their owners and as a multiset against the from-scratch
// snapshot.
func ledgerMismatch(s *System) error {
	l := &s.led
	n := len(l.types)
	free, unheld := make([]int, n), 0
	for r, holder := range s.resHolder {
		if holder != -1 {
			continue
		}
		unheld++
		if !s.net.ResourceFaulted(r) {
			free[l.typeIndex(s.resType(r))]++
		}
	}
	if !slices.Equal(free, l.free) {
		return fmt.Errorf("free counts %v over types %v, the holder table and fault flags say %v", l.free, l.types, free)
	}
	if unheld != l.unheld || unheld != s.FreeResources() {
		return fmt.Errorf("unheld %d (FreeResources %d), the holder table says %d", l.unheld, s.FreeResources(), unheld)
	}
	owed := 0
	for t := range s.tasks() {
		owed += t.remaining()
	}
	for p, q := range s.queues {
		for _, t := range q {
			if s.task(t.id) != t || t.task.Proc != p {
				return fmt.Errorf("processor %d queues task %d, which is not a live task of its own", p, t.id)
			}
		}
	}
	if owed != l.owed {
		return fmt.Errorf("owed %d, the tasks' remaining demand sums to %d", l.owed, owed)
	}
	if len(l.rem) != n*len(l.owner) || len(l.held) != n*len(l.owner) {
		return fmt.Errorf("%d rows but %d rem and %d held counts over %d types", len(l.owner), len(l.rem), len(l.held), n)
	}
	for e, owner := range l.owner {
		if *owner != e {
			return fmt.Errorf("row %d's owner believes it has row %d", e, *owner)
		}
	}

	// Row by row: every owner's row holds exactly its own books.
	dense := func(m map[int]int) []int {
		v := make([]int, n)
		for ty, c := range m {
			v[l.typeIndex(ty)] = c
		}
		return v
	}
	rowIs := func(who string, row int, want *hypoEntity) error {
		if row < 0 || row >= len(l.owner) {
			return fmt.Errorf("%s is committed but has row %d of %d", who, row, len(l.owner))
		}
		rem, held := l.rem[row*n:(row+1)*n], l.held[row*n:(row+1)*n]
		if !slices.Equal(rem, dense(want.rem)) || !slices.Equal(held, dense(want.held)) {
			return fmt.Errorf("%s: row %d reads rem %v held %v, its tasks say rem %v held %v (types %v)",
				who, row, rem, held, want.rem, want.held, l.types)
		}
		return nil
	}
	// The commit rules: a task alone is committed while it holds a unit, a
	// gang while it is past the gate, whatever it holds. Each entity is
	// checked at its first member, which carries it.
	committed, joined, gated := 0, 0, 0
	for t := range s.tasks() {
		g := t.ent
		if !slices.Contains(g.members, t) || g.members[0].ent != &g.members[0].own {
			return fmt.Errorf("task %d's entity %v does not list it, or is not carried by its first member", t.id, g.members)
		}
		if g.members[0] != t {
			continue
		}
		joined += len(g.members) - 1
		want := newHypoEntity()
		for _, m := range g.members {
			m.entityAdd(want)
		}
		who := fmt.Sprintf("task %d", t.id)
		isCommitted := len(t.held) > 0
		if len(g.members) > 1 {
			who = fmt.Sprintf("gang %d", t.id)
			isCommitted = !g.atGate
			if g.atGate {
				gated++
				if !slices.Contains(s.gangPending, g) {
					return fmt.Errorf("gated %s is not in the gate's FIFO", who)
				}
			}
		} else if g.atGate {
			return fmt.Errorf("%s alone is gated", who)
		}
		if !isCommitted {
			if g.row != -1 {
				return fmt.Errorf("%s (holding %v) has row %d, want none", who, want.held, g.row)
			}
			continue
		}
		committed++
		if err := rowIs(who, g.row, want); err != nil {
			return err
		}
	}
	if committed != len(l.owner) {
		return fmt.Errorf("%d rows for %d committed entities", len(l.owner), committed)
	}
	if joined != s.joined || gated != len(s.gangPending) {
		return fmt.Errorf("joined %d and %d gangs gated, the entities say %d and %d", s.joined, len(s.gangPending), joined, gated)
	}

	// As a multiset against the snapshot the banker used to rebuild.
	var got, want []string
	for e := range l.owner {
		got = append(got, fmt.Sprint(l.rem[e*n:(e+1)*n], l.held[e*n:(e+1)*n]))
	}
	for _, e := range s.hypothetical(nil).entities {
		want = append(want, fmt.Sprint(dense(e.rem), dense(e.held)))
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("committed entities %v, the from-scratch snapshot has %v", got, want)
	}
	return nil
}
