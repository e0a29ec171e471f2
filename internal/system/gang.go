package system

import (
	"fmt"
	"slices"
)

// Gang tasks: the all-or-nothing collective extension. A gang is an
// entity of k >= 2 member tasks on distinct processors that must hold
// their circuits together — the fabric-level shape of a collective step
// (every rank of a ring-allreduce phase transmits at once, see
// internal/core's collective lowering). Its life cycle is a task's
// (system.go); five rules are a gang's alone (DESIGN.md §18), two of
// which make up the contract:
//
//   - Atomic grant. Members are queued gated: none of them requests a
//     resource until the whole gang passes a banker's safety check against
//     the current allocation (activateGangs, run at the top of every
//     cycle). Activation is strict-FIFO across gangs, so a large gang is
//     never starved by smaller ones slipping past it, and the check admits
//     the gang only when some completion order lets every committed holder
//     and every member finish — concurrent gangs cannot deadlock the
//     fabric on units.
//   - Atomic sever. A hardware fault that costs any member a unit resets
//     the whole gang exactly once: every member's circuits are torn down,
//     every held unit returns to the pool, and the gang re-enters the
//     pending queue (at the front — it already held its activation slot)
//     to be re-planned on the surviving fabric. A fully provisioned gang
//     is immune, as a provisioned task alone is.
//
// An active gang is a first-class banker's citizen: it is a committed
// entity in the ledger from activation on, even while it holds nothing, so
// admission under AvoidanceBankers cannot grant away the units a gang's
// completion order depends on.

// GangID is an entity's first member's TaskID: a gang's, or GangID(id)
// for a task id submitted alone, a gang of one.
type GangID int

// SubmitGang queues a gang of member tasks, all-or-nothing: no member
// requests a resource until the whole gang is activated by the banker's
// admission gate. Members must use distinct processors (each holds its
// port for the gang's duration) and each must pass the ordinary task
// validation; the gang's summed demand must fit the usable-capacity
// census (Demand.Fits) or SubmitGang fails with an error wrapping
// ErrUnsatisfiable. Returns the gang ID and the member task IDs, in
// member order, in a slice of the caller's.
func (s *System) SubmitGang(members []Task) (GangID, []TaskID, error) {
	if len(members) < 2 {
		return 0, nil, fmt.Errorf("system: a gang needs at least 2 members, got %d", len(members))
	}
	ids, err := s.SubmitEntity(members, GangDemand(members), nil)
	if err != nil {
		return 0, nil, err
	}
	return GangID(ids[0]), ids, nil
}

// activateGangs runs the all-or-nothing admission gate at the top of a
// cycle: pending gangs activate in strict FIFO order, each only when the
// banker's condition holds with every member committed at its full
// demand. The first gang that cannot be safely admitted stops the scan —
// later gangs must not starve it. One exception keeps the fabric live: a
// gang whose per-type demand exceeds the fault epoch's usable census can
// never pass the safety scan until a repair (grants only ever come from
// usable resources), so blocking the FIFO on it would wedge every gang
// behind it for as long as the fault lasts. Such gangs are skipped in
// place — they keep their FIFO slot for the cycle a repair makes them
// satisfiable again, or until the owning service withdraws them
// retroactively (sched.refreshCapacity). The candidate is tried on the
// cycle's trial copy of the ledger, which a cycle with a pending gang
// always has (any gang puts the cycle under the banker); an admitted gang
// stays in the trial, so the next candidate and the cycle's admissions see
// it committed. Returns how many gangs activated.
func (s *System) activateGangs(tr *trial) int {
	activated := 0
	usable := s.usableResources()
	for i := 0; i < len(s.gangPending); {
		e := s.gangPending[i]
		// A gated gang holds nothing, so what it still needs is its whole
		// demand — the admission predicate again, at this fault epoch.
		if _, _, ok := e.demand.Fits(usable); !ok {
			i++ // unsatisfiable at this fault epoch: skip, don't block
			continue
		}
		// The candidate joins the trial as one composite entity: its
		// members' demand must be finishable together, since none of them
		// releases a unit until the whole gang completes.
		tr.push(&s.led, e.demand)
		if !tr.safe() {
			tr.pop()
			break
		}
		tr.base = 1 // safe with the candidate in it
		s.led.openRow(&e.row, e.demand)
		e.atGate = false
		s.gangPending = slices.Delete(s.gangPending, i, i+1)
		activated++
	}
	return activated
}

// GangProvisioned reports whether every member of an entity holds its full
// resource set (a gang's atomic grant is complete).
func (s *System) GangProvisioned(gid GangID) bool {
	e, _ := s.entity(TaskID(gid))
	return e != nil && e.provisioned()
}

// settle applies the atomic-sever rule (rule 4, DESIGN.md §18) after a
// hardware fault: every gang that lost a unit through any of the affected
// tasks is reset once (the reset gates it, which its other members see);
// a task alone loses only the unit. Returns the affected tasks and the
// reset members, sorted, each once.
func (s *System) settle(affected []TaskID) []TaskID {
	for _, id := range affected {
		if e := s.task(id).ent; len(e.members) > 1 && !e.atGate && !e.provisioned() {
			affected = s.resetGang(e, affected)
		}
	}
	slices.Sort(affected)
	return slices.Compact(affected)
}

// resetGang is the atomic-sever half of the gang contract: tear down every
// member's circuits, return every held unit to the pool, and send the gang
// back through the activation gate (front of the pending queue — it
// already held its FIFO slot once). Members that had fully provisioned and
// left their queues re-enter at the back; gated members never block
// capacity, and any task queued behind one holds nothing, so the banker's
// completion orders stay physically realizable. Appends the member IDs to
// ids.
func (s *System) resetGang(e *entity, ids []TaskID) []TaskID {
	for _, t := range e.members {
		for _, c := range t.circuits {
			s.sever(t, c)
		}
		t.circuits = t.circuits[:0]
		s.vacateAll(t)
		s.led.owed += len(t.held)
		t.held = t.held[:0]
		clear(t.have)
		// Re-enqueue members that left their queue when they provisioned.
		// Queue membership is the test — not remaining()==0 — because the
		// fault path revokes units before the reset runs: a provisioned
		// member whose unit was just revoked already has remaining()>0 but
		// is in no queue, and skipping it would strand the gang active
		// forever with a member no cycle can ever grant to.
		if p := t.task.Proc; !slices.Contains(s.queues[p], t) {
			s.queues[p] = append(s.queues[p], t)
		}
		ids = append(ids, t.id)
	}
	e.atGate = true
	s.led.closeRow(&e.row) // back behind the gate: no longer committed
	s.gangPending = slices.Insert(s.gangPending, 0, e)
	return ids
}

// CancelGang withdraws a whole entity at any point before EndGangService
// (see withdraw). A gang's members cannot be canceled individually — the
// gang is the unit of withdrawal, exactly as it is the unit of grant and
// sever.
func (s *System) CancelGang(gid GangID) error { return s.withdraw(s.entity(TaskID(gid))) }

// EndGangService completes an entity (see release). A gang's members
// cannot be released individually (EndService rejects them).
func (s *System) EndGangService(gid GangID) error { return s.release(s.entity(TaskID(gid))) }
