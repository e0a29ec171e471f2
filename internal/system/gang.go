package system

import (
	"fmt"
	"slices"
	"sort"
)

// Gang tasks: the all-or-nothing collective extension. A gang is a set of
// member tasks on distinct processors that must hold their circuits
// together — the fabric-level shape of a collective step (every rank of a
// ring-allreduce phase transmits at once, see internal/core's collective
// lowering). The contract has two halves:
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
//     is immune, mirroring the provisioned-singleton rule.
//
// Members of an active gang are first-class banker's citizens: the gang is
// a committed entity in the ledger from activation on, even while it holds
// nothing, so singleton admission under AvoidanceBankers cannot grant away
// the units a gang's completion order depends on.

// GangID identifies a gang submitted via SubmitGang.
type GangID int

type gangState struct {
	id      GangID
	members []TaskID
	demand  Demand // summed over members; what a gated gang still needs in full
	active  bool
	row     int // the composite's row among the ledger's committed entities; -1 unless active
}

// SubmitGang queues a gang of member tasks, all-or-nothing: no member
// requests a resource until the whole gang is activated by the banker's
// admission gate. Members must use distinct processors (each holds its
// port for the gang's duration) and each must pass the ordinary task
// validation; the gang's summed demand must fit the usable-capacity
// census (Demand.Fits) or SubmitGang fails with an error wrapping
// ErrUnsatisfiable. Returns the gang ID and the member
// task IDs, in member order.
func (s *System) SubmitGang(members []Task) (GangID, []TaskID, error) {
	if len(members) < 2 {
		return 0, nil, fmt.Errorf("system: a gang needs at least 2 members, got %d", len(members))
	}
	for i, t := range members {
		if t.Proc < 0 || t.Proc >= s.net.Procs {
			return 0, nil, fmt.Errorf("system: gang member %d: processor %d out of range", i, t.Proc)
		}
		if err := ValidateTask(t, s.net.Ress); err != nil {
			return 0, nil, fmt.Errorf("system: gang member %d: %w", i, err)
		}
		if RepeatsProc(members[:i], t.Proc) {
			return 0, nil, fmt.Errorf("system: gang members must use distinct processors (processor %d repeated)", t.Proc)
		}
	}
	// Gang admission: members hold their units together, so the summed
	// demand must be simultaneously satisfiable on the surviving fabric.
	demand := GangDemand(members)
	if err := s.admissible(demand, "gang"); err != nil {
		return 0, nil, err
	}
	s.nextGang++
	gid := s.nextGang
	g := &gangState{id: gid, members: make([]TaskID, len(members)), demand: demand, row: -1}
	for i, t := range members {
		ts := newTaskState(t)
		ts.gang = g
		g.members[i] = s.enqueue(ts)
	}
	s.gangs[gid] = g
	s.gangPending = append(s.gangPending, gid)
	if s.o.enabled {
		s.o.gangsSubmitted.Inc()
		s.event(evGangSubmit, 0, int64(gid), "")
	}
	return gid, g.members, nil
}

// RepeatsProc reports whether any of the members sits on processor p — the
// distinct-processors rule of a gang, for the service's admission and the
// System's alike. A scan: gangs are a handful of members, and the members
// before each one are all there is to look at.
func RepeatsProc(members []Task, p int) bool {
	for _, m := range members {
		if m.Proc == p {
			return true
		}
	}
	return false
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
		gid := s.gangPending[i]
		g := s.gangs[gid]
		if g == nil {
			s.gangPending = append(s.gangPending[:i], s.gangPending[i+1:]...) // canceled while pending
			continue
		}
		// A gated gang holds nothing, so what it still needs is its whole
		// demand — the admission predicate again, at this fault epoch.
		if _, _, ok := g.demand.Fits(usable); !ok {
			i++ // unsatisfiable at this fault epoch: skip, don't block
			continue
		}
		// The candidate joins the trial as one composite entity: its
		// members' demand must be finishable together, since none of them
		// releases a unit until the whole gang completes.
		tr.push(&s.led, g.demand, nil)
		if !tr.safe() {
			tr.pop()
			break
		}
		tr.base = 1 // safe with the candidate in it
		s.led.openRow(&g.row, g.demand, nil)
		g.active = true
		s.gangPending = append(s.gangPending[:i], s.gangPending[i+1:]...)
		activated++
		if s.o.enabled {
			s.o.gangsActivated.Inc()
			s.event(evGangActivate, 0, int64(gid), "")
		}
	}
	return activated
}

// gated reports whether a task is a member of a gang that has not been
// activated yet (it must not request resources).
func (t *taskState) gated() bool { return t.gang != nil && !t.gang.active }

// activeMember reports whether a task belongs to an activated gang.
func (t *taskState) activeMember() bool { return t.gang != nil && t.gang.active }

// gangAcquiring reports whether a task belongs to an active gang that is
// not yet fully provisioned. FailResource uses it to extend the
// still-acquiring revocation rule to gang granularity: a member's unit is
// only safe from revocation once the whole gang holds its complete set.
func (s *System) gangAcquiring(t *taskState) bool {
	return t.activeMember() && !s.gangProvisioned(t.gang)
}

func (s *System) gangProvisioned(g *gangState) bool {
	for _, id := range g.members {
		t := s.tasks[id]
		if t == nil || t.remaining() > 0 {
			return false
		}
	}
	return true
}

// GangProvisioned reports whether every member of a gang holds its full
// resource set (the gang's atomic grant is complete).
func (s *System) GangProvisioned(gid GangID) bool {
	g := s.gangs[gid]
	return g != nil && s.gangProvisioned(g)
}

// GangMembers reports a gang's member task IDs, or nil if unknown.
func (s *System) GangMembers(gid GangID) []TaskID {
	g := s.gangs[gid]
	if g == nil {
		return nil
	}
	return append([]TaskID(nil), g.members...)
}

// GangActive reports whether a gang passed the activation gate (its
// members compete for resources).
func (s *System) GangActive(gid GangID) bool {
	g := s.gangs[gid]
	return g != nil && g.active
}

// PendingGangs counts gangs still gated before activation.
func (s *System) PendingGangs() int { return len(s.gangPending) }

// resetGang is the atomic-sever half of the gang contract: tear down every
// member's circuits, return every held unit to the pool, and send the gang
// back through the activation gate (front of the pending queue — it
// already held its FIFO slot once). Members that had fully provisioned and
// left their queues re-enter at the back; gated members never block
// capacity, and any task queued behind one holds nothing, so the banker's
// completion orders stay physically realizable. Returns the member IDs.
func (s *System) resetGang(g *gangState) []TaskID {
	affected := make([]TaskID, 0, len(g.members))
	for _, id := range g.members {
		t := s.tasks[id]
		if t == nil {
			continue
		}
		p := t.task.Proc
		for _, c := range t.circuits {
			s.sever(t, c)
		}
		t.circuits = nil
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
		if !slices.Contains(s.queues[p], t) {
			s.queues[p] = append(s.queues[p], t)
		}
		affected = append(affected, id)
	}
	g.active = false
	s.led.closeRow(&g.row) // back behind the gate: no longer committed
	s.gangPending = append([]GangID{g.id}, s.gangPending...)
	if s.o.enabled {
		s.o.gangResets.Inc()
		s.event(evGangReset, 0, int64(g.id), "")
	}
	return affected
}

// resetGangsOf applies the atomic-sever rule after a hardware fault: every
// gang that lost a unit through any of the affected tasks is reset exactly
// once (fully provisioned gangs are immune — their acquisition contract is
// complete, like provisioned singletons). Returns the affected set merged
// with the reset members, deduplicated and sorted.
func (s *System) resetGangsOf(affected []TaskID) []TaskID {
	var extra []TaskID
	var seen map[*gangState]bool
	for _, id := range affected {
		g := s.tasks[id].gang
		if g == nil || seen[g] {
			continue
		}
		if seen == nil {
			seen = map[*gangState]bool{}
		}
		seen[g] = true
		if !g.active || s.gangProvisioned(g) {
			continue
		}
		extra = append(extra, s.resetGang(g)...)
	}
	if len(extra) == 0 {
		return affected
	}
	set := make(map[TaskID]bool, len(affected)+len(extra))
	for _, id := range affected {
		set[id] = true
	}
	for _, id := range extra {
		set[id] = true
	}
	out := make([]TaskID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CancelGang withdraws a whole gang at any point before EndGangService:
// every member leaves its queue, in-flight circuits are torn down and held
// units return to the pool. Members cannot be canceled individually
// (Cancel rejects them) — the gang is the unit of withdrawal, exactly as
// it is the unit of grant and sever.
func (s *System) CancelGang(gid GangID) error {
	g := s.gangs[gid]
	if g == nil {
		return fmt.Errorf("system: unknown gang %d", gid)
	}
	for _, id := range g.members {
		if _, ok := s.tasks[id]; !ok {
			continue
		}
		if err := s.cancelTask(id); err != nil {
			return fmt.Errorf("system: canceling gang %d: %w", gid, err)
		}
	}
	for i, p := range s.gangPending {
		if p == gid {
			s.gangPending = append(s.gangPending[:i], s.gangPending[i+1:]...)
			break
		}
	}
	s.led.closeRow(&g.row)
	delete(s.gangs, gid)
	return nil
}

// EndGangService completes a gang: every member must be fully provisioned
// and idle, and all their resources return to the pool together. Members
// cannot be released individually (EndService rejects them).
func (s *System) EndGangService(gid GangID) error {
	g := s.gangs[gid]
	if g == nil {
		return fmt.Errorf("system: unknown gang %d", gid)
	}
	for _, id := range g.members {
		t := s.tasks[id]
		if t == nil {
			return fmt.Errorf("system: gang %d: unknown member task %d", gid, id)
		}
		if t.remaining() != 0 {
			return fmt.Errorf("system: gang %d: member task %d still needs %d resources", gid, id, t.remaining())
		}
		if s.transmitting[t.task.Proc] == id {
			return fmt.Errorf("system: gang %d: member task %d is still transmitting", gid, id)
		}
	}
	for _, id := range g.members {
		s.vacateAll(s.tasks[id])
		delete(s.tasks, id)
	}
	s.led.closeRow(&g.row)
	delete(s.gangs, gid)
	return nil
}
