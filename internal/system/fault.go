package system

import (
	"fmt"
	"slices"

	"rsin/internal/bitset"
	"rsin/internal/topology"
)

// ApplyFaults applies one correlated hardware event, a batch of ops, and
// is the one way a fault enters a System: the paper's architecture
// assumes a perfect fabric, and a fault batch makes component failure a
// scheduling input instead. A failed component is masked from every
// scheduler (the flow transformations, the token architecture, the
// heuristics all solve on the surviving subgraph); a repaired one
// returns, and queued work reacquires on the healed fabric in the
// ordinary scheduling cycles.
//
// The batch is all-or-nothing: every op is checked first, so a bad op — an
// unknown target or an index out of the fabric's range — refuses the
// whole batch and changes nothing. The ops then apply in order, each with
// its own consequences before the next runs (applyFault). ApplyFaults
// returns the ops that changed the fabric — failing a failed component or
// repairing a healthy one is no event — and the tasks the batch cost a
// unit or whose gang it reset (settle), sorted, each once; both slices are
// the System's own, valid until the next call. A batch that changed the
// fabric replaces the census (UsableResources) with a new map.
func (s *System) ApplyFaults(ops []FaultOp) (changed []FaultOp, severed []TaskID, err error) {
	for _, op := range ops {
		if err := s.checkFault(op); err != nil {
			return nil, nil, err
		}
	}
	s.changed, s.severed = s.changed[:0], s.severed[:0]
	for _, op := range ops {
		if s.applyFault(op) {
			s.changed = append(s.changed, op)
		}
	}
	slices.Sort(s.severed)
	s.severed = slices.Compact(s.severed)
	if len(s.changed) > 0 {
		s.census = s.net.UsableByType(s.cfg.Types)
	}
	return s.changed, s.severed, nil
}

// ApplyFault is ApplyFaults on a batch of one op, returning its severed
// list. It is kept for callers that drive a System one op at a time
// (bench/'s direct drive).
func (s *System) ApplyFault(op FaultOp) ([]TaskID, error) {
	_, severed, err := s.ApplyFaults([]FaultOp{op})
	return severed, err
}

// checkFault reports the error that refuses op's batch: an unknown target
// or an index out of the fabric's range.
func (s *System) checkFault(op FaultOp) error {
	n := 0
	switch op.Target {
	case FaultTargetLink:
		n = len(s.net.Links)
	case FaultTargetBox:
		n = len(s.net.Boxes)
	case FaultTargetResource:
		n = s.net.Ress
	default:
		return fmt.Errorf("system: unknown fault target %v", op.Target)
	}
	if op.Index < 0 || op.Index >= n {
		return fmt.Errorf("system: %v %d out of range [0,%d)", op.Target, op.Index, n)
	}
	return nil
}

// applyFault applies one checked op and reports whether it changed the
// fabric; the topology's Fail/Repair are idempotent and move the fault
// epoch exactly when they change state. A failed link or switchbox severs
// the circuits crossing it. A failed resource severs a circuit
// transmitting to it, and a unit of it held by a task still acquiring is
// revoked and re-queued (the resource is gone, the task must obtain a
// surviving one). A fully provisioned task keeps the unit — its
// acquisition contract is already complete — and the fault takes effect
// when EndService returns the resource, which then never re-enters the
// free pool until repaired. A gang member's unit is safe only once the
// whole gang holds its complete set. The tasks a failing op cost a unit
// join s.severed, and settle resets their gangs before the next op runs.
func (s *System) applyFault(op FaultOp) bool {
	ep, i, n := s.net.FaultEpoch(), op.Index, s.net
	// checkFault passed op, so the topology's own range check cannot fail.
	switch {
	case op.Target == FaultTargetLink && op.Repair:
		_ = n.RepairLink(i)
	case op.Target == FaultTargetLink:
		_ = n.FailLink(i)
	case op.Target == FaultTargetBox && op.Repair:
		_ = n.RepairBox(i)
	case op.Target == FaultTargetBox:
		_ = n.FailBox(i)
	case op.Repair:
		_ = n.RepairResource(i)
	default:
		_ = n.FailResource(i)
	}
	if n.FaultEpoch() == ep {
		return false
	}
	res := op.Target == FaultTargetResource
	if res && s.resHolder[i] == -1 {
		// The ledger's free count follows an unheld resource's fault flag.
		// A held resource is in no free count; vacate decides when it
		// returns.
		if op.Repair {
			s.led.free[s.led.resTy[i]]++
		} else {
			s.led.free[s.led.resTy[i]]--
		}
	}
	if op.Repair {
		return true
	}
	from := len(s.severed)
	s.severBroken()
	if res {
		if t := s.task(s.resHolder[i]); t != nil && !t.ent.provisioned() {
			s.revokeUnit(t, i)
			s.severed = append(s.severed, t.id)
		}
	}
	s.settle(from)
	return true
}

// FaultEpoch reports the fabric's fault generation counter; it advances
// on every op that changes the fabric.
func (s *System) FaultEpoch() uint64 { return s.net.FaultEpoch() }

// OpenLinks reports the fabric's free-and-usable link words
// (topology.Network.OpenLinks): bit l is set when link l carries no
// circuit and no fault masks it. The slice is the System's own; a caller
// only reads it, and copies it to keep it past the next call.
func (s *System) OpenLinks() bitset.Bits { return s.net.OpenLinks() }

// UsableResources reports the degraded-capacity census: per resource
// type (type 0 throughout when Config.Types is nil), how many resources
// are neither failed nor stranded behind failed components — i.e.
// structurally reachable from at least one processor on the surviving
// fabric. With no active faults it equals the configured census. The map
// is the System's own and read-only: New computes it, and a batch that
// changes the fabric replaces it with a new map rather than writing it,
// so a caller may keep it, and hand it to other goroutines, for good.
func (s *System) UsableResources() map[int]int { return s.census }

// circuitUsable reports whether every link of an established circuit is
// still usable (no component on its path has failed).
func (s *System) circuitUsable(c topology.Circuit) bool {
	for _, lid := range c.Links {
		if !s.net.LinkUsable(lid) {
			return false
		}
	}
	return true
}

// sever is the one circuit teardown outside EndTransmission, shared by
// hardware faults, gang resets and preemption: the circuit's links are
// force-released (they are link-disjoint, so only this circuit owns them)
// and, if the processor is still transmitting on it, the transmission
// ends. The processor's next EndTransmission reports it is not
// transmitting; the caller that severed reports the loss. Dropping c from
// t.circuits and revoking the unit are the caller's.
func (s *System) sever(t *taskState, c topology.Circuit) {
	s.net.ForceRelease(c)
	if s.transmitting[c.Proc] == t.id {
		s.transmitting[c.Proc] = -1
	}
}

// severBroken severs every in-flight circuit that now traverses a failed
// component and revokes the unit it was delivering. The task stays at its
// queue head with its remaining count restored — the next cycle re-requests
// the lost unit on whatever capacity survives. It walks the tasks in slot
// order, so which unit goes first is a function of the System's state.
// Appends the affected task IDs to s.severed, in slot order, once per unit
// (ApplyFaults sorts them).
func (s *System) severBroken() {
	for t := range s.tasks() {
		kept := t.circuits[:0]
		for _, c := range t.circuits {
			if s.circuitUsable(c) {
				kept = append(kept, c)
				continue
			}
			s.sever(t, c)
			s.revokeUnit(t, c.Res)
			s.severed = append(s.severed, t.id)
		}
		t.circuits = kept
	}
}

// revokeUnit removes one held unit of resource r from a task and frees
// the holder slot. The resource returns to the schedulable pool only if
// it is itself healthy (Cycle skips failed resources). The unit's charge
// leaves with it, so the re-request goes against the right commodity: the
// demand entry of r's type, since on a typed fabric only the typed solver
// runs and it grants a type only to a request for it.
func (s *System) revokeUnit(t *taskState, r int) {
	if i := slices.Index(t.held, r); i >= 0 {
		t.held = slices.Delete(t.held, i, i+1)
		for e, d := range t.demand {
			if d.Type == s.resType(r) {
				t.have[e]--
				break
			}
		}
		// The ledger follows: the unit is owed again and leaves the entity's
		// row, and an entity left holding nothing is no longer committed
		// (rule 1, DESIGN.md §18; a gang that lost a unit is reset in the
		// same operation, which closes its row whatever it still holds).
		l := &s.led
		l.owed++
		c := s.cell(t, r)
		l.rem[c]++
		l.held[c]--
		if row := c - c%len(l.types); allZero(l.held[row : row+len(l.types)]) {
			l.closeRow(&t.ent.row)
		}
	}
	if s.resHolder[r] == t.id {
		s.vacate(r)
	}
}
