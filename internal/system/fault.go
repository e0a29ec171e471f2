package system

import (
	"fmt"
	"slices"

	"rsin/internal/bitset"
	"rsin/internal/topology"
)

// Hardware fault operations. The paper's architecture assumes a perfect
// fabric; these methods make component failure a first-class scheduling
// input instead. Failing a component masks it from every scheduler (the
// flow transformations, the token architecture, the heuristics all solve
// on the surviving subgraph), severs any in-flight circuit that
// traverses it — the lost unit is revoked from its task and re-queued —
// and advances the network's fault epoch so layered services
// (internal/sched) can recompute degraded capacity. Repair restores the
// component; queued work then reacquires on the healed fabric in the
// ordinary scheduling cycles.

// FailLink marks a link failed and severs the circuits crossing it. It
// returns the IDs of tasks whose in-flight units were lost (each such
// task is back at its queue head requesting the unit again; see settle).
func (s *System) FailLink(id int) ([]TaskID, error) {
	if err := s.net.FailLink(id); err != nil {
		return nil, err
	}
	return s.settle(s.severBroken()), nil
}

// RepairLink clears a link fault.
func (s *System) RepairLink(id int) error { return s.net.RepairLink(id) }

// FailBox marks a switchbox failed — every link on its ports becomes
// unusable — and severs the circuits crossing it.
func (s *System) FailBox(id int) ([]TaskID, error) {
	if err := s.net.FailBox(id); err != nil {
		return nil, err
	}
	return s.settle(s.severBroken()), nil
}

// RepairBox clears a switchbox fault.
func (s *System) RepairBox(id int) error { return s.net.RepairBox(id) }

// FailResource marks a resource failed. A circuit transmitting to it is
// severed; a unit of it held by a task still acquiring is revoked and
// re-queued (the resource is gone, the task must obtain a surviving
// one). A fully provisioned task keeps the unit — its acquisition
// contract is already complete — and the fault takes effect when
// EndService returns the resource, which then never re-enters the free
// pool until repaired. A gang member's unit is safe only once the whole
// gang holds its complete set.
func (s *System) FailResource(r int) ([]TaskID, error) {
	if err := s.flipResource(r, s.net.FailResource, -1); err != nil {
		return nil, err
	}
	affected := s.severBroken()
	if id := s.resHolder[r]; id != -1 {
		if t := s.task(id); t != nil && !t.ent.provisioned() {
			s.revokeUnit(t, r)
			affected = append(affected, id)
		}
	}
	return s.settle(affected), nil
}

// RepairResource clears a resource fault, returning the resource to the
// free pool if no task holds it.
func (s *System) RepairResource(r int) error {
	return s.flipResource(r, s.net.RepairResource, +1)
}

// flipResource fails or repairs a resource in the topology and books it:
// the ledger's free count follows an unheld resource's fault flag, and only
// an effective transition — the topology's Fail/Repair are idempotent and
// move the fault epoch exactly when they change state. A held resource is
// in no free count; vacate decides when it returns.
func (s *System) flipResource(r int, flip func(int) error, delta int) error {
	ep := s.net.FaultEpoch()
	if err := flip(r); err != nil {
		return err
	}
	if s.net.FaultEpoch() != ep && s.resHolder[r] == -1 {
		s.led.free[s.led.resTy[r]] += delta
	}
	return nil
}

// CheckFault reports the error ApplyFault would return for op without
// applying it: an unknown target or an index out of the fabric's range. A
// caller applying a batch checks every op first, so a bad op rejects the
// whole batch before any of it lands.
func (s *System) CheckFault(op FaultOp) error {
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

// ApplyFault dispatches one FaultOp to the matching Fail/Repair method
// and returns the tasks whose units it severed or revoked, or whose gang
// it reset (settle; nil for repairs). An op CheckFault refuses changes
// nothing.
func (s *System) ApplyFault(op FaultOp) ([]TaskID, error) {
	if err := s.CheckFault(op); err != nil {
		return nil, err
	}
	switch op.Target {
	case FaultTargetLink:
		if op.Repair {
			return nil, s.RepairLink(op.Index)
		}
		return s.FailLink(op.Index)
	case FaultTargetBox:
		if op.Repair {
			return nil, s.RepairBox(op.Index)
		}
		return s.FailBox(op.Index)
	}
	if op.Repair {
		return nil, s.RepairResource(op.Index)
	}
	return s.FailResource(op.Index)
}

// FaultEpoch reports the fabric's fault generation counter; it advances
// on every effective Fail/Repair.
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
// fabric. With no active faults it equals the configured census.
func (s *System) UsableResources() map[int]int {
	src := s.usableResources()
	out := make(map[int]int, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// usableResources computes the census, cached per fault epoch (the
// reachability sweep runs once per fault/repair, not once per Submit).
func (s *System) usableResources() map[int]int {
	ep := s.net.FaultEpoch()
	if s.usableCacheOK && s.usableCacheEpoch == ep {
		return s.usableCache
	}
	m := s.net.UsableByType(s.cfg.Types)
	s.usableCache, s.usableCacheEpoch, s.usableCacheOK = m, ep, true
	return m
}

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
// Returns the affected task IDs, in slot order, once per unit (settle
// sorts them).
func (s *System) severBroken() []TaskID {
	var affected []TaskID
	for t := range s.tasks() {
		kept := t.circuits[:0]
		for _, c := range t.circuits {
			if s.circuitUsable(c) {
				kept = append(kept, c)
				continue
			}
			s.sever(t, c)
			s.revokeUnit(t, c.Res)
			affected = append(affected, t.id)
		}
		t.circuits = kept
	}
	return affected
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
