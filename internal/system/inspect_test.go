package system

// The readers below serve the package's tests only: the service never asks
// for a lone task's withdrawal by TaskID (it withdraws the entity, through
// CancelGang) nor inspects the activation gate from outside.

// Cancel withdraws a task at any point before EndService: it is removed
// from its processor's queue, any in-flight circuit is torn down, and
// every resource it holds returns to the free pool. Unlike EndService it
// does not require the task to be fully provisioned or idle, so a client
// that abandons a queued or partially-provisioned task (a deadline, a
// crashed caller) cannot strand its queue-head slot or leak held units.
func (s *System) Cancel(id TaskID) error { return s.withdraw(s.alone(id)) }

// GangMembers reports an entity's member task IDs, or nil if unknown.
func (s *System) GangMembers(gid GangID) []TaskID {
	e, _ := s.entity(TaskID(gid))
	if e == nil {
		return nil
	}
	ids := make([]TaskID, len(e.members))
	for i, t := range e.members {
		ids[i] = t.id
	}
	return ids
}

// GangActive reports whether an entity is past the activation gate (its
// members compete for resources); a task alone never waits at it.
func (s *System) GangActive(gid GangID) bool {
	e, _ := s.entity(TaskID(gid))
	return e != nil && !e.atGate
}

// PendingGangs counts gangs still gated before activation.
func (s *System) PendingGangs() int { return len(s.gangPending) }
