package system

import (
	"errors"
	"fmt"

	"rsin/internal/topology"
)

// MaxTier is the lowest-urgency priority class. Tiers run 0 (most
// urgent) through MaxTier inclusive, so there are MaxTier+1 classes — a
// small fixed band, matching the paper's finite priority levels y_p and
// keeping per-tier instruments enumerable.
const MaxTier = 7

// maxFinePriority bounds Task.Priority (and each preference weight) so
// that tier and fine-grain priority pack into one solver priority without
// overflow or cross-tier bleed: the solver sees
// (MaxTier-Tier)<<tierShift + Priority, and tierShift > log2(max fine
// priority) guarantees any tier-k request outranks every tier-(k+1)
// request regardless of fine-grain values.
const (
	maxFinePriority = 1 << 20
	tierShift       = 21
)

// ErrBadTask is wrapped by Submit when a task's priority class, preference
// vector or typed-needs vector is malformed: tier out of [0, MaxTier],
// fine-grain priority out of [0, 2^20), a preference vector whose length
// does not match the resource count, a preference weight out of [0, 2^20),
// a negative scalar Type, a Needs vector that is empty, carries a negative
// type or non-positive count, or is combined with the scalar Need/Type pair. The check runs
// before any queue or shard dispatch, so a malformed task never consumes an
// ID or reaches a scheduler.
var ErrBadTask = errors.New("system: malformed task")

// ValidateTask checks a task's tier, fine-grain priority, preference vector
// and typed-needs vector against a fabric of ress resources. It is the
// shared admission gate: system.Submit and sched.Scheduler.Submit both
// apply it before accepting the task.
func ValidateTask(t Task, ress int) error {
	if t.Tier < 0 || t.Tier > MaxTier {
		return fmt.Errorf("%w: tier %d out of range [0, %d]", ErrBadTask, t.Tier, MaxTier)
	}
	if t.Type < 0 {
		return fmt.Errorf("%w: negative resource type %d", ErrBadTask, t.Type)
	}
	if t.Needs != nil {
		if t.Need != 0 || t.Type != 0 {
			return fmt.Errorf("%w: typed needs vector and scalar need/type are mutually exclusive", ErrBadTask)
		}
		if len(t.Needs) == 0 {
			return fmt.Errorf("%w: typed needs vector is empty", ErrBadTask)
		}
		for ty, n := range t.Needs {
			if ty < 0 {
				return fmt.Errorf("%w: negative resource type %d in needs vector", ErrBadTask, ty)
			}
			if n <= 0 {
				return fmt.Errorf("%w: non-positive need %d for resource type %d", ErrBadTask, n, ty)
			}
		}
	}
	if t.Priority < 0 || t.Priority >= maxFinePriority {
		return fmt.Errorf("%w: priority %d out of range [0, %d)", ErrBadTask, t.Priority, int64(maxFinePriority))
	}
	if t.Prefs != nil {
		if len(t.Prefs) != ress {
			return fmt.Errorf("%w: %d preference weights for %d resources", ErrBadTask, len(t.Prefs), ress)
		}
		for r, w := range t.Prefs {
			if w < 0 || w >= maxFinePriority {
				return fmt.Errorf("%w: preference weight %d for resource %d out of range [0, %d)",
					ErrBadTask, w, r, int64(maxFinePriority))
			}
		}
	}
	return nil
}

// TierWeight is the weighted value one unit of a tier-k task contributes
// to preemption decisions: 2^(MaxTier-k), so tier 0 outweighs any number
// of units from strictly lower tiers combined (within the 8-tier band a
// tier-k unit outweighs up to 2 units of tier k+1, 4 of k+2, ...). The
// sched layer's preemption rule severs a lower-tier circuit only when the
// exchange strictly increases total tier weight.
func TierWeight(tier int) int64 {
	if tier < 0 {
		tier = 0
	}
	if tier > MaxTier {
		tier = MaxTier
	}
	return 1 << (MaxTier - tier)
}

// effectivePriority folds a task's tier and fine-grain priority into the
// single solver priority y_p of Transformation 2: tier dominates (see
// tierShift), fine-grain priority breaks ties within a tier.
func effectivePriority(t Task) int64 {
	return int64(MaxTier-t.Tier)<<tierShift + t.Priority
}

// QueueHead reports the task at the head of processor p's queue, or -1
// when the queue is empty or p is out of range. Only the queue head
// competes for resources on a cycle, so the sched layer's preemption
// policy picks its beneficiary among queue heads — severing a unit for a
// queued-behind task could not be claimed by that task next cycle.
func (s *System) QueueHead(p int) TaskID {
	if p < 0 || p >= len(s.queues) || len(s.queues[p]) == 0 {
		return -1
	}
	return s.queues[p][0].id
}

// RoutableHeld returns the first unit task id holds, in acquisition
// order, that processor p can reach over free, usable links, or -1 when
// none is reachable (or id is unknown, or p out of range). The sched
// layer's preemption policy probes it per candidate victim: severing a
// lower-tier holder is pointless if the beneficiary cannot reach the
// freed resource on the surviving fabric. One reachability sweep over
// reused scratch answers for every held unit at once.
func (s *System) RoutableHeld(id TaskID, p int) int {
	t, ok := s.tasks[id]
	if !ok || len(t.held) == 0 || p < 0 || p >= s.net.Procs {
		return -1
	}
	if s.probe == nil {
		s.probe = &routeProbe{}
	}
	s.probe.sweep(s.net, p)
	for _, r := range t.held {
		if s.probe.res[r] == s.probe.stamp && !s.net.ResourceFaulted(r) {
			return r
		}
	}
	return -1
}

// routeProbe is RoutableHeld's scratch: per-box and per-resource marks,
// current when they equal stamp, and the DFS stack of link IDs.
type routeProbe struct {
	stamp    int
	box, res []int
	stack    []int
}

// sweep marks every box and resource processor p reaches over links
// that are free and usable — the paths FindPath would search.
func (pr *routeProbe) sweep(net *topology.Network, p int) {
	if pr.box == nil {
		pr.box = make([]int, len(net.Boxes))
		pr.res = make([]int, net.Ress)
	}
	pr.stamp++
	stack := pr.stack[:0]
	if lid := net.ProcLink[p]; lid != -1 {
		stack = append(stack, lid)
	}
	for len(stack) > 0 {
		lid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if net.Links[lid].State != topology.LinkFree || !net.LinkUsable(lid) {
			continue
		}
		to := net.Links[lid].To
		switch to.Kind {
		case topology.KindResource:
			pr.res[to.Index] = pr.stamp
		case topology.KindBox:
			if pr.box[to.Index] == pr.stamp {
				continue
			}
			pr.box[to.Index] = pr.stamp
			for _, out := range net.Boxes[to.Index].Out {
				if out != -1 {
					stack = append(stack, out)
				}
			}
		}
	}
	pr.stack = stack
}

// Preempt revokes resource r from a still-acquiring task: the unit
// returns to the free pool (schedulable in the same cycle), and if the
// task is mid-transmission on a circuit delivering r, that circuit is
// severed exactly like a hardware fault — the processor's pending
// EndTransmission reports ErrCircuitSevered and the task re-requests the
// unit on a later cycle.
//
// A fully-provisioned task (remaining 0) cannot be preempted: it is
// computing on its complete resource set, mirroring FailResource's rule
// that provisioned holders keep their units. The caller — the sched
// layer's priority policy — decides *whether* preemption is worth it
// (strict tier-weight improvement); this primitive only performs it.
func (s *System) Preempt(id TaskID, r int) error {
	t, ok := s.tasks[id]
	if !ok {
		return fmt.Errorf("system: unknown task %d", id)
	}
	if t.gang != nil {
		// Revoking one member's unit would break the gang's atomic grant;
		// the preemption policy must pick a singleton victim instead.
		return fmt.Errorf("system: task %d belongs to gang %d and cannot be preempted", id, t.gang.id)
	}
	if r < 0 || r >= s.net.Ress {
		return fmt.Errorf("system: resource %d out of range", r)
	}
	if s.resHolder[r] != id {
		return fmt.Errorf("system: task %d does not hold resource %d", id, r)
	}
	if t.remaining() == 0 {
		return fmt.Errorf("system: task %d is fully provisioned and cannot be preempted", id)
	}
	// Tear down an in-flight delivery of r, if any.
	kept := t.circuits[:0]
	for _, c := range t.circuits {
		if c.Res != r {
			kept = append(kept, c)
			continue
		}
		s.sever(t, c)
	}
	t.circuits = kept
	s.revokeUnit(t, r)
	if s.o.enabled {
		s.o.preempts.Inc()
		s.event(evPreempt, id, int64(r), "")
	}
	return nil
}
