package system

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"rsin/internal/core"
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
// exchange planner (planExchanges) takes a unit only from a strictly lower
// tier, so every exchange strictly increases total tier weight.
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

// Exchange is one tier exchange a cycle made: Victim, a still-acquiring
// singleton, lost resource Res so that Beneficiary, a strictly more urgent
// queue head, requests in the same solve.
type Exchange struct {
	Victim, Beneficiary TaskID
	Res                 int
}

// exchangePlan is planExchanges' scratch, reused across cycles: the
// reachability marks of the latest sweep and the two sides' candidates.
type exchangePlan struct {
	routeProbe
	benefs, victims []*taskState
}

// planExchanges is the tier-preemption policy (Config.Preempt), run once a
// cycle between the banker's admission and the solve.
//
//   - Beneficiaries are the acquiring singleton queue heads the cycle's free
//     units do not cover, most urgent first: under the banker the heads it
//     refused, without avoidance the requesting heads ranked past the free
//     count.
//   - Each takes the least urgent still-acquiring singleton holder of a
//     strictly lower tier whose unit it can reach. Under the banker the
//     exchange happens only if admit accepts the beneficiary on the trial
//     with that unit back in the pool.
//   - A victim is a holder the free units do not cover either: one the
//     banker admitted this cycle would only win a unit back in the same
//     solve, at the cost of a sever. (Without avoidance a covered head is
//     never strictly less urgent than an uncovered one.)
//   - A victim loses at most one unit a cycle and is no beneficiary.
//
// Gangs sit out both sides, provisioned tasks are immune, and the tier test
// is strict, so equal tiers never exchange. Ties break by lower task ID. An
// acquiring singleton holder is always its queue's head (singletons never
// bypass), so one pass over the heads finds both sides. The plan is made on
// the cycle's opening holdings and then carried out: Preempt revokes each
// unit, which the offer list then picks up, and a refused beneficiary joins
// reqs (in processor order), so the one solve that follows grants it.
func (s *System) planExchanges(tr *trial, res *CycleResult, reqs []core.Request, prefs []*taskState) ([]core.Request, []*taskState, error) {
	if s.xp == nil {
		s.xp = &exchangePlan{}
	}
	xp := s.xp
	benefs, victims := xp.benefs[:0], xp.victims[:0]
	for p, q := range s.queues {
		if len(q) == 0 || q[0].gang != nil || q[0].remaining() <= 0 {
			continue
		}
		t := q[0]
		if len(t.held) > 0 && (tr == nil || s.taskOf[p] != t) {
			victims = append(victims, t)
		}
		if tr == nil && s.taskOf[p] == t || tr != nil && s.taskOf[p] == nil && s.transmitting[p] == -1 {
			benefs = append(benefs, t)
		}
	}
	xp.benefs, xp.victims = benefs, victims
	slices.SortFunc(benefs, moreUrgent)
	slices.SortFunc(victims, lessUrgent)
	if tr == nil {
		// Every head requests; the free units cover the most urgent.
		benefs = benefs[min(s.led.free[0], len(benefs)):]
	}
	for _, b := range benefs {
		if len(victims) == 0 || victims[0].task.Tier <= b.task.Tier ||
			slices.ContainsFunc(res.Preempted, func(x Exchange) bool { return x.Victim == b.id }) {
			continue
		}
		xp.sweep(s.net, b.task.Proc)
		for i, v := range victims {
			if v.task.Tier <= b.task.Tier {
				break
			}
			r := xp.routableHeld(s.net, v)
			if r < 0 {
				continue
			}
			if tr != nil {
				if !s.tryExchange(tr, b, v, r) {
					break
				}
				p := b.task.Proc
				s.taskOf[p] = b
				at, _ := slices.BinarySearchFunc(reqs, p, func(rq core.Request, p int) int { return rq.Proc - p })
				reqs = slices.Insert(reqs, at, core.Request{Proc: p, Priority: effectivePriority(b.task), Type: b.reqType()})
				if b.task.Prefs != nil {
					prefs = append(prefs, b)
				}
			}
			res.Preempted = append(res.Preempted, Exchange{Victim: v.id, Beneficiary: b.id, Res: r})
			victims = slices.Delete(victims, i, i+1)
			break
		}
	}
	for _, x := range res.Preempted {
		if err := s.Preempt(x.Victim, x.Res); err != nil {
			return nil, nil, fmt.Errorf("exchange for task %d: %w", x.Beneficiary, err)
		}
	}
	return reqs, prefs, nil
}

// moreUrgent orders beneficiaries most urgent first: lower tier, then
// lower task ID. lessUrgent orders victims least urgent first: higher
// tier, then lower task ID.
func moreUrgent(a, b *taskState) int { return cmp.Or(a.task.Tier-b.task.Tier, int(a.id-b.id)) }
func lessUrgent(a, b *taskState) int { return cmp.Or(b.task.Tier-a.task.Tier, int(a.id-b.id)) }

// tryExchange asks the banker about one planned exchange: victim v's unit r
// goes back to the trial's pool and beneficiary b is admitted against it.
// A refusal undoes the revoke, leaving the trial as it was.
func (s *System) tryExchange(tr *trial, b, v *taskState, r int) bool {
	ty, base := s.led.resTy[r], tr.base
	tr.revoke(v.row, ty)
	if s.admit(tr, b) {
		return true
	}
	tr.unrevoke(&s.led, v.row, ty, base)
	return false
}

// routableHeld returns the first unit t holds, in acquisition order, that
// is healthy and that the latest sweep reached, or -1: one sweep from the
// beneficiary's processor answers for every candidate victim.
func (pr *routeProbe) routableHeld(net *topology.Network, t *taskState) int {
	for _, r := range t.held {
		if pr.res[r] == pr.stamp && !net.ResourceFaulted(r) {
			return r
		}
	}
	return -1
}

// routeProbe is the planner's reachability scratch: per-box and
// per-resource marks, current when they equal stamp, and the DFS stack of
// link IDs.
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
// that provisioned holders keep their units. The caller — the cycle's
// exchange planner, with Config.Preempt — decides *whether* preemption is
// worth it (a strictly more urgent beneficiary); this primitive only
// performs it.
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
