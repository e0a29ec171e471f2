package system

import (
	"errors"
	"slices"
	"testing"

	"rsin/internal/topology"
)

// TestValidateTaskTable pins the typed admission gate for priority
// classes and preference vectors: every malformed shape is rejected
// with an error matching ErrBadTask, every legal shape passes, and the
// same verdicts apply at Submit (so a malformed task never consumes a
// task ID or a queue slot).
func TestValidateTaskTable(t *testing.T) {
	const ress = 4
	cases := []struct {
		name string
		task Task
		bad  bool
	}{
		{"zero value", Task{}, false},
		{"max tier", Task{Tier: MaxTier}, false},
		{"tier below range", Task{Tier: -1}, true},
		{"tier above range", Task{Tier: MaxTier + 1}, true},
		{"priority max legal", Task{Priority: maxFinePriority - 1}, false},
		{"priority negative", Task{Priority: -1}, true},
		{"priority at cap", Task{Priority: maxFinePriority}, true},
		{"prefs full length", Task{Prefs: make([]int64, ress)}, false},
		{"prefs short", Task{Prefs: make([]int64, ress-1)}, true},
		{"prefs long", Task{Prefs: make([]int64, ress+1)}, true},
		{"prefs empty non-nil", Task{Prefs: []int64{}}, true},
		{"prefs weight negative", Task{Prefs: []int64{0, -1, 0, 0}}, true},
		{"prefs weight at cap", Task{Prefs: []int64{0, 0, maxFinePriority, 0}}, true},
		{"prefs weight max legal", Task{Prefs: []int64{0, 0, maxFinePriority - 1, 0}}, false},
		{"scalar type negative", Task{Type: -1}, true},
	}
	sys, err := New(Config{Net: topology.Crossbar(2, ress), Discipline: MinCost})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		err := ValidateTask(c.task, ress)
		if c.bad && !errors.Is(err, ErrBadTask) {
			t.Errorf("%s: ValidateTask = %v, want ErrBadTask", c.name, err)
		}
		if !c.bad && err != nil {
			t.Errorf("%s: ValidateTask = %v, want nil", c.name, err)
		}
		before := sys.Pending()
		_, serr := sys.Submit(c.task)
		if c.bad {
			if !errors.Is(serr, ErrBadTask) {
				t.Errorf("%s: Submit = %v, want ErrBadTask", c.name, serr)
			}
			if sys.Pending() != before {
				t.Errorf("%s: rejected task entered the system", c.name)
			}
		} else if serr != nil {
			t.Errorf("%s: Submit = %v, want nil", c.name, serr)
		}
	}
}

// TestTierWeightMonotone pins the preemption exchange rate: weights are
// strictly decreasing in tier (the strict-improvement rule depends on
// it) and out-of-band tiers clamp instead of misbehaving.
func TestTierWeightMonotone(t *testing.T) {
	for tier := 0; tier < MaxTier; tier++ {
		if TierWeight(tier) <= TierWeight(tier+1) {
			t.Fatalf("TierWeight(%d)=%d not greater than TierWeight(%d)=%d",
				tier, TierWeight(tier), tier+1, TierWeight(tier+1))
		}
	}
	if TierWeight(MaxTier) != 1 {
		t.Fatalf("TierWeight(MaxTier) = %d, want 1", TierWeight(MaxTier))
	}
	if TierWeight(-5) != TierWeight(0) || TierWeight(MaxTier+5) != TierWeight(MaxTier) {
		t.Fatal("out-of-band tiers must clamp")
	}
}

// TestEffectivePriorityTierDominates: any tier-k request outranks every
// tier-(k+1) request regardless of fine-grain priorities — the packing
// invariant the MinCost solve and the preemption rule both lean on.
func TestEffectivePriorityTierDominates(t *testing.T) {
	for tier := 0; tier < MaxTier; tier++ {
		lo := effectivePriority(Task{Tier: tier, Priority: 0})
		hi := effectivePriority(Task{Tier: tier + 1, Priority: maxFinePriority - 1})
		if lo <= hi {
			t.Fatalf("tier %d floor %d does not dominate tier %d ceiling %d", tier, lo, tier+1, hi)
		}
	}
}

// TestPreemptValidation covers the primitive's error surface and the
// provisioned-holder immunity rule.
func TestPreemptValidation(t *testing.T) {
	sys, err := New(Config{Net: topology.Crossbar(2, 2), Discipline: MinCost})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Preempt(99, 0); err == nil {
		t.Fatal("unknown task accepted")
	}
	id, err := sys.Submit(Task{Proc: 0, Need: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Preempt(id, -1); err == nil {
		t.Fatal("resource out of range accepted")
	}
	if err := sys.Preempt(id, 0); err == nil {
		t.Fatal("preempting a resource the task does not hold accepted")
	}
	if _, err := sys.Cycle(); err != nil {
		t.Fatal(err)
	}
	if err := sys.EndTransmission(0); err != nil {
		t.Fatal(err)
	}
	held := sys.Holding(id)
	if len(held) != 1 {
		t.Fatalf("holding %v", held)
	}
	// Fully provisioned (Need 1, holds 1): immune.
	if err := sys.Preempt(id, held[0]); err == nil {
		t.Fatal("fully provisioned holder preempted")
	}
}

// TestQueueHead pins headTask, which the exchange planner's pass over the
// processors reads: the first submission heads its queue until it is
// provisioned, then the next one moves up.
func TestQueueHead(t *testing.T) {
	sys, err := New(Config{Net: topology.Crossbar(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.headTask(0); got != nil {
		t.Fatalf("empty queue head = task %d, want none", got.id)
	}
	id, err := sys.Submit(Task{Proc: 0})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := sys.Submit(Task{Proc: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.headTask(0); got == nil || got.id != id {
		t.Fatalf("head = %s, want the first submission %d", taskName(got), id)
	}
	if _, err := sys.Cycle(); err != nil {
		t.Fatal(err)
	}
	if err := sys.EndTransmission(0); err != nil {
		t.Fatal(err)
	}
	// The provisioned head left the queue; the second task moves up.
	if got := sys.headTask(0); got == nil || got.id != id2 {
		t.Fatalf("head after provisioning = %s, want task %d", taskName(got), id2)
	}
}

// TestTierZeroWaitsNoLongerThanUntiered states what the priority tiers buy
// under contention, in cycles rather than wall time, so it reads no clock
// and has one outcome. The fabric is over-subscribed on purpose (crossbar
// 16x4, four tasks queued on every processor, client c in tier c mod 8) and
// every grant holds its resource for a scripted number of cycles, so every
// solve is a contended one: MaxFlow ignores Task.Tier, so under it the
// same tasks are the untiered load and it grants some maximum-cardinality
// subset; MinCost grants the subset of greatest weighted value. Tier 0
// must then wait no longer than anyone waits untiered, and strictly less
// than tier 7, which absorbs the queueing. The load runs twice, with
// the clients laid over the processors in ascending and in descending
// order: a solver that ignored the tiers would serve by processor, and no
// processor order favours tier 0 over tier 7 in both layouts. That the
// weighted value is optimal at all is held elsewhere, by the brute-force
// oracle of priority_differential_test.go.
func TestTierZeroWaitsNoLongerThanUntiered(t *testing.T) {
	const (
		procs, ress = 16, 4
		clients     = 4 * procs
		tiers       = MaxTier + 1
		hold        = 3 // cycles between a grant and its EndService
	)
	// drive runs the whole load through one System and returns, per tier,
	// the most cycles any of its tasks waited for its grant, and how many
	// cycles left a request blocked.
	drive := func(d Discipline, descending bool) (worst [tiers]int, contended int) {
		sys, err := New(Config{Net: topology.Crossbar(procs, ress), Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		tierOf := map[TaskID]int{}
		for c := 0; c < clients; c++ {
			task := Task{Proc: c % procs, Tier: c % tiers}
			if descending {
				task.Proc = procs - 1 - task.Proc
			}
			id, err := sys.Submit(task)
			if err != nil {
				t.Fatal(err)
			}
			tierOf[id] = task.Tier
		}
		ends := map[int][]TaskID{} // cycle -> tasks whose service ends as it starts
		for cycle, served := 0, 0; served < clients; cycle++ {
			if cycle > clients*hold {
				t.Fatalf("%d of %d tasks served after %d cycles", served, clients, cycle)
			}
			for _, id := range ends[cycle] {
				if err := sys.EndService(id); err != nil {
					t.Fatal(err)
				}
			}
			res, err := sys.Cycle()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Mapping.Blocked) > 0 {
				contended++
			}
			for _, a := range res.Mapping.Assigned {
				id := sys.Transmitting(a.Req.Proc)
				if err := sys.EndTransmission(a.Req.Proc); err != nil {
					t.Fatal(err)
				}
				// Every task was submitted before cycle 0, so the cycle
				// that grants it is its wait.
				worst[tierOf[id]] = max(worst[tierOf[id]], cycle)
				ends[cycle+hold] = append(ends[cycle+hold], id)
				served++
			}
		}
		return worst, contended
	}

	for _, descending := range []bool{false, true} {
		untiered, baseContended := drive(MaxFlow, descending)
		tiered, tierContended := drive(MinCost, descending)
		if baseContended == 0 || tierContended == 0 {
			t.Fatalf("did not exercise: %d untiered and %d tiered cycles left a request blocked; the comparison needs contention in both",
				baseContended, tierContended)
		}
		untieredWorst := slices.Max(untiered[:])
		if tiered[0] > untieredWorst {
			t.Errorf("descending=%v: tier 0 waited up to %d cycles tiered, the untiered run's worst is %d",
				descending, tiered[0], untieredWorst)
		}
		if tiered[0] >= tiered[MaxTier] {
			t.Errorf("descending=%v: tier 0 waited up to %d cycles, tier %d up to %d: the tiers did not order the queueing",
				descending, tiered[0], MaxTier, tiered[MaxTier])
		}
		t.Logf("descending=%v: worst wait in cycles by client tier, untiered %v, tiered %v", descending, untiered, tiered)
	}
}
