package system

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rsin/internal/core"
	"rsin/internal/topology"
)

// predictExchanges is the reference exchange planner: planExchanges' rules
// restated by brute force over the state the cycle's admission left, sharing
// none of its code. Every task is a candidate on both sides, not only the
// queue heads, and coverage is spelled out on the victims' side too;
// reachability is one FindPath per held unit; the banker is
// the from-scratch hypoState that predictCycle's admissions moved (nil
// without avoidance). It records the exchanges in pr and, under the banker,
// each admitted beneficiary as its processor's request.
func predictExchanges(s *System, pr *prediction, hypo *hypoState) {
	var tasks []*taskState
	for _, t := range s.tasks {
		tasks = append(tasks, t)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].id < tasks[j].id })
	acquiring := func(t *taskState) bool { return t.gang == nil && t.remaining() > 0 }
	var benefs []*taskState
	for _, t := range tasks {
		p := t.task.Proc
		if !acquiring(t) || s.queues[p][0] != t {
			continue
		}
		if hypo == nil && pr.requests[p] == t || hypo != nil && pr.requests[p] == nil && s.transmitting[p] == -1 {
			benefs = append(benefs, t)
		}
	}
	sort.SliceStable(benefs, func(i, j int) bool { return benefs[i].task.Tier < benefs[j].task.Tier })
	covered := map[TaskID]bool{} // the requests this cycle's free units cover
	for _, t := range tasks {
		if hypo != nil && pr.requests[t.task.Proc] == t {
			covered[t.id] = true
		}
	}
	if hypo == nil {
		free := 0
		for r, holder := range s.resHolder {
			if holder == -1 && !s.net.ResourceFaulted(r) {
				free++
			}
		}
		for _, t := range benefs[:min(free, len(benefs))] {
			covered[t.id] = true
		}
		benefs = benefs[min(free, len(benefs)):]
	}
	lost := map[TaskID]bool{}
	for _, b := range benefs {
		if lost[b.id] {
			continue
		}
		var victim *taskState
		res := -1
		for _, v := range tasks {
			if !acquiring(v) || covered[v.id] || lost[v.id] || v.task.Tier <= b.task.Tier || victim != nil && v.task.Tier <= victim.task.Tier {
				continue
			}
			for _, r := range v.held {
				if !s.net.ResourceFaulted(r) && s.net.FindPath(b.task.Proc, func(res int) bool { return res == r }) != nil {
					victim, res = v, r
					break
				}
			}
		}
		if victim == nil {
			continue
		}
		if hypo != nil {
			if !hypo.exchange(s.resType(res), victim, b) {
				exchangesRefused++
				continue
			}
			pr.requests[b.task.Proc] = b
		}
		lost[victim.id] = true
		pr.exchanges = append(pr.exchanges, Exchange{Victim: victim.id, Beneficiary: b.id, Res: res})
	}
}

// exchangesRefused counts the exchanges predictExchanges found a victim
// for and the reference banker refused: the traces' evidence that the
// planner's trial admission decides something.
var exchangesRefused int

// exchange is the reference banker's verdict on one exchange: v's unit of
// type ty goes back to the free pool — v leaves the committed set if that
// was all it held — and b is admitted against it. A refusal restores the
// snapshot as it was.
func (h *hypoState) exchange(ty int, v, b *taskState) bool {
	free, entities, byTask := maps.Clone(h.freeByType), slices.Clone(h.entities), maps.Clone(h.byTask)
	e := h.byTask[v.id]
	rem, held := maps.Clone(e.rem), maps.Clone(e.held)
	h.freeByType[ty]++
	e.rem[ty]++
	e.held[ty]--
	holds := false
	for _, n := range e.held {
		holds = holds || n > 0
	}
	if !holds {
		h.entities = slices.DeleteFunc(h.entities, func(x *hypoEntity) bool { return x == e })
		delete(h.byTask, v.id)
	}
	if h.admit(b) {
		return true
	}
	h.freeByType, h.entities, h.byTask = free, entities, byTask
	e.rem, e.held = rem, held
	return false
}

// exchangeTally sums what TestExchangeDifferentialTraces saw.
type exchangeTally struct {
	cycles, oracle      int // cycles run; cycles held to the brute-force oracle
	exchanges, realized int // exchanges made; those whose beneficiary was granted in the same cycle
}

// TestExchangeDifferentialTraces holds the tier-exchange planner to its
// rules on seeded tiered traces — Omega(8), Omega(16), Benes(8) and an
// over-subscribed crossbar, under both avoidance modes, Need 1–4, fail and
// heal churn, Config.Preempt on. The System is driven through audited, so
// before every cycle the reference planner (predictExchanges) derives the
// exchange list from the pre-cycle state and the cycle must make exactly
// it, and after every operation the ledger is recomputed from scratch.
// After every cycle each victim must be a not-provisioned singleton strictly
// less urgent than its beneficiary and lose one unit at most, and the solve
// must reach the brute-force weighted value on its instance — the requests
// it was handed and the free units plus the exchanged ones. The test fails
// as "did not exercise" unless both avoidance modes exchange and the
// banker refuses at least one exchange.
func TestExchangeDifferentialTraces(t *testing.T) {
	fabrics := []func() *topology.Network{
		func() *topology.Network { return topology.Omega(8) },
		func() *topology.Network { return topology.Omega(16) },
		func() *topology.Network { return topology.Benes(8) },
		func() *topology.Network { return topology.Crossbar(8, 4) },
	}
	var exchanges, realized int
	for _, av := range []Avoidance{AvoidanceNone, AvoidanceBankers} {
		t.Run(fmt.Sprintf("avoid=%d", av), func(t *testing.T) {
			var tot exchangeTally
			refused := exchangesRefused
			for i, mk := range fabrics {
				rng := rand.New(rand.NewSource(int64(2801 + 100*int(av) + i)))
				x := runExchangeTrace(t, rng, mk(), av)
				tot.cycles += x.cycles
				tot.oracle += x.oracle
				tot.exchanges += x.exchanges
				tot.realized += x.realized
			}
			refused = exchangesRefused - refused
			if tot.exchanges == 0 || tot.oracle == 0 || av == AvoidanceBankers && refused == 0 {
				t.Fatalf("did not exercise: %d exchanges, %d refused by the banker, %d cycles held to the oracle, over %d cycles",
					tot.exchanges, refused, tot.oracle, tot.cycles)
			}
			t.Logf("%d cycles (%d held to the oracle), %d exchanges (%d more refused by the banker), %.1f%% of them granted their beneficiary in the same cycle",
				tot.cycles, tot.oracle, tot.exchanges, refused, 100*float64(tot.realized)/float64(tot.exchanges))
			exchanges += tot.exchanges
			realized += tot.realized
		})
	}
	// Without avoidance a beneficiary is only ranked uncovered: the solve,
	// cardinality first, may still serve others. Over both modes an exchange
	// almost always reaches the task it was made for.
	if share := float64(realized) / float64(max(exchanges, 1)); share < 0.9 {
		t.Errorf("%.1f%% of %d exchanges granted their beneficiary in the cycle that made them, want at least 90%%", 100*share, exchanges)
	} else {
		t.Logf("%.1f%% of %d exchanges granted their beneficiary in the cycle that made them", 100*share, exchanges)
	}
}

// oracleReqs bounds the instances held to the brute-force oracle, whose
// cost is exponential in the requests.
const oracleReqs = 8

func runExchangeTrace(t *testing.T, rng *rand.Rand, net *topology.Network, av Avoidance) (x exchangeTally) {
	t.Helper()
	prefs := make([]int64, net.Ress)
	for r := range prefs {
		prefs[r] = rng.Int63n(12)
	}
	raw, err := New(Config{Net: net, Discipline: MinCost, Avoidance: av, Preferences: prefs, Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	sys := audit(t, raw)
	var live []TaskID
	failedLinks, failedRes := map[int]bool{}, map[int]bool{}
	steps := 60
	if testing.Short() {
		steps = 20
	}
	for step := 0; step < steps; step++ {
		where := fmt.Sprintf("%s avoid=%d step %d", net.Name, av, step)
		// Arrivals on about half the processors with a short queue.
		for p := 0; p < net.Procs; p++ {
			if len(sys.queues[p]) >= 2 || rng.Intn(2) == 0 {
				continue
			}
			// Needs of 3 and 4 are what let the banker refuse an
			// exchange: a beneficiary that needs no more after the grant
			// than its victim did is always safe against the victim's unit.
			need := 1 + rng.Intn(2)
			if rng.Intn(2) == 0 {
				need += rng.Intn(3)
			}
			id, err := sys.Submit(Task{Proc: p, Tier: rng.Intn(MaxTier + 1), Priority: rng.Int63n(1000), Need: need})
			if errors.Is(err, ErrUnsatisfiable) {
				continue
			} else if err != nil {
				t.Fatalf("%s: submit: %v", where, err)
			}
			live = append(live, id)
		}
		// Slow releases keep the fabric contended; a rare cancel unwedges a
		// hold-and-wait deadlock without avoidance.
		live = slices.DeleteFunc(live, func(id TaskID) bool {
			switch {
			case sys.Remaining(id) == 0 && rng.Intn(3) == 0:
				if err := sys.EndService(id); err != nil {
					t.Fatalf("%s: end service %d: %v", where, id, err)
				}
				return true
			case sys.Remaining(id) > 0 && rng.Intn(20) == 0:
				if err := sys.Cancel(id); err != nil {
					t.Fatalf("%s: cancel %d: %v", where, id, err)
				}
				return true
			}
			return false
		})
		if rng.Intn(4) == 0 {
			applyRandomFault(t, rng, sys, net, failedLinks, failedRes)
		}
		for c := 0; c < 4*net.Procs; c++ {
			x.cycles++
			type before struct {
				tier, remaining int
				gang            bool
			}
			pre := map[TaskID]before{}
			for id, ts := range sys.tasks {
				pre[id] = before{ts.task.Tier, ts.remaining(), ts.gang != nil}
			}
			avail := snapshotAvail(sys, prefs)
			r, err := sys.Cycle()
			if err != nil {
				t.Fatalf("%s: cycle: %v", where, err)
			}
			victims := map[TaskID]bool{}
			for _, e := range r.Preempted {
				v, b := pre[e.Victim], pre[e.Beneficiary]
				if v.gang || v.remaining == 0 || v.tier <= b.tier || victims[e.Victim] {
					t.Fatalf("%s: exchange %+v: victim %+v, beneficiary %+v (victims so far %v)", where, e, v, b, victims)
				}
				victims[e.Victim] = true
				avail = append(avail, core.Avail{Res: e.Res, Preference: prefs[e.Res]})
				for _, a := range r.Mapping.Assigned {
					if sys.Transmitting(a.Req.Proc) == e.Beneficiary {
						x.realized++
					}
				}
			}
			x.exchanges += len(r.Preempted)
			for _, a := range r.Mapping.Assigned {
				if err := sys.EndTransmission(a.Req.Proc); err != nil && !errors.Is(err, ErrCircuitSevered) {
					t.Fatalf("%s: end transmission %d: %v", where, a.Req.Proc, err)
				}
			}
			reqs := slices.Concat(r.Mapping.Blocked)
			for _, a := range r.Mapping.Assigned {
				reqs = append(reqs, a.Req)
			}
			if len(reqs) > 0 && len(avail) > 0 && len(reqs) <= oracleReqs {
				x.oracle++
				if got, want := core.WeightedValue(reqs, avail, r.Mapping), core.BruteForceBestValue(sys.net, reqs, avail); got != want {
					t.Fatalf("%s: solve value %d after exchanges %+v, brute force %d", where, got, r.Preempted, want)
				}
			}
			if r.Granted == 0 {
				break
			}
		}
	}
	return x
}

// exchangeRig is the preemption holding pattern, stepped by hand: one
// MinCost crossbar (3 processors, 2 resources) with Preempt. Blocker H
// (tier 0, steered to resource 1 by its Prefs) is provisioned and so
// immune; victim V (tier 2, Need 2) holds resource 0 and waits for
// resource 1, still acquiring.
func exchangeRig(t *testing.T, av Avoidance) (s audited, h, v TaskID) {
	t.Helper()
	raw, err := New(Config{Net: topology.Crossbar(3, 2), Discipline: MinCost, Avoidance: av, Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	s = audit(t, raw)
	h = submit(t, s, Task{Proc: 2, Tier: 0, Prefs: []int64{0, 5}})
	grantRound(t, s)
	v = submit(t, s, Task{Proc: 0, Tier: 2, Need: 2})
	grantRound(t, s)
	if held := s.Holding(h); !slices.Equal(held, []int{1}) {
		t.Fatalf("blocker holds %v, want the preferred resource 1", held)
	}
	if held := s.Holding(v); !slices.Equal(held, []int{0}) {
		t.Fatalf("victim holds %v, want resource 0", held)
	}
	if r := grantRound(t, s); r.Granted != 0 || r.Preempted != nil {
		t.Fatalf("the holding pattern moved: %d granted, exchanges %+v", r.Granted, r.Preempted)
	}
	return s, h, v
}

// wantExchange steps one cycle and requires it to make exactly one
// exchange, v's resource 0 for b, and to grant b that resource.
func wantExchange(t *testing.T, s audited, v, b TaskID) {
	t.Helper()
	r := grantRound(t, s)
	if want := []Exchange{{Victim: v, Beneficiary: b, Res: 0}}; !slices.Equal(r.Preempted, want) {
		t.Fatalf("exchanges %+v, want %+v", r.Preempted, want)
	}
	if held := s.Holding(b); !slices.Equal(held, []int{0}) {
		t.Fatalf("beneficiary holds %v, want the exchanged resource 0", held)
	}
	if s.Remaining(v) != 2 {
		t.Fatalf("victim still needs %d, want 2", s.Remaining(v))
	}
}

// TestExchangeRegrant: a tier-0 arrival takes the tier-2 victim's unit in
// the cycle that first sees it, and that cycle grants it the unit; the
// victim re-acquires once the beneficiary leaves and completes once the
// blocker does — under both avoidance modes (under the banker the arrival
// is the head the banker refused).
func TestExchangeRegrant(t *testing.T) {
	for _, av := range []Avoidance{AvoidanceNone, AvoidanceBankers} {
		t.Run(fmt.Sprintf("avoid=%d", av), func(t *testing.T) {
			s, h, v := exchangeRig(t, av)
			b := submit(t, s, Task{Proc: 1, Tier: 0})
			wantExchange(t, s, v, b)
			if r := grantRound(t, s); r.Granted != 0 || r.Preempted != nil {
				t.Fatalf("after the exchange: %d granted, exchanges %+v", r.Granted, r.Preempted)
			}
			if err := s.EndService(b); err != nil {
				t.Fatal(err)
			}
			if r := grantRound(t, s); r.Granted != 1 || !slices.Equal(s.Holding(v), []int{0}) {
				t.Fatalf("victim re-acquired %d units, holds %v", r.Granted, s.Holding(v))
			}
			if err := s.EndService(h); err != nil {
				t.Fatal(err)
			}
			grantRound(t, s)
			if s.Remaining(v) != 0 {
				t.Fatalf("victim still needs %d after the blocker left", s.Remaining(v))
			}
		})
	}
}

// TestExchangeSameVictimAgain is the decision half of the sever budget: a
// victim that re-acquired its unit is the victim again for the next
// tier-0 arrival (the service charges each exchange to its budget).
func TestExchangeSameVictimAgain(t *testing.T) {
	s, _, v := exchangeRig(t, AvoidanceNone)
	b1 := submit(t, s, Task{Proc: 1, Tier: 0})
	wantExchange(t, s, v, b1)
	if err := s.EndService(b1); err != nil {
		t.Fatal(err)
	}
	grantRound(t, s)
	b2 := submit(t, s, Task{Proc: 1, Tier: 0})
	wantExchange(t, s, v, b2)
}

// TestExchangeStarvationGuard pins the strict-tier rule: an equal-tier and
// a less urgent arrival never take the victim's unit — the tier test is
// strict — so everyone waits for the blocker's natural release.
func TestExchangeStarvationGuard(t *testing.T) {
	for _, av := range []Avoidance{AvoidanceNone, AvoidanceBankers} {
		t.Run(fmt.Sprintf("avoid=%d", av), func(t *testing.T) {
			s, h, v := exchangeRig(t, av)
			equal := submit(t, s, Task{Proc: 1, Tier: 2})
			lower := submit(t, s, Task{Proc: 2, Tier: 5})
			for range 3 {
				if r := grantRound(t, s); r.Granted != 0 || r.Preempted != nil {
					t.Fatalf("%d granted, exchanges %+v: equal or lower tiers must not exchange", r.Granted, r.Preempted)
				}
			}
			if err := s.EndService(h); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 8 && (s.Remaining(v) > 0 || s.Remaining(equal) > 0 || s.Remaining(lower) > 0); c++ {
				if r := grantRound(t, s); r.Preempted != nil {
					t.Fatalf("exchanges %+v on the natural unwind", r.Preempted)
				}
				for _, id := range []TaskID{v, equal, lower} {
					if s.Remaining(id) == 0 {
						if err := s.EndService(id); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if s.Pending() != 0 {
				t.Fatalf("%d tasks still pending after the unwind", s.Pending())
			}
		})
	}
}

// TestExchangeAfterScanRefusal: a refusal the banker recorded this cycle
// must not outlive a trial revoke. Crossbar 3x3 under the banker: victim V
// (tier 7) and W (tier 1) each hold one unit of a Need-2 demand and one
// unit is free, so a fresh Need-3 beneficiary B on processor 0 is refused
// by a safety scan — granting it would leave nobody able to finish — and
// the refusal is recorded. W then takes the free unit and V is refused on
// an empty pool. With V's unit back in the pool B is safe (W, provisioned
// by its grant, releases two), so the exchange is made and B is granted.
func TestExchangeAfterScanRefusal(t *testing.T) {
	raw, err := New(Config{Net: topology.Crossbar(3, 3), Discipline: MinCost, Avoidance: AvoidanceBankers, Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	s := audit(t, raw)
	w := submit(t, s, Task{Proc: 1, Tier: 1, Need: 2})
	v := submit(t, s, Task{Proc: 2, Tier: 7, Need: 2})
	if r := grantRound(t, s); r.Granted != 2 || s.FreeResources() != 1 {
		t.Fatalf("set-up granted %d, %d free; want 2 and 1", r.Granted, s.FreeResources())
	}
	b := submit(t, s, Task{Proc: 0, Tier: 0, Need: 3})
	held := s.Holding(v)
	r := grantRound(t, s)
	if want := []Exchange{{Victim: v, Beneficiary: b, Res: held[0]}}; !slices.Equal(r.Preempted, want) || r.Deferred != 2 {
		t.Fatalf("exchanges %+v with %d deferred, want %+v with 2 (B by a scan, V on an empty pool)", r.Preempted, r.Deferred, want)
	}
	if len(s.Holding(b)) != 1 || s.Remaining(w) != 0 || s.Remaining(v) != 2 {
		t.Fatalf("B holds %v, W still needs %d, V %d; want one unit, 0 and 2", s.Holding(b), s.Remaining(w), s.Remaining(v))
	}
}
