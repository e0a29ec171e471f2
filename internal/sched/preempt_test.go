package sched

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsin/internal/obs"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// preemptRig stands up one stepped MinCost crossbar shard (3 processors, 2
// resources) in a known holding pattern: blocker H (tier 0, preference-
// steered to resource 1) is fully provisioned and therefore immune to
// preemption, and victim V (tier 2, Need 2) holds resource 0 while
// waiting for resource 1 — still acquiring, so preemptible. The shard
// records into a registry, so the trace can be checked too.
func preemptRig(t *testing.T, severRetries int) (st *stepper, h, v *Handle) {
	t.Helper()
	st = newStepper(t, Config{
		Shards:       []system.Config{{Net: topology.Crossbar(3, 2), Discipline: system.MinCost}},
		SeverRetries: severRetries,
		Preempt:      true,
		Obs:          obs.NewRegistry(),
	})
	h = st.provision(system.Task{Proc: 2, Tier: 0, Prefs: []int64{0, 5}})
	if got := h.Resources(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("blocker holds %v, want the preferred resource 1", got)
	}
	v, err := st.submit(system.Task{Proc: 0, Tier: 2, Need: 2})
	if err != nil {
		t.Fatal(err)
	}
	st.step()
	if s := st.s.Stats(); s.Granted != 2 || fired(&v.job) {
		t.Fatalf("victim did not acquire its first unit and wait: %+v", s)
	}
	return st, h, v
}

// waitOK waits for a handle to resolve successfully.
func waitOK(t *testing.T, h *Handle, what string) {
	t.Helper()
	waitDone(t, h, what)
	if h.Err() != nil {
		t.Fatalf("%s: %v", what, h.Err())
	}
}

// granted requires a stepped handle provisioned.
func granted(t *testing.T, h *Handle, what string) {
	t.Helper()
	if !fired(&h.job) || h.Err() != nil {
		t.Fatalf("%s not provisioned in its epoch: %v", what, h.Err())
	}
}

// TestPreemptionRegrant is the retry half of the preemption accounting
// contract: a tier-0 arrival preempts the tier-2 victim's held unit
// exactly once, the beneficiary is provisioned with that unit, and the
// victim — its sever budget not exhausted — re-acquires on later epochs
// and completes normally. Exactly-once terminal accounting holds at
// quiescence. (system's TestExchangeRegrant steps the same decisions
// cycle by cycle.)
func TestPreemptionRegrant(t *testing.T) {
	st, h, v := preemptRig(t, 3)
	b := st.provision(system.Task{Proc: 1, Tier: 0})
	if got := b.Resources(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("beneficiary holds %v, want the preempted resource 0", got)
	}
	if s := st.s.Stats(); s.Preempts != 1 {
		t.Fatalf("Preempts = %d, want 1", s.Preempts)
	}
	if fired(&v.job) {
		t.Fatalf("victim resolved early: err=%v res=%v", v.Err(), v.Resources())
	}
	// Release the beneficiary: the victim re-acquires its preempted unit
	// (the one retry re-grant) in the release's epoch, then completes once
	// the blocker leaves.
	if err := st.release(&b.job); err != nil {
		t.Fatal(err)
	}
	if s := st.s.Stats(); s.Granted != 4 || fired(&v.job) {
		t.Fatalf("victim did not re-acquire its unit and wait: %+v", s)
	}
	if err := st.release(&h.job); err != nil {
		t.Fatal(err)
	}
	granted(t, v, "victim")
	if got := v.Resources(); len(got) != 2 {
		t.Fatalf("victim holds %v, want both resources", got)
	}
	if err := st.release(&v.job); err != nil {
		t.Fatal(err)
	}
	s := st.s.Stats()
	if s.Submitted != 3 || s.Serviced != 3 || s.Canceled != 0 || s.Failed != 0 {
		t.Fatalf("terminal accounting broken: %+v", s)
	}
	if s.Preempts != 1 {
		t.Fatalf("Preempts = %d, want exactly 1", s.Preempts)
	}
	if s.Free != 2 {
		t.Fatalf("pool not drained: %d free", s.Free)
	}
}

// TestPreemptionSeverBudget is the failure half: with SeverRetries 1,
// the second preemption exhausts the victim's budget and fails its
// handle with exactly one ErrCircuitSevered — the same typed error and
// exactly-once terminal accounting as the hardware sever path it rides.
// (system's TestExchangeSameVictimAgain steps the second exchange.)
func TestPreemptionSeverBudget(t *testing.T) {
	st, h, v := preemptRig(t, 1)
	b1 := st.provision(system.Task{Proc: 1, Tier: 0})
	if err := st.release(&b1.job); err != nil {
		t.Fatal(err)
	}
	// The victim re-acquires resource 0 (sever budget now spent) ...
	if s := st.s.Stats(); s.Granted != 4 {
		t.Fatalf("victim did not re-acquire its unit: %+v", s)
	}
	// ... and the next tier-0 arrival preempts it again, over budget, in
	// the arrival's epoch.
	b2 := st.provision(system.Task{Proc: 1, Tier: 0})
	if !fired(&v.job) || !errors.Is(v.Err(), system.ErrCircuitSevered) {
		t.Fatalf("victim error %v, want ErrCircuitSevered", v.Err())
	}
	if err := st.release(&b2.job); err != nil {
		t.Fatal(err)
	}
	if err := st.release(&h.job); err != nil {
		t.Fatal(err)
	}
	s := st.s.Stats()
	if s.Preempts != 2 {
		t.Fatalf("Preempts = %d, want 2", s.Preempts)
	}
	if n := countKind(st.s.cfg.Obs, evPreempt); n != 2 {
		t.Fatalf("trace has %d preempt events, want one per exchange (2)", n)
	}
	if s.Submitted != 4 || s.Serviced != 3 || s.Failed != 1 || s.Canceled != 0 {
		t.Fatalf("terminal accounting broken: %+v", s)
	}
	if s.Free != 2 {
		t.Fatalf("pool not drained: %d free", s.Free)
	}
}

// TestPreemptionStarvationGuard pins the strict-improvement rule: an
// equal-tier or less urgent arrival never preempts — TierWeight would
// not strictly increase — so the holder keeps its unit and the arrivals
// wait for a natural release. The decision itself is stepped cycle by
// cycle in system's TestExchangeStarvationGuard; here it is the service's
// epoch by epoch.
func TestPreemptionStarvationGuard(t *testing.T) {
	st, h, v := preemptRig(t, 3)
	equal, err := st.submit(system.Task{Proc: 1, Tier: 2}) // same tier as the victim
	if err != nil {
		t.Fatal(err)
	}
	lower, err := st.submit(system.Task{Proc: 2, Tier: 5}) // less urgent than the victim
	if err != nil {
		t.Fatal(err)
	}
	// Exchanges are planned inside the arrivals' epoch's cycles: once it
	// has run, every cycle that could have preempted for them has.
	st.step()
	if s := st.s.Stats(); s.Submitted != 4 || s.Preempts != 0 {
		t.Fatalf("Submitted = %d, Preempts = %d, want 4 and 0: equal or lower tier must not preempt", s.Submitted, s.Preempts)
	}
	for _, w := range []*Handle{equal, lower, v} {
		if fired(&w.job) {
			t.Fatalf("task resolved without a release: err=%v", w.Err())
		}
	}
	// Natural unwind: the blocker leaves, the victim completes, and the
	// waiting arrivals are served in turn.
	if err := st.release(&h.job); err != nil {
		t.Fatal(err)
	}
	granted(t, v, "victim")
	if err := st.release(&v.job); err != nil {
		t.Fatal(err)
	}
	granted(t, equal, "equal-tier arrival")
	granted(t, lower, "lower-tier arrival")
	if err := st.release(&equal.job); err != nil {
		t.Fatal(err)
	}
	if err := st.release(&lower.job); err != nil {
		t.Fatal(err)
	}
	s := st.s.Stats()
	if s.Preempts != 0 || s.Submitted != 4 || s.Serviced != 4 || s.Failed != 0 {
		t.Fatalf("terminal accounting broken: %+v", s)
	}
}

// TestPreemptChaosStress is the acceptance stress for the priority tiers:
// 64 clients push tiered traffic (a quarter of them Need=2 under banker's
// avoidance, the preemptible holding pattern) through one MinCost
// Benes(16) shard with preemption enabled while a chaos goroutine
// interleaves hardware fail/heal churn. No task may be lost, no resource
// double-granted, and terminal accounting must balance exactly at
// quiescence. Run under -race in CI.
func TestPreemptChaosStress(t *testing.T) {
	const clients = 64
	tasksPer := 300
	if testing.Short() {
		tasksPer = 60
	}
	net := topology.Benes(16)
	s := newScheduler(t, Config{
		Shards: []system.Config{{
			Net: net, Discipline: system.MinCost, Avoidance: system.AvoidanceBankers,
		}},
		BatchSize: 48,
		Preempt:   true,
	})

	stop := make(chan struct{})
	var chaosWg sync.WaitGroup
	chaosWg.Add(1)
	go func() {
		defer chaosWg.Done()
		rng := rand.New(rand.NewSource(86))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rng.Intn(4) == 0 {
				r := rng.Intn(net.Ress)
				if err := failOne(s, 0, system.FaultTargetResource, r); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
				if err := repairOne(s, 0, system.FaultTargetResource, r); err != nil {
					t.Error(err)
					return
				}
			} else {
				l := rng.Intn(len(net.Links))
				if err := failOne(s, 0, system.FaultTargetLink, l); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
				if err := repairOne(s, 0, system.FaultTargetLink, l); err != nil {
					t.Error(err)
					return
				}
			}
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
	}()

	var holders [16]atomic.Int32
	var doubleGrant atomic.Bool
	var completed, severed, unsat atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			proc := c % net.Procs
			tier := c % (system.MaxTier + 1)
			need := 1
			if c%4 == 0 {
				need = 2
			}
			for i := 0; i < tasksPer; i++ {
				h, err := s.Submit(0, system.Task{Proc: proc, Tier: tier, Priority: int64(i % 100), Need: need})
				if err != nil {
					if errors.Is(err, system.ErrUnsatisfiable) {
						unsat.Add(1)
						continue
					}
					t.Errorf("client %d: submit: %v", c, err)
					return
				}
				<-h.Done()
				if err := h.Err(); err != nil {
					switch {
					case errors.Is(err, system.ErrCircuitSevered):
						severed.Add(1) // hardware sever or preemption budget
					case errors.Is(err, system.ErrUnsatisfiable):
						unsat.Add(1)
					default:
						t.Errorf("client %d: task: %v", c, err)
						return
					}
					continue
				}
				res := h.Resources()
				if len(res) != need {
					t.Errorf("client %d: got %d resources, want %d", c, len(res), need)
					return
				}
				for _, r := range res {
					if holders[r].Add(1) != 1 {
						doubleGrant.Store(true)
					}
				}
				for _, r := range res {
					holders[r].Add(-1)
				}
				if err := s.EndService(h); err != nil {
					t.Errorf("client %d: end service: %v", c, err)
					return
				}
				completed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	chaosWg.Wait()

	if doubleGrant.Load() {
		t.Fatal("a resource was granted to two live tasks")
	}
	st := s.Stats()
	if st.LinkFaults != st.Repairs {
		t.Fatalf("unbalanced chaos: %d faults, %d repairs", st.LinkFaults, st.Repairs)
	}
	if st.Free != net.Ress || st.Usable != net.Ress {
		t.Fatalf("healed fabric not drained: free %d, usable %d of %d", st.Free, st.Usable, net.Ress)
	}
	want := int64(clients * tasksPer)
	if got := completed.Load() + severed.Load() + unsat.Load(); got != want {
		t.Fatalf("lost tasks: %d completed + %d severed + %d unsatisfiable != %d submitted",
			completed.Load(), severed.Load(), unsat.Load(), want)
	}
	// Exactly-once terminal accounting at quiescence: every accepted task
	// is serviced, canceled or failed — no double counts, no leaks.
	if st.Submitted != st.Serviced+st.Canceled+st.Failed {
		t.Fatalf("terminal accounting broken: %d submitted != %d serviced + %d canceled + %d failed",
			st.Submitted, st.Serviced, st.Canceled, st.Failed)
	}
	if completed.Load() == 0 {
		t.Fatal("no task completed under chaos")
	}
	t.Logf("completed=%d severed=%d unsat=%d preempts=%d", completed.Load(), severed.Load(), unsat.Load(), st.Preempts)
}
