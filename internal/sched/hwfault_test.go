package sched

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsin/internal/system"
	"rsin/internal/topology"
)

// TestFaultAPIValidationAndCounters: the Fail/Repair surface rejects bad
// arguments and the stats gauges track applied operations.
func TestFaultAPIValidationAndCounters(t *testing.T) {
	net := topology.Omega(8)
	s := newScheduler(t, Config{Shards: []system.Config{{Net: net}}})
	if err := s.FailLink(1, 0); err == nil {
		t.Fatal("bad shard accepted")
	}
	if err := s.FailLink(0, len(net.Links)); err == nil {
		t.Fatal("bad link index accepted")
	}
	if err := s.FailResource(0, -1); err == nil {
		t.Fatal("bad resource index accepted")
	}
	if err := s.FailLink(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.RepairLink(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.FailBox(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.RepairBox(0, 0); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.LinkFaults != 2 || st.Repairs != 2 {
		t.Fatalf("fault counters: %+v, want 2 faults / 2 repairs", st)
	}
	if st.Usable != net.Ress {
		t.Fatalf("healed fabric Usable = %d, want %d", st.Usable, net.Ress)
	}
}

// TestDegradedCapacityGauge: failing resources moves the Usable gauge
// and degrades admission; repair restores both.
func TestDegradedCapacityGauge(t *testing.T) {
	s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(4)}}})
	for r := 1; r < 4; r++ {
		if err := s.FailResource(0, r); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Usable != 1 {
		t.Fatalf("Usable = %d after failing 3 of 4", st.Usable)
	}
	if _, err := s.Submit(0, system.Task{Proc: 0, Need: 2}); !errors.Is(err, system.ErrUnsatisfiable) {
		t.Fatalf("Need=2 on 1-resource fabric: %v, want ErrUnsatisfiable", err)
	}
	for r := 1; r < 4; r++ {
		if err := s.RepairResource(0, r); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Usable != 4 {
		t.Fatalf("Usable = %d after repair", st.Usable)
	}
	h, err := s.Submit(0, system.Task{Proc: 0, Need: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	if err := s.EndService(h); err != nil {
		t.Fatal(err)
	}
}

// TestQueuedTaskFailsWhenCapacityDrops: a task admitted on the healthy
// fabric but still acquiring is retroactively failed with
// ErrUnsatisfiable when a fault shrinks capacity below its demand.
func TestQueuedTaskFailsWhenCapacityDrops(t *testing.T) {
	s := newScheduler(t, Config{
		Shards: []system.Config{{Net: topology.Omega(4)}},
	})
	// A blocker holds one unit so the Need=4 task can never finish
	// acquiring and stays queued.
	blocker, err := s.Submit(0, system.Task{Proc: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Done()
	if blocker.Err() != nil {
		t.Fatal(blocker.Err())
	}
	h, err := s.Submit(0, system.Task{Proc: 0, Need: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Need=4 of 4 is admissible while healthy; failing any resource makes
	// it unsatisfiable and must fail the waiting handle.
	if err := s.FailResource(0, blocker.Resources()[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("queued task not failed by capacity drop")
	}
	if !errors.Is(h.Err(), system.ErrUnsatisfiable) {
		t.Fatalf("handle error %v, want ErrUnsatisfiable", h.Err())
	}
	// The blocker was fully provisioned, so its unit survives the fault
	// (latent until returned) and EndService still succeeds.
	if err := s.EndService(blocker); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Usable != 3 {
		t.Fatalf("Usable = %d with one resource down, want 3", st.Usable)
	}
}

// TestSeverRetryBudget: a task whose units keep getting severed is
// canceled with ErrCircuitSevered once it exceeds Config.SeverRetries.
func TestSeverRetryBudget(t *testing.T) {
	net := topology.Omega(4)
	s := newScheduler(t, Config{
		Shards:       []system.Config{{Net: net}},
		SeverRetries: 1,
	})
	// Three blockers pin three resources; the Need=2 victim acquires the
	// fourth and waits, so we always know which unit it holds.
	var blockers []*Handle
	taken := map[int]bool{}
	for p := 1; p < 4; p++ {
		b, err := s.Submit(0, system.Task{Proc: p})
		if err != nil {
			t.Fatal(err)
		}
		<-b.Done()
		if b.Err() != nil {
			t.Fatal(b.Err())
		}
		taken[b.Resources()[0]] = true
		blockers = append(blockers, b)
	}
	free := -1
	for r := 0; r < 4; r++ {
		if !taken[r] {
			free = r
		}
	}
	victim, err := s.Submit(0, system.Task{Proc: 0, Need: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Fail→heal the victim's unit until the sever budget (1) is exceeded.
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		if err := s.FailResource(0, free); err != nil {
			t.Fatal(err)
		}
		if err := s.RepairResource(0, free); err != nil {
			t.Fatal(err)
		}
		select {
		case <-victim.Done():
			done = true
		case <-deadline:
			t.Fatal("victim never exceeded its sever budget")
		case <-time.After(2 * time.Millisecond): // let it reacquire, sever again
		}
	}
	if !errors.Is(victim.Err(), system.ErrCircuitSevered) {
		t.Fatalf("victim error %v, want ErrCircuitSevered", victim.Err())
	}
	if st := s.Stats(); st.Severed < 2 {
		t.Fatalf("Severed = %d, want >= 2", st.Severed)
	}
	for _, b := range blockers {
		if err := s.EndService(b); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Free != net.Ress || st.Usable != net.Ress {
		t.Fatalf("fabric not restored: %+v", st)
	}
}

// TestCorrelatedFaultChargesOnce is the regression for the sever-budget
// over-charge: a correlated hardware event (one ApplyFaults batch) that
// costs a multi-unit task several units used to charge the budget once
// per lost unit, so a single switchbox or power-domain failure burned a
// task's whole retry allowance in one blow. The charge is per sever
// *event* per job: with SeverRetries=1, a task — or a gang — losing two
// held units to one two-op batch must survive, re-acquire on the healed
// fabric and complete. (Losing units to two separate events still charges twice —
// TestSeverRetryBudget pins that half.)
func TestCorrelatedFaultChargesOnce(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			// Five blockers pin five resources; the job (demand 4) acquires
			// the other three and stalls, so we know exactly which units it
			// holds. Failing only two of those keeps usable capacity (6)
			// above its demand — the capacity watchdog must not be the thing
			// that kills it.
			s, blockers, held, j := blockedJob(t, Config{SeverRetries: 1}, k)
			// One correlated event takes two held units at once...
			if err := s.ApplyFaults(0, faultBatch(held[:2], false)); err != nil {
				t.Fatal(err)
			}
			// ...and one batch heals them.
			if err := s.ApplyFaults(0, faultBatch(held[:2], true)); err != nil {
				t.Fatal(err)
			}
			// Releasing a blocker frees the fourth unit the job needs. A job
			// over-charged per unit (2 > SeverRetries) would already be dead
			// with ErrCircuitSevered here.
			if err := s.EndService(blockers[0]); err != nil {
				t.Fatal(err)
			}
			select {
			case <-j.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("job never completed after the correlated sever")
			}
			if err := j.Err(); err != nil {
				t.Fatalf("job charged more than once for one fault event: %v", err)
			}
			// A singleton counts each unit it lost; a gang counts each member
			// the reset re-queued, however many units the fault took.
			st := s.Stats()
			want := int64(2)
			if k.gangs != 0 {
				want = k.members
			}
			if st.Severed != want {
				t.Fatalf("Severed = %d, want %d (both units lost, once)", st.Severed, want)
			}
			if st.GangSevers != k.gangs {
				t.Fatalf("GangSevers = %d, want %d (one charge per event per gang)", st.GangSevers, k.gangs)
			}
			if err := endJob(s, j); err != nil {
				t.Fatal(err)
			}
			for _, b := range blockers[1:] {
				if err := s.EndService(b); err != nil {
					t.Fatal(err)
				}
			}
			st = s.Stats()
			if st.Free != 8 {
				t.Fatalf("drained pool has %d free of 8", st.Free)
			}
			assertTerminalIdentity(t, st)
		})
	}
}

// TestFailHealStress is the robustness acceptance test: 64 clients
// hammer one Benes(16) shard while a chaos goroutine interleaves
// FailLink/RepairLink and FailResource/RepairResource with the traffic.
// No task may be lost (every submission ends serviced or with a typed
// fault error), no resource may be double-granted, and once the chaos
// heals everything the pool must drain back to full capacity with
// faults == repairs. Run it under -race: the fault path crosses the
// client, shard and supervisor goroutines.
func TestFailHealStress(t *testing.T) {
	const clients = 64
	tasksPer := 300
	if testing.Short() {
		tasksPer = 60
	}
	net := topology.Benes(16)
	// Banker's avoidance: a quarter of the clients run Need=2 tasks, whose
	// multi-cycle acquisitions hold units across flushes — the window where
	// chaos actually severs in-flight work instead of leaving latent faults.
	s := newScheduler(t, Config{
		Shards:    []system.Config{{Net: net, Avoidance: system.AvoidanceBankers}},
		BatchSize: 48,
	})

	stop := make(chan struct{})
	var chaosWg sync.WaitGroup
	chaosWg.Add(1)
	go func() {
		defer chaosWg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rng.Intn(4) == 0 { // resource fail→heal
				r := rng.Intn(net.Ress)
				if err := s.FailResource(0, r); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
				if err := s.RepairResource(0, r); err != nil {
					t.Error(err)
					return
				}
			} else { // link fail→heal
				l := rng.Intn(len(net.Links))
				if err := s.FailLink(0, l); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
				if err := s.RepairLink(0, l); err != nil {
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
			need := 1
			if c%4 == 0 {
				need = 2
			}
			for i := 0; i < tasksPer; i++ {
				h, err := s.Submit(0, system.Task{Proc: proc, Need: need})
				if err != nil {
					// Need=1 is only unsatisfiable in a brief window where
					// chaos has a resource down and reachability pinched.
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
						severed.Add(1)
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
	chaosWg.Wait() // chaos heals its last fault before the final audit

	if doubleGrant.Load() {
		t.Fatal("a resource was granted to two live tasks")
	}
	st := s.Stats()
	if st.LinkFaults != st.Repairs {
		t.Fatalf("unbalanced chaos: %d faults, %d repairs", st.LinkFaults, st.Repairs)
	}
	if st.Usable != net.Ress {
		t.Fatalf("healed fabric reports %d usable of %d", st.Usable, net.Ress)
	}
	if st.Free != net.Ress {
		t.Fatalf("drained pool has %d free of %d", st.Free, net.Ress)
	}
	want := int64(clients * tasksPer)
	if got := completed.Load() + severed.Load() + unsat.Load(); got != want {
		t.Fatalf("lost tasks: %d completed + %d severed + %d unsatisfiable != %d submitted",
			completed.Load(), severed.Load(), unsat.Load(), want)
	}
	if completed.Load() == 0 {
		t.Fatal("no task completed under chaos")
	}
	t.Logf("completed=%d severed=%d unsat=%d faults=%d severed-units=%d",
		completed.Load(), severed.Load(), unsat.Load(), st.LinkFaults, st.Severed)
}

// TestApplyFaultsAllOrNothing: an ApplyFaults batch is one event. A batch
// with an op out of range is refused whole — the fabric, its fault epoch
// and Stats stay as they were — and only an op that changed the fabric
// counts, so a retried batch and its one repair leave Repairs equal to
// LinkFaults, and repairing a healthy link counts nothing.
func TestApplyFaultsAllOrNothing(t *testing.T) {
	fail := func(i int) system.FaultOp { return system.FaultOp{Target: system.FaultTargetLink, Index: i} }
	repair := func(i int) system.FaultOp {
		return system.FaultOp{Repair: true, Target: system.FaultTargetLink, Index: i}
	}
	type batch struct {
		ops []system.FaultOp
		bad bool // must be refused
	}
	cases := []struct {
		name            string
		batches         []batch
		faults, repairs int64
		epochMoves      uint64
	}{
		{"a bad op refuses the batch", []batch{{[]system.FaultOp{fail(0), fail(99999)}, true}}, 0, 0, 0},
		{"the retried op and its repair balance", []batch{
			{[]system.FaultOp{fail(0), fail(99999)}, true},
			{[]system.FaultOp{fail(0)}, false},
			{[]system.FaultOp{repair(0)}, false},
		}, 1, 1, 2},
		{"repairing a healthy link is no event", []batch{{[]system.FaultOp{repair(0)}, false}}, 0, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := topology.Omega(8)
			s := newScheduler(t, Config{Shards: []system.Config{{Net: net}}})
			epoch := s.shards[0].sys.FaultEpoch()
			for i, b := range c.batches {
				err := s.ApplyFaults(0, b.ops)
				if (err != nil) != b.bad {
					t.Fatalf("batch %d %+v: err %v, want refused=%v", i, b.ops, err, b.bad)
				}
			}
			st := s.Stats()
			moved := s.shards[0].sys.FaultEpoch() - epoch
			if st.LinkFaults != c.faults || st.Repairs != c.repairs || moved != c.epochMoves {
				t.Fatalf("LinkFaults %d, Repairs %d, fault epoch moved %d; want %d, %d, %d",
					st.LinkFaults, st.Repairs, moved, c.faults, c.repairs, c.epochMoves)
			}
			if st.Usable != net.Ress {
				t.Fatalf("Usable = %d on a fabric every case leaves healthy, want %d", st.Usable, net.Ress)
			}
		})
	}
}
