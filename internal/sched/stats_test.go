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

// TestStatsCoherentAfterBlockingReply is the regression test for the
// torn-snapshot bug: flush used to publish an epoch's counters only at
// the very end, after replying to the client — so EndService could return
// while Stats still showed the release as not having happened. The release
// is replied to at the delivery point after the apply phase, before the
// epoch's cycles: the test stops the stepped epoch there and asserts that
// the completed release is already visible.
func TestStatsCoherentAfterBlockingReply(t *testing.T) {
	st := newStepper(t, Config{Shards: []system.Config{{
		Net:       topology.Crossbar(2, 2),
		Avoidance: system.AvoidanceNone,
	}}})
	a := st.provision(system.Task{Proc: 0, Need: 1})
	// b acquires the one remaining resource and blocks needing a second:
	// the shard stays tracked, so the release epoch runs a Cycle.
	b, err := st.submit(system.Task{Proc: 1, Need: 2})
	if err != nil {
		t.Fatal(err)
	}
	st.step()
	if s := st.s.Stats(); s.Submitted != 2 || s.Granted != 2 {
		t.Fatalf("b's epoch left %+v, want 2 submitted, 2 granted", s)
	}
	cycles := st.s.Stats().Cycles
	st.end(&a.job)
	if ops := st.apply(); ops[0].err != nil {
		t.Fatal(ops[0].err)
	}
	// The release has its reply; the epoch's cycles have not run. The
	// release must nevertheless be visible.
	if s := st.s.Stats(); s.Serviced != 1 || s.Cycles != cycles {
		t.Fatalf("Serviced = %d, Cycles = %d when the release replied, want 1 and the %d cycles before it", s.Serviced, s.Cycles, cycles)
	}
	st.cycle()
	if !fired(&b.job) || b.Err() != nil {
		t.Fatalf("b not provisioned by the release's epoch: %v", b.Err())
	}
	if err := st.release(&b.job); err != nil {
		t.Fatal(err)
	}
	if s := st.s.Stats(); s.Serviced != 2 || s.Submitted != 2 {
		t.Fatalf("final stats %+v", s)
	}
}

// TestStatsMonotonicUnderLoad samples Stats continuously while 64 clients
// and a link fail/heal chaos loop hammer the service, asserting that
// every cumulative counter is monotone and the cross-counter invariants
// hold in every sample. Run with -race this also exercises the snapshot
// locking. Link-only chaos keeps Granted <= Submitted exact: link faults
// via the sched API cannot sever in-flight circuits (they exist only
// inside the same flush), so no unit is ever re-granted.
func TestStatsMonotonicUnderLoad(t *testing.T) {
	const (
		clients = 64
		tasks   = 40
		shards  = 2
	)
	cfg := Config{}
	for i := 0; i < shards; i++ {
		cfg.Shards = append(cfg.Shards, system.Config{Net: topology.Omega(16)})
	}
	s := newScheduler(t, cfg)

	stop := make(chan struct{})
	var samplerWg sync.WaitGroup
	samplerWg.Add(1)
	go func() {
		defer samplerWg.Done()
		var prev Stats
		for {
			st := s.Stats()
			for _, c := range []struct {
				name      string
				cur, last int64
			}{
				{"Submitted", st.Submitted, prev.Submitted},
				{"Granted", st.Granted, prev.Granted},
				{"Serviced", st.Serviced, prev.Serviced},
				{"Epochs", st.Epochs, prev.Epochs},
				{"Cycles", st.Cycles, prev.Cycles},
				{"Deferred", st.Deferred, prev.Deferred},
				{"Canceled", st.Canceled, prev.Canceled},
				{"Failed", st.Failed, prev.Failed},
				{"Restarts", st.Restarts, prev.Restarts},
				{"LinkFaults", st.LinkFaults, prev.LinkFaults},
				{"Severed", st.Severed, prev.Severed},
				{"Repairs", st.Repairs, prev.Repairs},
			} {
				if c.cur < c.last {
					t.Errorf("%s went backwards: %d -> %d", c.name, c.last, c.cur)
				}
			}
			if st.Granted > st.Submitted {
				t.Errorf("Granted %d > Submitted %d", st.Granted, st.Submitted)
			}
			if st.Repairs > st.LinkFaults {
				t.Errorf("Repairs %d > LinkFaults %d", st.Repairs, st.LinkFaults)
			}
			if st.Serviced+st.Canceled+st.Failed > st.Submitted {
				t.Errorf("terminal count %d exceeds Submitted %d",
					st.Serviced+st.Canceled+st.Failed, st.Submitted)
			}
			prev = st
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	chaosStop := make(chan struct{})
	var chaosWg sync.WaitGroup
	chaosWg.Add(1)
	go func() {
		defer chaosWg.Done()
		rng := rand.New(rand.NewSource(7))
		nLinks := len(cfg.Shards[0].Net.Links)
		for {
			select {
			case <-chaosStop:
				return
			default:
			}
			shard, link := rng.Intn(shards), rng.Intn(nLinks)
			if err := failOne(s, shard, system.FaultTargetLink, link); err != nil {
				continue
			}
			time.Sleep(200 * time.Microsecond)
			repairOne(s, shard, system.FaultTargetLink, link)
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			task := system.Task{Proc: (c / shards) % 16, Need: 1}
			for i := 0; i < tasks; i++ {
				h, err := s.Submit(c%shards, task)
				if err != nil {
					continue
				}
				<-h.Done()
				if h.Err() != nil {
					continue
				}
				s.EndService(h)
			}
		}(c)
	}
	wg.Wait()
	close(chaosStop)
	chaosWg.Wait()
	close(stop)
	samplerWg.Wait()

	st := s.Stats()
	if st.Submitted == 0 || st.Serviced == 0 {
		t.Fatalf("no work completed: %+v", st)
	}
	// Quiescent identity: every admitted task ended terminal (clients end
	// every grant they receive).
	if st.Serviced+st.Canceled+st.Failed != st.Submitted {
		t.Fatalf("terminal identity broken at quiescence: Serviced %d + Canceled %d + Failed %d != Submitted %d",
			st.Serviced, st.Canceled, st.Failed, st.Submitted)
	}
}

// jobKind runs a terminal-path scenario once per kind of job: with a
// singleton and with a 3-member gang in the seat under test. Gangs count
// member-wise in the task counters and once in the Gangs* counters.
type jobKind struct {
	name    string
	members int64 // tasks one job counts as
	gangs   int64 // gangs one job counts as
}

var jobKinds = []jobKind{{"singleton", 1, 0}, {"gang", 3, 1}}

// waiter is the part of Handle and GangHandle the scenarios share.
type waiter interface {
	Done() <-chan struct{}
	Err() error
}

// submit queues one job of the kind demanding units resources in total,
// on procs[0] (a gang spreads over all three).
func (k jobKind) submit(s *Scheduler, procs [3]int, units int) (waiter, error) {
	if k.gangs == 0 {
		return s.Submit(0, system.Task{Proc: procs[0], Need: units})
	}
	return s.SubmitGang(0, GangSpec{Members: []system.Task{
		{Proc: procs[0], Need: units - 2}, {Proc: procs[1]}, {Proc: procs[2]},
	}})
}

// queue is submit on a stepper.
func (k jobKind) queue(st *stepper, procs [3]int, units int) (*job, error) {
	if k.gangs == 0 {
		h, err := st.submit(system.Task{Proc: procs[0], Need: units})
		if err != nil {
			return nil, err
		}
		return &h.job, nil
	}
	h, err := st.gang(system.Task{Proc: procs[0], Need: units - 2}, system.Task{Proc: procs[1]}, system.Task{Proc: procs[2]})
	if err != nil {
		return nil, err
	}
	return &h.job, nil
}

func endJob(s *Scheduler, w waiter) error {
	if h, ok := w.(*Handle); ok {
		return s.EndService(h)
	}
	return s.EndGang(w.(*GangHandle))
}

// assertFailedOnce checks that n jobs of the kind — and nothing else —
// were counted failed, member-wise and gang-wise.
func assertFailedOnce(t *testing.T, st Stats, k jobKind, n int64) {
	t.Helper()
	if st.Failed != n*k.members || st.GangsFailed != n*k.gangs {
		t.Fatalf("Failed = %d, GangsFailed = %d, want exactly %d, %d (stats %+v)",
			st.Failed, st.GangsFailed, n*k.members, n*k.gangs, st)
	}
}

// assertTerminalIdentity checks the quiescent accounting identities,
// member-wise and gang-wise.
func assertTerminalIdentity(t *testing.T, st Stats) {
	t.Helper()
	if st.Submitted != st.Serviced+st.Canceled+st.Failed {
		t.Fatalf("terminal identity broken: %+v", st)
	}
	if st.GangsSubmitted != st.GangsServiced+st.GangsCanceled+st.GangsFailed {
		t.Fatalf("gang terminal identity broken: %+v", st)
	}
}

// blockedJob returns a stepped one-shard Omega(8) scheduler where five
// filler tasks (procs 0-4) each hold one resource and a job of the given
// kind (procs 5-7) demands four: it acquires the three free units and
// blocks on a fourth — permanently mid-acquisition, the state every
// terminal path but release starts from. held lists the units the job
// holds. With a gang aboard the shard runs banker's grants; activation is
// safe because the fillers' eventual releases cover the gang.
func blockedJob(t *testing.T, cfg Config, k jobKind) (st *stepper, fillers []*Handle, held []int, j *job) {
	t.Helper()
	net := topology.Omega(8)
	cfg.Shards = []system.Config{{Net: net, Avoidance: system.AvoidanceNone}}
	st = newStepper(t, cfg)
	taken := map[int]bool{}
	for p := 0; p < 5; p++ {
		h := st.provision(system.Task{Proc: p})
		taken[h.Resources()[0]] = true
		fillers = append(fillers, h)
	}
	for r := 0; r < net.Ress; r++ {
		if !taken[r] {
			held = append(held, r)
		}
	}
	j, err := k.queue(st, [3]int{5, 6, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	st.step()
	if s := st.s.Stats(); s.Free != 0 || fired(j) {
		t.Fatalf("blocked %s did not take the three free units and wait: %+v", k.name, s)
	}
	return st, fillers, held, j
}

// faultBatch is one correlated hardware event over a set of resources.
func faultBatch(res []int, repair bool) []system.FaultOp {
	fops := make([]system.FaultOp, len(res))
	for i, r := range res {
		fops[i] = system.FaultOp{Target: system.FaultTargetResource, Index: r, Repair: repair}
	}
	return fops
}

// TestTerminalAccountingSeverBudget: a job whose units are severed past
// the retry budget fails terminal exactly once.
func TestTerminalAccountingSeverBudget(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			st, fillers, held, j := blockedJob(t, Config{SeverRetries: 1}, k)
			// Each fail->heal of the three units the job holds is one sever
			// event (the fillers are provisioned and keep theirs; usable
			// capacity never drops below the demand of 4), and the job
			// reacquires the three in the healing epoch. The second event
			// exceeds the budget.
			for event := 1; event <= 2; event++ {
				if fired(j) {
					t.Fatalf("job resolved after %d sever events, budget 1: %v", event-1, j.err)
				}
				if err := st.fault(faultBatch(held, false)...); err != nil {
					t.Fatal(err)
				}
				if err := st.fault(faultBatch(held, true)...); err != nil {
					t.Fatal(err)
				}
			}
			if !fired(j) || !errors.Is(j.err, system.ErrCircuitSevered) {
				t.Fatalf("err = %v, want ErrCircuitSevered on the second event", j.err)
			}
			s := st.s.Stats()
			assertFailedOnce(t, s, k, 1)
			// A task counts once per event, a reset gang once per member.
			if s.Severed != 2*k.members {
				t.Fatalf("Severed = %d, want %d (two events)", s.Severed, 2*k.members)
			}
			for _, f := range fillers {
				if err := st.release(&f.job); err != nil {
					t.Fatal(err)
				}
			}
			assertTerminalIdentity(t, st.s.Stats())
		})
	}
}

// TestTerminalAccountingCapacityDrop: a job withdrawn because surviving
// capacity no longer covers its demand fails terminal exactly once.
func TestTerminalAccountingCapacityDrop(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			st, fillers, _, j := blockedJob(t, Config{}, k)
			// Failing the fillers' resources cannot sever (they are fully
			// provisioned and keep their units) but drops usable capacity to
			// 3 < 4: the job must be withdrawn, within the fault's epoch.
			var theirs []int
			for _, f := range fillers {
				theirs = append(theirs, f.Resources()[0])
			}
			if err := st.fault(faultBatch(theirs, false)...); err != nil {
				t.Fatal(err)
			}
			if !fired(j) || !errors.Is(j.err, system.ErrUnsatisfiable) {
				t.Fatalf("err = %v, want ErrUnsatisfiable at the fault's epoch", j.err)
			}
			s := st.s.Stats()
			assertFailedOnce(t, s, k, 1)
			if s.Severed != 0 {
				t.Fatalf("Severed = %d, want 0 (stats %+v)", s.Severed, s)
			}
			for _, f := range fillers {
				if err := st.release(&f.job); err != nil {
					t.Fatal(err)
				}
			}
			assertTerminalIdentity(t, st.s.Stats())
		})
	}
}

// TestTerminalAccountingRestart: a supervisor restart fails every tracked
// job once, and a pre-restart grant surfacing later through its release is
// counted terminal exactly once no matter how many times the release is
// retried.
func TestTerminalAccountingRestart(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			var trip atomic.Bool
			cfg := Config{Shards: []system.Config{{
				Net: topology.Omega(8),
				FaultHook: func(point string) error {
					if point == system.FaultCycle && trip.Load() {
						trip.Store(false)
						return errors.New("injected solver fault")
					}
					return nil
				},
			}}}
			s := newScheduler(t, cfg)
			a, err := k.submit(s, [3]int{0, 1, 2}, 3)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, a, "pre-restart job")
			if a.Err() != nil {
				t.Fatal(a.Err())
			}
			trip.Store(true)
			d, err := k.submit(s, [3]int{3, 4, 5}, 3)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, d, "job in flight at the restart")
			if !errors.Is(d.Err(), ErrShardDown) {
				t.Fatalf("err = %v, want ErrShardDown", d.Err())
			}
			// The restart is counted before its victims' Done fires.
			st := s.Stats()
			if st.Restarts != 1 {
				t.Fatalf("Restarts = %d, want 1", st.Restarts)
			}
			assertFailedOnce(t, st, k, 1)
			// a's grants died with the old generation; the first release
			// counts it terminal, the retry must not count it again.
			if err := endJob(s, a); !errors.Is(err, ErrShardDown) {
				t.Fatalf("stale release err = %v, want ErrShardDown", err)
			}
			if err := endJob(s, a); !errors.Is(err, ErrShardDown) {
				t.Fatalf("retried stale release err = %v, want ErrShardDown", err)
			}
			st = s.Stats()
			assertFailedOnce(t, st, k, 2)
			assertTerminalIdentity(t, st)
		})
	}
}

// TestTerminalAccountingShutdown: jobs still unprovisioned when the
// scheduler closes fail terminal with ErrClosed, counted once.
func TestTerminalAccountingShutdown(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			st, fillers, _, j := blockedJob(t, Config{}, k)
			st.shutdown()
			if !fired(j) || j.err != ErrClosed {
				t.Fatalf("err = %v, want ErrClosed", j.err)
			}
			s := st.s.Stats()
			assertFailedOnce(t, s, k, 1)
			// The fillers hold grants that were never released: they are the
			// only admitted tasks not accounted terminal.
			if got := s.Submitted - (s.Serviced + s.Canceled + s.Failed); got != int64(len(fillers)) {
				t.Fatalf("%d tasks unaccounted, want %d (stats %+v)", got, len(fillers), s)
			}
			if s.GangsSubmitted != s.GangsServiced+s.GangsCanceled+s.GangsFailed {
				t.Fatalf("gang terminal identity broken: %+v", s)
			}
		})
	}
}

// TestBlockedCycles pins Stats.BlockedCycles, the cycles whose mapping left
// a request ungranted, on stepped MinCost decks on an Omega-8. Six
// provisioned blockers leave two free units, and five tasks then request
// at once: a cycle grants two of them and blocks the rest, and the cycles
// that follow, until releases free enough units, count too. A deck that
// asks, each epoch, for no more than the free units counts none, though it
// runs a cycle every epoch.
func TestBlockedCycles(t *testing.T) {
	shard := func() Config {
		return Config{Shards: []system.Config{{Net: topology.Omega(8), Discipline: system.MinCost}}}
	}
	t.Run("more requesters than units", func(t *testing.T) {
		st := newStepper(t, shard())
		var blockers []*Handle
		for p := 0; p < 6; p++ {
			blockers = append(blockers, st.provision(system.Task{Proc: p}))
		}
		if n := st.s.Stats().BlockedCycles; n != 0 {
			t.Fatalf("provisioning into a free fabric counted %d blocked cycles", n)
		}
		var waiting []*Handle
		for p := 0; p < 5; p++ {
			h, err := st.submit(system.Task{Proc: p})
			if err != nil {
				t.Fatal(err)
			}
			waiting = append(waiting, h)
		}
		st.step()
		s := st.s.Stats()
		if s.BlockedCycles == 0 || s.BlockedCycles > s.Cycles {
			t.Fatalf("five requesters on two free units: %d blocked cycles of %d, want at least one and at most all", s.BlockedCycles, s.Cycles)
		}
		for _, b := range blockers {
			if err := st.release(&b.job); err != nil {
				t.Fatal(err)
			}
		}
		for _, h := range waiting {
			if !fired(&h.job) || h.Err() != nil {
				t.Fatalf("a waiting task was not provisioned once the blockers left: %v", h.Err())
			}
		}
	})
	t.Run("always fits", func(t *testing.T) {
		st := newStepper(t, shard())
		for round := 0; round < 20; round++ {
			var hs []*Handle
			for p := 0; p < 1+round%4; p++ {
				h, err := st.submit(system.Task{Proc: (round + 2*p) % 8})
				if err != nil {
					t.Fatal(err)
				}
				hs = append(hs, h)
			}
			st.step()
			for _, h := range hs {
				if !fired(&h.job) || h.Err() != nil {
					t.Fatalf("round %d: a task on a free fabric was not provisioned in its epoch: %v", round, h.Err())
				}
				if err := st.release(&h.job); err != nil {
					t.Fatal(err)
				}
			}
		}
		if s := st.s.Stats(); s.Cycles == 0 || s.BlockedCycles != 0 {
			t.Fatalf("a deck that always fits: %d blocked cycles of %d, want 0 of at least one", s.BlockedCycles, s.Cycles)
		}
	})
}
