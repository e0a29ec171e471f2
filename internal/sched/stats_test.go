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
// while Stats still showed the release as not having happened. The test
// holds the shard goroutine hostage inside the post-release cycle loop
// (via a gated FaultHook) and asserts that the completed EndService is
// already visible; before the publish-before-reply fix this read 0
// deterministically.
func TestStatsCoherentAfterBlockingReply(t *testing.T) {
	// One op in flight at a time, so each is an epoch of its own and
	// nothing flushes ahead of the gated EndService.
	g := newCycleGate()
	s := newScheduler(t, Config{
		BatchSize: 1,
		Shards: []system.Config{{
			Net:       topology.Crossbar(2, 2),
			Avoidance: system.AvoidanceNone,
			FaultHook: g.hook,
		}},
	})
	t.Cleanup(g.unpark)

	a, err := s.Submit(0, system.Task{Proc: 0, Need: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-a.Done()
	if a.Err() != nil {
		t.Fatal(a.Err())
	}
	// b acquires the one remaining resource and blocks needing a second:
	// the shard stays tracked, so every flush runs at least one Cycle and
	// consults the hook.
	b, err := s.Submit(0, system.Task{Proc: 1, Need: 2})
	if err != nil {
		t.Fatal(err)
	}
	// b's admission becomes visible only after its flush's cycle loop has
	// run; arming the gate earlier would park that flush instead of the
	// EndService one.
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 2 })

	g.armed.Store(true)
	if err := s.EndService(a); err != nil {
		t.Fatal(err)
	}
	// The shard goroutine parks in the gated hook, mid-flush. The release
	// we just completed must nevertheless be visible.
	g.waitParked(t)
	if st := s.Stats(); st.Serviced != 1 {
		t.Fatalf("Serviced = %d after EndService returned, want 1 (stats published only at flush end?)", st.Serviced)
	}
	g.release <- struct{}{}
	<-b.Done()
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	if err := s.EndService(b); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Serviced != 2 || st.Submitted != 2 {
		t.Fatalf("final stats %+v", st)
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

// blockedJob returns a one-shard Omega(8) scheduler where five filler
// tasks (procs 0-4) each hold one resource and a job of the given kind
// (procs 5-7) demands four: it acquires the three free units and blocks
// on a fourth — permanently mid-acquisition, the state every terminal
// path but release starts from. held lists the units the job holds. With
// a gang aboard the shard runs banker's grants; activation is safe because
// the fillers' eventual releases cover the gang.
func blockedJob(t *testing.T, cfg Config, k jobKind) (s *Scheduler, fillers []*Handle, held []int, j waiter) {
	t.Helper()
	net := topology.Omega(8)
	cfg.Shards = []system.Config{{Net: net, Avoidance: system.AvoidanceNone}}
	s = newScheduler(t, cfg)
	taken := map[int]bool{}
	for p := 0; p < 5; p++ {
		h := provision(t, s, 0, system.Task{Proc: p})
		taken[h.Resources()[0]] = true
		fillers = append(fillers, h)
	}
	for r := 0; r < net.Ress; r++ {
		if !taken[r] {
			held = append(held, r)
		}
	}
	j, err := k.submit(s, [3]int{5, 6, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitStats(t, s, func(st Stats) bool { return st.Free == 0 }); st.Free != 0 {
		t.Fatalf("blocked %s never acquired the three free units: %+v", k.name, st)
	}
	return s, fillers, held, j
}

// faultBatch is one correlated hardware event over a set of resources.
func faultBatch(res []int, repair bool) []system.FaultOp {
	fops := make([]system.FaultOp, len(res))
	for i, r := range res {
		fops[i] = system.FaultOp{Target: system.FaultTargetResource, Index: r, Repair: repair}
	}
	return fops
}

// waitStats polls until cond holds (the shard goroutine publishes
// asynchronously to handle closes in a few paths) or the deadline hits.
func waitStats(t *testing.T, s *Scheduler, cond func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if cond(st) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTerminalAccountingSeverBudget: a job whose units are severed past
// the retry budget fails terminal exactly once.
func TestTerminalAccountingSeverBudget(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			s, fillers, held, j := blockedJob(t, Config{SeverRetries: 1}, k)
			// Each fail->heal of the three units the job holds is one sever
			// event (the fillers are provisioned and keep theirs; usable
			// capacity never drops below the demand of 4). The second event
			// that finds it holding anything exceeds the budget.
			deadline := time.After(10 * time.Second)
			for done := false; !done; {
				if err := s.ApplyFaults(0, faultBatch(held, false)); err != nil {
					t.Fatal(err)
				}
				if err := s.ApplyFaults(0, faultBatch(held, true)); err != nil {
					t.Fatal(err)
				}
				select {
				case <-j.Done():
					done = true
				case <-deadline:
					t.Fatal("sever-exhausted job never failed")
				case <-time.After(2 * time.Millisecond):
				}
			}
			if !errors.Is(j.Err(), system.ErrCircuitSevered) {
				t.Fatalf("err = %v, want ErrCircuitSevered", j.Err())
			}
			st := waitStats(t, s, func(st Stats) bool { return st.Failed == k.members })
			assertFailedOnce(t, st, k, 1)
			if st.Severed < 2 {
				t.Fatalf("Severed = %d, want >= 2", st.Severed)
			}
			for _, f := range fillers {
				if err := s.EndService(f); err != nil {
					t.Fatal(err)
				}
			}
			assertTerminalIdentity(t, s.Stats())
		})
	}
}

// TestTerminalAccountingCapacityDrop: a job withdrawn because surviving
// capacity no longer covers its demand fails terminal exactly once.
func TestTerminalAccountingCapacityDrop(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			s, fillers, _, j := blockedJob(t, Config{}, k)
			// Failing the fillers' resources cannot sever (they are fully
			// provisioned and keep their units) but drops usable capacity to
			// 3 < 4: the job must be withdrawn.
			var theirs []int
			for _, f := range fillers {
				theirs = append(theirs, f.Resources()[0])
			}
			if err := s.ApplyFaults(0, faultBatch(theirs, false)); err != nil {
				t.Fatal(err)
			}
			select {
			case <-j.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("unsatisfiable job never withdrawn")
			}
			if !errors.Is(j.Err(), system.ErrUnsatisfiable) {
				t.Fatalf("err = %v, want ErrUnsatisfiable", j.Err())
			}
			st := waitStats(t, s, func(st Stats) bool { return st.Failed == k.members })
			assertFailedOnce(t, st, k, 1)
			if st.Severed != 0 {
				t.Fatalf("Severed = %d, want 0 (stats %+v)", st.Severed, st)
			}
			for _, f := range fillers {
				if err := s.EndService(f); err != nil {
					t.Fatal(err)
				}
			}
			assertTerminalIdentity(t, s.Stats())
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
			st := waitStats(t, s, func(st Stats) bool { return st.Restarts == 1 && st.Failed == k.members })
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
			s, fillers, _, j := blockedJob(t, Config{}, k)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case <-j.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("abandoned job never failed")
			}
			if !errors.Is(j.Err(), ErrClosed) {
				t.Fatalf("err = %v, want ErrClosed", j.Err())
			}
			st := s.Stats()
			assertFailedOnce(t, st, k, 1)
			// The fillers hold grants that were never released: they are the
			// only admitted tasks not accounted terminal.
			if got := st.Submitted - (st.Serviced + st.Canceled + st.Failed); got != int64(len(fillers)) {
				t.Fatalf("%d tasks unaccounted, want %d (stats %+v)", got, len(fillers), st)
			}
			if st.GangsSubmitted != st.GangsServiced+st.GangsCanceled+st.GangsFailed {
				t.Fatalf("gang terminal identity broken: %+v", st)
			}
		})
	}
}
