package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"rsin/internal/obs"
	"rsin/internal/system"
	"rsin/internal/topology"
	"rsin/internal/workload"
)

// cycleGate is a system.Config.FaultHook that parks the shard goroutine at
// the top of its next Cycle once armed — inside an epoch, with whatever
// clients send meanwhile piling up in the shard's op queue.
type cycleGate struct {
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func newCycleGate() *cycleGate {
	return &cycleGate{parked: make(chan struct{}, 1), release: make(chan struct{})}
}

// unpark is the test's cleanup, registered after newScheduler so that it
// runs before the scheduler's Close waits on a parked shard.
func (g *cycleGate) unpark() { close(g.release) }

func (g *cycleGate) hook(point string) error {
	if point == system.FaultCycle && g.armed.CompareAndSwap(true, false) {
		g.parked <- struct{}{}
		<-g.release
	}
	return nil
}

// waitParked blocks until the shard sits in the hook.
func (g *cycleGate) waitParked(t *testing.T) {
	t.Helper()
	select {
	case <-g.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("shard never reached the gated cycle")
	}
}

// TestEpochTakesEverythingQueued pins the coalescing half of the flush
// rule: whatever queued up behind a running epoch — up to the op queue's
// capacity of 2×BatchSize — is served by the one epoch that follows it.
func TestEpochTakesEverythingQueued(t *testing.T) {
	const batch = 32 // the default
	const k = 2 * batch
	g := newCycleGate()
	s := newScheduler(t, Config{
		BatchSize: batch,
		Shards:    []system.Config{{Net: topology.Crossbar(k+1, k+1), FaultHook: g.hook}},
	})
	t.Cleanup(g.unpark)
	before := s.Stats().Epochs

	g.armed.Store(true)
	all := []*Handle{submit(t, s, system.Task{Proc: k})} // its epoch parks in the hook
	g.waitParked(t)
	for p := 0; p < k; p++ {
		all = append(all, submit(t, s, system.Task{Proc: p}))
	}
	g.release <- struct{}{}
	for _, h := range all {
		waitOK(t, h, "queued submit")
	}
	if got := s.Stats().Epochs - before; got != 2 {
		t.Fatalf("%d submits queued behind one epoch took %d epochs, want 1 (plus the parked one)", k, got-1)
	}
}

// submit queues a task on shard 0 without waiting for its grant.
func submit(t *testing.T, s *Scheduler, task system.Task) *Handle {
	t.Helper()
	h, err := s.Submit(0, task)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestLoneClientIsNotPaced pins the work-conserving half: with nothing
// else queued an op is served at once, so one client's sequential
// Submit -> Done -> EndService round trips are paced by the solver, not by
// a clock. Under the 500 µs ticker this loop took two ticks per task
// (2 s for 2000) by construction.
func TestLoneClientIsNotPaced(t *testing.T) {
	const tasks = 2000
	s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(8)}}})
	start := time.Now()
	for i := 0; i < tasks; i++ {
		h := provision(t, s, 0, system.Task{Proc: i % 8})
		if err := s.EndService(h); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d >= time.Second {
		t.Errorf("%d sequential round trips on an idle scheduler took %v, want < 1s", tasks, d)
	}
	if st := s.Stats(); st.Serviced != tasks || st.Epochs > 2*tasks {
		t.Errorf("serviced %d of %d in %d epochs, want at most two epochs per task", st.Serviced, tasks, st.Epochs)
	}
}

// TestGrantingEpochRunsOneCycle pins the stop rule: an epoch that serves
// every request it was handed ends on the System's own word that nothing is
// left to grant (System.Quiescent), not on a second Cycle whose only result
// is Granted == 0 — and a task that needs several units, one per cycle,
// still gets them all inside the one epoch, because the rule stops the loop
// only when nobody wants a unit or none is free.
func TestGrantingEpochRunsOneCycle(t *testing.T) {
	const tasks = 2000
	s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(8)}}})
	for i := 0; i < tasks; i++ {
		h := provision(t, s, 0, system.Task{Proc: i % 8})
		if err := s.EndService(h); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Serviced != tasks || st.Granted != tasks {
		t.Fatalf("serviced %d, granted %d, want %d each", st.Serviced, st.Granted, tasks)
	}
	if limit := int64(tasks * 105 / 100); st.Cycles < tasks || st.Cycles > limit {
		t.Errorf("%d sequential round trips ran %d cycles, want one per task (at most %d): the confirming cycle is back", tasks, st.Cycles, limit)
	}

	before := s.Stats()
	h := provision(t, s, 0, system.Task{Proc: 3, Need: 3})
	after := s.Stats()
	if got := len(h.Resources()); got != 3 {
		t.Fatalf("Need 3 provisioned with %d resources", got)
	}
	if after.Epochs-before.Epochs != 1 || after.Cycles-before.Cycles != 3 {
		t.Errorf("Need 3 took %d epochs and %d cycles, want all three units inside one epoch, one cycle each",
			after.Epochs-before.Epochs, after.Cycles-before.Cycles)
	}
	if err := s.EndService(h); err != nil {
		t.Fatal(err)
	}
}

// TestMultiLPCounted drives one typed epoch that misses the combinatorial
// bound through the service and checks the miss is counted, in Stats and
// on /metrics alike. The instance is workload.AdversarialTyped's chained
// cuts on Omega-8; a gated epoch makes its four requests one cycle.
func TestMultiLPCounted(t *testing.T) {
	inst := workload.AdversarialTyped()[0]
	if !inst.BoundMiss || inst.Net.Ress != 8 {
		t.Fatalf("instance %q is not the Omega-8 bound miss this test is written for", inst.Name)
	}
	// The instance's free resources keep their types; of the rest, three
	// are type 3 (a filler holds them) and one is type 4 (the gate).
	types := []int{3, 3, 0, 0, 0, 3, 4, 0}
	for _, a := range inst.Avail {
		types[a.Res] = a.Type
	}
	g := newCycleGate()
	reg := obs.NewRegistry()
	sc := typedShard(topology.Omega(8), types)
	sc.FaultHook = g.hook
	s := newScheduler(t, Config{Obs: reg, Shards: []system.Config{sc}})
	t.Cleanup(g.unpark)

	provision(t, s, 0, system.Task{Proc: 3, Needs: map[int]int{3: 3}})
	holder := provision(t, s, 0, system.Task{Proc: 1, Needs: map[int]int{4: 1}})
	waiter := submit(t, s, system.Task{Proc: 2, Needs: map[int]int{4: 1}})
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 3 })
	// Releasing the type-4 unit starts an epoch whose cycle (the waiter is
	// tracked) parks; the instance's requests queue up behind it.
	g.armed.Store(true)
	if err := s.EndService(holder); err != nil {
		t.Fatal(err)
	}
	g.waitParked(t)
	for _, r := range inst.Reqs {
		submit(t, s, system.Task{Proc: r.Proc, Needs: map[int]int{r.Type: 1}})
	}
	g.release <- struct{}{}
	waitDone(t, waiter, "gate waiter")

	st := waitStats(t, s, func(st Stats) bool { return st.MultiLP > 0 })
	scraped := reg.Snapshot().Counters["rsin_solver_multi_lp_total"]
	if st.MultiLP != 1 || scraped != 1 {
		t.Fatalf("MultiLP = %d, rsin_solver_multi_lp_total = %d, want 1 and 1 (the one bound-missing cycle): %+v",
			st.MultiLP, scraped, st)
	}
}
