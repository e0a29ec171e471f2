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

// cycleGate is a system.Config.FaultHook that parks the caller running the
// shard's epoch at the top of its next Cycle once armed — inside the
// epoch, holding the shard's epoch lock, with whatever clients post
// meanwhile piling up in the shard's pending list.
type cycleGate struct {
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func newCycleGate() *cycleGate {
	return &cycleGate{parked: make(chan struct{}, 1), release: make(chan struct{})}
}

// unpark is the test's cleanup, registered after newScheduler so that it
// runs before the scheduler's Close waits on a parked epoch.
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
// rule: whatever queued up behind a running epoch — up to the epoch cap of
// 2×BatchSize — is served by the one epoch that follows it.
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
	// The first submit runs its own epoch, which parks in the hook: it
	// returns only after the release, so it runs on a helper goroutine.
	first := make(chan *Handle)
	go func() {
		h, err := s.Submit(0, system.Task{Proc: k})
		if err != nil {
			t.Error(err)
		}
		first <- h
	}()
	g.waitParked(t)
	var all []*Handle
	for p := 0; p < k; p++ {
		all = append(all, submit(t, s, system.Task{Proc: p}))
	}
	g.release <- struct{}{}
	h := <-first
	if h == nil {
		t.FailNow()
	}
	all = append(all, h)
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

// typedInstance returns the workload.AdversarialTyped instance of that name.
func typedInstance(t *testing.T, name string) workload.TypedInstance {
	t.Helper()
	for _, in := range workload.AdversarialTyped() {
		if in.Name == name {
			return in
		}
	}
	t.Fatalf("no typed instance %q", name)
	return workload.TypedInstance{}
}

// driveTypedInstance serves one workload.AdversarialTyped instance through
// a stepped typed shard on its fabric, its requests in a single cycle, and
// returns Stats and the /metrics counters once that cycle is counted. The
// instance's free resources keep their types; the rest are fillers (type
// 3) that one task on a processor the instance leaves idle holds, so the
// instance's requests, submitted in one epoch, meet exactly its offer.
func driveTypedInstance(t *testing.T, inst workload.TypedInstance) (Stats, map[string]int64) {
	t.Helper()
	types := make([]int, inst.Net.Ress)
	offered := map[int]bool{}
	for _, a := range inst.Avail {
		types[a.Res] = a.Type
		offered[a.Res] = true
	}
	fillers := 0
	for r := range types {
		if !offered[r] {
			types[r] = 3
			fillers++
		}
	}
	asking := map[int]bool{}
	for _, r := range inst.Reqs {
		asking[r.Proc] = true
	}
	idle := 0
	for asking[idle] {
		idle++
	}
	if idle >= inst.Net.Procs {
		t.Fatalf("instance %q leaves no processor idle for the fillers", inst.Name)
	}
	reg := obs.NewRegistry()
	st := newStepper(t, Config{Obs: reg, Shards: []system.Config{typedShard(inst.Net, types)}})
	if fillers > 0 {
		st.provision(system.Task{Proc: idle, Needs: map[int]int{3: fillers}})
	}
	before := st.s.Stats()
	for _, r := range inst.Reqs {
		if _, err := st.submit(system.Task{Proc: r.Proc, Needs: map[int]int{r.Type: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	st.step()
	s := st.s.Stats()
	if s.Epochs != before.Epochs+1 || s.Submitted != before.Submitted+int64(len(inst.Reqs)) {
		t.Fatalf("the instance's %d requests were not one epoch's: %+v", len(inst.Reqs), s)
	}
	return s, reg.Snapshot().Counters
}

// TestMultiSearchCounted drives one typed epoch that misses the
// combinatorial bound through the service — workload.AdversarialTyped's
// chained cuts on Omega-8 — and checks it is counted as settled by the
// routing-table search and not as an LP solve, in Stats and on /metrics
// alike.
func TestMultiSearchCounted(t *testing.T) {
	inst := typedInstance(t, "omega8-chained-cuts")
	if inst.Path != workload.BySearch {
		t.Fatalf("instance %q is settled by %v; this test is written for the search", inst.Name, inst.Path)
	}
	st, scraped := driveTypedInstance(t, inst)
	if st.MultiSearch != 1 || scraped["rsin_solver_multi_search_total"] != 1 ||
		st.MultiLP != 0 || scraped["rsin_solver_multi_lp_total"] != 0 {
		t.Fatalf("MultiSearch = %d (scraped %d), MultiLP = %d (scraped %d), want 1 and 0 (the one bound-missing cycle, searched): %+v",
			st.MultiSearch, scraped["rsin_solver_multi_search_total"], st.MultiLP, scraped["rsin_solver_multi_lp_total"], st)
	}
}

// TestMultiLPCounted drives one typed epoch that misses the combinatorial
// bound on a fabric with no routing table through the service and checks
// it is counted as an LP solve, in Stats and on /metrics alike. The
// instance is workload.AdversarialTyped's Omega-8 with six extra stages.
func TestMultiLPCounted(t *testing.T) {
	inst := typedInstance(t, "omega+6-8-no-table")
	if inst.Path != workload.ByLP {
		t.Fatalf("instance %q is settled by %v; this test is written for the LP", inst.Name, inst.Path)
	}
	st, scraped := driveTypedInstance(t, inst)
	if st.MultiLP != 1 || scraped["rsin_solver_multi_lp_total"] != 1 ||
		st.MultiSearch != 0 || scraped["rsin_solver_multi_search_total"] != 0 {
		t.Fatalf("MultiLP = %d (scraped %d), MultiSearch = %d (scraped %d), want 1 and 0 (the one bound-missing cycle): %+v",
			st.MultiLP, scraped["rsin_solver_multi_lp_total"], st.MultiSearch, scraped["rsin_solver_multi_search_total"], st)
	}
}
