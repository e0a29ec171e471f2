package sched

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsin/internal/system"
	"rsin/internal/topology"
)

func newScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty shard list accepted")
	}
	if _, err := New(Config{Shards: []system.Config{{}}}); err == nil {
		t.Fatal("shard with nil net accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(8)}}})
	if _, err := s.Submit(1, system.Task{Proc: 0}); err == nil {
		t.Fatal("bad shard accepted")
	}
	if _, err := s.Submit(0, system.Task{Proc: 8}); err == nil {
		t.Fatal("bad processor accepted")
	}
	if _, err := s.Submit(0, system.Task{Proc: 0, Need: 99}); err == nil {
		t.Fatal("impossible need accepted")
	}
	// Malformed priority classes and preference vectors are rejected with
	// the typed system.ErrBadTask before shard dispatch: no handle, no
	// batch slot, nothing for an epoch to clean up.
	for _, c := range []struct {
		name string
		task system.Task
	}{
		{"tier below range", system.Task{Proc: 0, Tier: -1}},
		{"tier above range", system.Task{Proc: 0, Tier: system.MaxTier + 1}},
		{"negative priority", system.Task{Proc: 0, Priority: -1}},
		{"oversized priority", system.Task{Proc: 0, Priority: 1 << 30}},
		{"prefs wrong length", system.Task{Proc: 0, Prefs: []int64{1, 2}}},
		{"prefs weight out of range", system.Task{Proc: 0, Prefs: func() []int64 {
			p := make([]int64, 8)
			p[3] = -4
			return p
		}()}},
	} {
		h, err := s.Submit(0, c.task)
		if !errors.Is(err, system.ErrBadTask) {
			t.Errorf("%s: err = %v, want ErrBadTask", c.name, err)
		}
		if h != nil {
			t.Errorf("%s: got a handle for a rejected task", c.name)
		}
	}
	// A legal tiered task with a full preference vector is accepted.
	h, err := s.Submit(0, system.Task{Proc: 0, Tier: system.MaxTier, Priority: 7, Prefs: make([]int64, 8)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, "legal tiered task")
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	if err := s.EndService(h); err != nil {
		t.Fatal(err)
	}
}

// TestSingleTaskLifecycle drives one task end to end through the service.
// The task's processor starts cut off from the fabric, so it cannot be
// provisioned until the link is repaired: a Submit on an idle shard runs
// its epoch itself, and would otherwise return with Done fired.
func TestSingleTaskLifecycle(t *testing.T) {
	net := topology.Omega(8)
	s := newScheduler(t, Config{Shards: []system.Config{{Net: net}}})
	cut := system.FaultOp{Target: system.FaultTargetLink, Index: net.ProcLink[3]}
	if err := s.ApplyFaults(0, []system.FaultOp{cut}); err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit(0, system.Task{Proc: 3})
	if err != nil {
		t.Fatal(err)
	}
	// EndService before provisioning must be rejected.
	if err := s.EndService(h); err == nil {
		t.Fatal("premature EndService accepted")
	}
	cut.Repair = true
	if err := s.ApplyFaults(0, []system.FaultOp{cut}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("task never provisioned")
	}
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	if got := h.Resources(); len(got) != 1 {
		t.Fatalf("resources %v, want one", got)
	}
	if err := s.EndService(h); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Submitted != 1 || st.Granted != 1 || st.Serviced != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Free != 8 {
		t.Fatalf("free %d, want 8", st.Free)
	}
	// A grant costs arc scans either way it lands; node visits only
	// accrue when the flow search runs, so a routing-fast-path grant must
	// show up in FastPaths instead.
	if st.Ops.ArcScans <= 0 {
		t.Fatalf("solver counters did not accumulate: %+v", st.Ops)
	}
	if st.Ops.NodeVisits <= 0 && st.FastPaths <= 0 {
		t.Fatalf("neither search nor fast path recorded the grant: ops=%+v fastpaths=%d", st.Ops, st.FastPaths)
	}
}

// TestEndServiceRepliesOnJob: EndService's reply travels on the job rather
// than on a channel made per call, and racing calls on one handle queue
// behind each other. Of racing calls exactly one succeeds — each later one
// reaches the System and is told the task is unknown — the release counts
// once, and after Close the handle keeps answering ErrClosed instead of
// blocking.
func TestEndServiceRepliesOnJob(t *testing.T) {
	s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(8)}}})
	granted := func() *Handle {
		h, err := s.Submit(0, system.Task{Proc: 5})
		if err != nil {
			t.Fatal(err)
		}
		<-h.Done()
		if h.Err() != nil {
			t.Fatal(h.Err())
		}
		return h
	}
	const rounds, callers = 50, 4
	for round := 0; round < rounds; round++ {
		h := granted()
		errs := make(chan error, callers)
		for c := 0; c < callers; c++ {
			go func() { errs <- s.EndService(h) }()
		}
		ok := 0
		for c := 0; c < callers; c++ {
			switch err := <-errs; {
			case err == nil:
				ok++
			case !strings.Contains(err.Error(), "unknown task"):
				t.Fatalf("round %d: a racing EndService got %v, want the System's unknown task", round, err)
			}
		}
		if ok != 1 {
			t.Fatalf("round %d: %d of %d racing EndService calls succeeded, want 1", round, ok, callers)
		}
	}
	if st := s.Stats(); st.Submitted != rounds || st.Serviced != rounds || st.Failed != 0 || st.Free != 8 {
		t.Fatalf("stats %+v, want %d submitted and serviced, the pool whole", st, rounds)
	}
	h := granted()
	s.Close()
	for i := 0; i < 2; i++ {
		if err := s.EndService(h); err != ErrClosed {
			t.Fatalf("EndService %d after Close = %v, want ErrClosed", i+1, err)
		}
	}
}

// TestMultiResourceTask: a Need=3 task acquires across cycles within the
// service, under banker's avoidance.
func TestMultiResourceTask(t *testing.T) {
	s := newScheduler(t, Config{Shards: []system.Config{{
		Net: topology.Omega(8), Avoidance: system.AvoidanceBankers,
	}}})
	h, err := s.Submit(0, system.Task{Proc: 2, Need: 3})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("task never provisioned")
	}
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	if got := h.Resources(); len(got) != 3 {
		t.Fatalf("resources %v, want three", got)
	}
	if err := s.EndService(h); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Granted != 3 || st.Free != 8 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCloseFailsUnprovisioned: tasks that can never be provisioned are
// failed with ErrClosed at shutdown instead of leaking their waiters.
func TestCloseFailsUnprovisioned(t *testing.T) {
	s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(4)}}})
	// Grab every resource, then queue a task that cannot be served.
	var held []*Handle
	for p := 0; p < 4; p++ {
		h, err := s.Submit(0, system.Task{Proc: p})
		if err != nil {
			t.Fatal(err)
		}
		<-h.Done()
		if h.Err() != nil {
			t.Fatal(h.Err())
		}
		held = append(held, h)
	}
	starved, err := s.Submit(0, system.Task{Proc: 0})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	select {
	case <-starved.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("starved task not failed at Close")
	}
	if starved.Err() != ErrClosed {
		t.Fatalf("starved err = %v, want ErrClosed", starved.Err())
	}
	if _, err := s.Submit(0, system.Task{Proc: 1}); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := s.EndService(held[0]); err != ErrClosed {
		t.Fatalf("EndService after Close = %v, want ErrClosed", err)
	}
}

// TestStressBenes is the concurrency stress test of the service contract:
// 64 client goroutines push 1k tasks each through one Benes(16) shard.
// Every task must complete exactly once (none lost), no resource may ever
// be granted to two live tasks at once (none double-granted), and the
// resource pool must balance once drained. Run under -race in CI.
func TestStressBenes(t *testing.T) {
	const clients = 64
	tasksPer := 1000
	if testing.Short() {
		tasksPer = 100
	}
	net := topology.Benes(16)
	s := newScheduler(t, Config{
		Shards:    []system.Config{{Net: net}},
		BatchSize: 48,
	})

	var holders [16]atomic.Int32 // live grants per resource
	var doubleGrant atomic.Bool
	var completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			proc := c % net.Procs
			for i := 0; i < tasksPer; i++ {
				h, err := s.Submit(0, system.Task{Proc: proc})
				if err != nil {
					t.Errorf("client %d: submit: %v", c, err)
					return
				}
				<-h.Done()
				if h.Err() != nil {
					t.Errorf("client %d: task: %v", c, h.Err())
					return
				}
				res := h.Resources()
				if len(res) != 1 {
					t.Errorf("client %d: got %d resources", c, len(res))
					return
				}
				for _, r := range res {
					if holders[r].Add(1) != 1 {
						doubleGrant.Store(true)
					}
				}
				// Decrement before EndService: the release is only observable
				// to other grants after the shard processes the op, which
				// happens-after this store.
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
	if doubleGrant.Load() {
		t.Fatal("a resource was granted to two live tasks")
	}
	want := int64(clients * tasksPer)
	if got := completed.Load(); got != want {
		t.Fatalf("completed %d of %d tasks", got, want)
	}
	st := s.Stats()
	if st.Submitted != want || st.Granted != want || st.Serviced != want {
		t.Fatalf("tasks lost: %+v, want %d each", st, want)
	}
	if st.Free != net.Ress {
		t.Fatalf("drained pool has %d free of %d", st.Free, net.Ress)
	}
	// An epoch of releases alone runs no cycle, and an epoch runs a cycle
	// past its first only after one that granted something: no fewer cycles
	// than one, no more than one per grant plus a closing one per epoch.
	if st.Epochs <= 0 || st.Cycles <= 0 || st.Cycles > st.Granted+st.Epochs {
		t.Fatalf("implausible epoch accounting: %+v", st)
	}
	// Batching must actually batch: far fewer epochs than tasks.
	if st.Epochs >= st.Submitted {
		t.Fatalf("no coalescing: %d epochs for %d tasks", st.Epochs, st.Submitted)
	}
	s.Close()
	if st = s.Stats(); st.Free != net.Ress {
		t.Fatalf("post-close pool has %d free of %d", st.Free, net.Ress)
	}
}

// TestShardsRunIndependently: tasks on different shards complete without
// interference.
func TestShardsRunIndependently(t *testing.T) {
	const shards = 4
	var cfg Config
	for i := 0; i < shards; i++ {
		cfg.Shards = append(cfg.Shards, system.Config{Net: topology.Omega(8)})
	}
	s := newScheduler(t, cfg)
	var wg sync.WaitGroup
	var served atomic.Int64
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h, err := s.Submit(c%shards, system.Task{Proc: c % 8})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				<-h.Done()
				if h.Err() != nil {
					t.Errorf("task: %v", h.Err())
					return
				}
				if h.shard != c%shards {
					t.Errorf("task ran on shard %d, want %d", h.shard, c%shards)
					return
				}
				if err := s.EndService(h); err != nil {
					t.Errorf("end service: %v", err)
					return
				}
				served.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if got := served.Load(); got != 16*50 {
		t.Fatalf("served %d of %d", got, 16*50)
	}
	if st := s.Stats(); st.Free != shards*8 {
		t.Fatalf("drained pool has %d free of %d", st.Free, shards*8)
	}
}
