package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsin/internal/faultinject"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// waitDone waits for a handle to resolve without Close, failing the test
// on a hang — the contract every fault path must keep.
func waitDone(t *testing.T, h interface{ Done() <-chan struct{} }, what string) {
	t.Helper()
	select {
	case <-h.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: handle never resolved", what)
	}
}

// provision submits a task and waits until it holds its resources.
func provision(t *testing.T, s *Scheduler, shard int, task system.Task) *Handle {
	t.Helper()
	h, err := s.Submit(shard, task)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, "provision")
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	return h
}

// TestShardRecoversFromCycleFault is the acceptance scenario: an injected
// solver failure fails every in-flight handle with a typed error (no hang
// without Close), EndService on pre-fault grants reports ErrShardDown,
// Stats reports the restart, and the shard accepts and completes new
// work afterward.
func TestShardRecoversFromCycleFault(t *testing.T) {
	in := faultinject.New()
	s := newScheduler(t, Config{
		Shards: []system.Config{{Net: topology.Omega(8), FaultHook: in.Hook}},
	})

	// A healthy task that will be holding grants when the fault hits.
	pre := provision(t, s, 0, system.Task{Proc: 1})

	// Script the very next solver call to fail, then trigger it.
	in.FailAt(system.FaultCycle, in.Calls(system.FaultCycle)+1)
	victim, err := s.Submit(0, system.Task{Proc: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, victim, "victim of injected cycle fault")
	if !errors.Is(victim.Err(), ErrShardDown) {
		t.Fatalf("victim err = %v, want ErrShardDown", victim.Err())
	}
	if !errors.Is(victim.Err(), faultinject.ErrInjected) {
		t.Fatalf("victim err = %v does not carry the injected cause", victim.Err())
	}

	// The pre-fault grants died with the old System generation.
	if err := s.EndService(pre); !errors.Is(err, ErrShardDown) {
		t.Fatalf("EndService of lost grants = %v, want ErrShardDown", err)
	}

	// The shard must be serving again: new work completes end to end.
	post := provision(t, s, 0, system.Task{Proc: 2, Need: 2})
	if err := s.EndService(post); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", st.Restarts)
	}
	if st.Free != 8 {
		t.Fatalf("rebuilt shard has %d free of 8", st.Free)
	}
}

// TestRestartCountedBeforeDone pins the delivery rule on the shard
// goroutine: a restart's victims learn of it through their Done, and by
// then Stats already counts the restart and their failure — every time.
// A thousand injected solver faults; Stats is read the moment each
// victim's Done fires.
func TestRestartCountedBeforeDone(t *testing.T) {
	const restarts = 1000
	var trip atomic.Bool
	s := newScheduler(t, Config{Shards: []system.Config{{
		Net: topology.Omega(4),
		FaultHook: func(point string) error {
			if point == system.FaultCycle && trip.CompareAndSwap(true, false) {
				return errors.New("injected solver fault")
			}
			return nil
		},
	}}})
	for i := int64(1); i <= restarts; i++ {
		trip.Store(true)
		h, err := s.Submit(0, system.Task{Proc: int(i % 4)})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, h, "restart victim")
		st := s.Stats()
		if st.Restarts != i || st.Failed != i {
			t.Fatalf("restart %d: Stats at its victim's Done reads Restarts %d, Failed %d", i, st.Restarts, st.Failed)
		}
		if !errors.Is(h.Err(), ErrShardDown) {
			t.Fatalf("restart %d: victim err = %v, want ErrShardDown", i, h.Err())
		}
	}
}

// TestRestartRefusesStaleEndService: a rebuilt System hands out the IDs
// its predecessor did — the task table starts over at slot 0 — so a
// pre-restart handle can name the same task ID as post-restart work. The
// restart generation, not the ID, is what refuses the stale release: it
// fails with ErrShardDown and the new task keeps its grant.
func TestRestartRefusesStaleEndService(t *testing.T) {
	in := faultinject.New()
	s := newScheduler(t, Config{
		Shards: []system.Config{{Net: topology.Omega(8), FaultHook: in.Hook}},
	})
	pre := provision(t, s, 0, system.Task{Proc: 1})
	in.FailAt(system.FaultCycle, in.Calls(system.FaultCycle)+1)
	victim, err := s.Submit(0, system.Task{Proc: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, victim, "victim of injected cycle fault")
	post := provision(t, s, 0, system.Task{Proc: 1})
	if post.ids[0] != pre.ids[0] {
		t.Fatalf("post-restart task %d, pre-restart %d: want the rebuilt System to reuse the ID", post.ids[0], pre.ids[0])
	}
	if err := s.EndService(pre); !errors.Is(err, ErrShardDown) {
		t.Fatalf("EndService of the stale handle = %v, want ErrShardDown", err)
	}
	if st := s.Stats(); st.Free != 7 {
		t.Fatalf("after the stale release %d of 8 resources are free, want 7 (the new task's unit held)", st.Free)
	}
	if err := s.EndService(post); err != nil {
		t.Fatal(err)
	}
}

// TestEndTransmissionFaultFailsHandles is the regression test for the
// poisoned-shard handle leak: when EndTransmission fails mid-epoch the
// tracked handles must be failed like the Cycle-error path does, not left
// blocking on Done until Close.
func TestEndTransmissionFaultFailsHandles(t *testing.T) {
	in := faultinject.New().FailAt(system.FaultEndTransmission, 1)
	s := newScheduler(t, Config{
		Shards: []system.Config{{Net: topology.Omega(8), FaultHook: in.Hook}},
	})
	var handles []*Handle
	for p := 0; p < 4; p++ {
		h, err := s.Submit(0, system.Task{Proc: p})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		waitDone(t, h, fmt.Sprintf("handle %d after EndTransmission fault", i))
		if h.Err() == nil {
			// Ops may split across epochs: a handle provisioned by an
			// epoch before the faulted one legitimately succeeded.
			if err := s.EndService(h); err != nil && !errors.Is(err, ErrShardDown) {
				t.Fatalf("handle %d: EndService = %v", i, err)
			}
			continue
		}
		if !errors.Is(h.Err(), ErrShardDown) {
			t.Fatalf("handle %d err = %v, want ErrShardDown", i, h.Err())
		}
	}
	if st := s.Stats(); st.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", st.Restarts)
	}
	// Recovery: the shard still schedules.
	h := provision(t, s, 0, system.Task{Proc: 0})
	if err := s.EndService(h); err != nil {
		t.Fatal(err)
	}
}

// TestNoHotLoopWhileBlocked is the regression test for polling: a blocked
// tracked task on an idle shard must cost no flow solve and no epoch while
// nothing about the shard state changes — the shard sleeps in its op
// receive until an op arrives.
func TestNoHotLoopWhileBlocked(t *testing.T) {
	s := newScheduler(t, Config{
		Shards: []system.Config{{Net: topology.Omega(4)}},
	})
	var holders []*Handle
	for p := 0; p < 4; p++ {
		holders = append(holders, provision(t, s, 0, system.Task{Proc: p}))
	}
	blocked, err := s.Submit(0, system.Task{Proc: 0})
	if err != nil {
		t.Fatal(err)
	}
	// The blocked task's own epoch publishes its admission together with
	// the epoch and its cycles; from then on both counts must hold. No
	// completion shows that admission, so this is the one wait on it.
	before := s.Stats()
	for deadline := time.Now().Add(5 * time.Second); before.Submitted != 5 && time.Now().Before(deadline); before = s.Stats() {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	after := s.Stats()
	if after.Cycles != before.Cycles {
		t.Fatalf("blocked shard kept solving: %d cycles grew to %d with no state change", before.Cycles, after.Cycles)
	}
	if after.Epochs != before.Epochs {
		t.Fatalf("blocked shard kept flushing: %d epochs grew to %d with no op sent", before.Epochs, after.Epochs)
	}
	// The shard is idle, not stuck: a release wakes it and the blocked
	// task completes.
	if err := s.EndService(holders[3]); err != nil {
		t.Fatal(err)
	}
	waitDone(t, blocked, "blocked task after release")
	if blocked.Err() != nil {
		t.Fatal(blocked.Err())
	}
	if err := s.EndService(blocked); err != nil {
		t.Fatal(err)
	}
}

// TestUnsatisfiableRejectedAtSubmit is the regression test for typed
// tasks whose Need exceeds their own type's resource count: both the
// service and the system must reject them synchronously with
// ErrUnsatisfiable instead of wedging, under both avoidance modes.
func TestUnsatisfiableRejectedAtSubmit(t *testing.T) {
	for _, av := range []system.Avoidance{system.AvoidanceNone, system.AvoidanceBankers} {
		t.Run(fmt.Sprintf("avoidance=%d", av), func(t *testing.T) {
			s := newScheduler(t, Config{Shards: []system.Config{{
				Net:       topology.Omega(4),
				Avoidance: av,
				Types:     []int{0, 0, 1, 1},
			}}})
			_, err := s.Submit(0, system.Task{Proc: 0, Type: 1, Need: 3})
			if !errors.Is(err, system.ErrUnsatisfiable) {
				t.Fatalf("Submit = %v, want ErrUnsatisfiable", err)
			}
			h := provision(t, s, 0, system.Task{Proc: 0, Type: 0, Need: 2})
			if err := s.EndService(h); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSubmitCtxCancelFreesQueueHead: a deadline'd client abandoning a
// blocked task must release its queue-head slot and held units — the task
// queued behind it completes with the freed capacity.
func TestSubmitCtxCancelFreesQueueHead(t *testing.T) {
	s := newScheduler(t, Config{
		Shards: []system.Config{{Net: topology.Omega(4)}},
	})
	// Three holders leave exactly one free resource.
	var holders []*Handle
	for p := 1; p < 4; p++ {
		holders = append(holders, provision(t, s, 0, system.Task{Proc: p}))
	}
	// The head task grabs the last unit and then blocks on its second —
	// hold-and-wait — with another client queued behind it.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	head, err := s.SubmitCtx(ctx, 0, system.Task{Proc: 0, Need: 2})
	if err != nil {
		t.Fatal(err)
	}
	behind, err := s.Submit(0, system.Task{Proc: 0})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, head, "deadline'd head task")
	if !errors.Is(head.Err(), ErrTaskCanceled) {
		t.Fatalf("head err = %v, want ErrTaskCanceled", head.Err())
	}
	// The cancellation freed both the queue head and the held unit.
	waitDone(t, behind, "task queued behind the canceled head")
	if behind.Err() != nil {
		t.Fatal(behind.Err())
	}
	if err := s.EndService(behind); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1", st.Canceled)
	}
	if st.Restarts != 0 {
		t.Fatalf("cancellation triggered %d restarts", st.Restarts)
	}
	for _, h := range holders {
		if err := s.EndService(h); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Free != 4 {
		t.Fatalf("drained pool has %d free of 4", st.Free)
	}
}

// TestGrantStopsContextWatch: a submission with a cancellable context is
// watched by a context.AfterFunc, not a goroutine, and the delivery that
// fires its Done stops the watch — a context that ends after the grant
// sends no cancel.
func TestGrantStopsContextWatch(t *testing.T) {
	s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(4)}}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := s.SubmitCtx(ctx, 0, system.Task{Proc: 0})
	if err != nil {
		t.Fatal(err)
	}
	waitOK(t, h, "watched task")
	if h.stop == nil {
		t.Fatal("a cancellable context was not watched")
	}
	if h.stop() {
		t.Fatal("the context watch outlived the grant: deliver did not stop it")
	}
	if err := s.EndService(h); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitCtxExpired: an already-dead context never reaches a shard —
// no handle, no Submitted increment, no queue-head slot consumed, and
// the exactly-once accounting identity still holds at quiescence. The
// front door leans on this: a client whose deadline elapsed before the
// request reached Submit must not occupy scheduler state.
func TestSubmitCtxExpired(t *testing.T) {
	s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(4)}}})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel2()
	for name, ctx := range map[string]context.Context{"canceled": canceled, "deadline past": expired} {
		h, err := s.SubmitCtx(ctx, 0, system.Task{Proc: 0})
		if !errors.Is(err, ErrTaskCanceled) {
			t.Fatalf("SubmitCtx on %s ctx = %v, want ErrTaskCanceled", name, err)
		}
		if h != nil {
			t.Fatalf("SubmitCtx on %s ctx returned a handle", name)
		}
	}
	// Nothing was accepted: no Submitted increment, no Canceled tally
	// (the task never existed), and the pool is untouched.
	if st := s.Stats(); st.Submitted != 0 || st.Canceled != 0 || st.Free != 4 {
		t.Fatalf("expired submits moved the counters: %+v", st)
	}
	// The queue head was not consumed: a full-capacity task on the same
	// processor provisions immediately (a leaked slot would starve it).
	h, err := s.SubmitCtx(context.Background(), 0, system.Task{Proc: 0, Need: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, "full-capacity task after expired submits")
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	if err := s.EndService(h); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Submitted != 1 || st.Serviced != 1 {
		t.Fatalf("stats after the live task: %+v", st)
	}
	if st.Submitted != st.Serviced+st.Canceled+st.Failed {
		t.Fatalf("accounting identity broken at quiescence: %+v", st)
	}
}

// TestErrorPaths is the table of scheduler error paths: each scenario
// must resolve with an error (or clean success) rather than a hang or a
// corrupted shard. Run under -race in CI.
func TestErrorPaths(t *testing.T) {
	tests := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"double EndService", func(t *testing.T) {
			s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(4)}}})
			h := provision(t, s, 0, system.Task{Proc: 0})
			if err := s.EndService(h); err != nil {
				t.Fatal(err)
			}
			if err := s.EndService(h); err == nil {
				t.Fatal("double EndService accepted")
			}
			// The shard survives the bad release.
			h2 := provision(t, s, 0, system.Task{Proc: 1})
			if err := s.EndService(h2); err != nil {
				t.Fatal(err)
			}
		}},
		{"EndService on recovering shard", func(t *testing.T) {
			in := faultinject.New()
			s := newScheduler(t, Config{
				Shards: []system.Config{{Net: topology.Omega(4), FaultHook: in.Hook}},
			})
			pre := provision(t, s, 0, system.Task{Proc: 0})
			in.FailAt(system.FaultCycle, in.Calls(system.FaultCycle)+1)
			victim, err := s.Submit(0, system.Task{Proc: 1})
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, victim, "victim")
			if err := s.EndService(pre); !errors.Is(err, ErrShardDown) {
				t.Fatalf("EndService = %v, want ErrShardDown", err)
			}
		}},
		{"Submit racing Close", func(t *testing.T) {
			s, err := New(Config{Shards: []system.Config{{Net: topology.Omega(8)}}})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			handles := make(chan *Handle, 64)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 8; i++ {
						h, err := s.Submit(0, system.Task{Proc: g})
						if err != nil {
							if !errors.Is(err, ErrClosed) {
								t.Errorf("racing Submit = %v", err)
							}
							return
						}
						handles <- h
					}
				}(g)
			}
			s.Close()
			wg.Wait()
			close(handles)
			// Every accepted handle must resolve: provisioned before the
			// final epoch, or failed with ErrClosed — never leaked.
			for h := range handles {
				waitDone(t, h, "handle accepted around Close")
				if err := h.Err(); err != nil && !errors.Is(err, ErrClosed) {
					t.Fatalf("handle err = %v, want nil or ErrClosed", err)
				}
			}
		}},
		{"abandoned context handle", func(t *testing.T) {
			s := newScheduler(t, Config{
				Shards: []system.Config{{Net: topology.Omega(4)}},
			})
			// Hold everything so the abandoned task can never provision.
			var holders []*Handle
			for p := 0; p < 4; p++ {
				holders = append(holders, provision(t, s, 0, system.Task{Proc: p}))
			}
			ctx, cancel := context.WithCancel(context.Background())
			abandoned, err := s.SubmitCtx(ctx, 0, system.Task{Proc: 0})
			if err != nil {
				t.Fatal(err)
			}
			cancel() // client walks away without ever reading the handle
			waitDone(t, abandoned, "abandoned handle")
			if !errors.Is(abandoned.Err(), ErrTaskCanceled) {
				t.Fatalf("abandoned err = %v, want ErrTaskCanceled", abandoned.Err())
			}
			for _, h := range holders {
				if err := s.EndService(h); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, tc.run)
	}
}
