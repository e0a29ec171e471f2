package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsin/internal/system"
	"rsin/internal/topology"
)

// TestPostedDuringEpochIsApplied pins the combiner's liveness rule: an op
// posted while another caller runs the shard's epoch is applied with no
// further call — by that caller's next epoch, or, when it was posted just
// as that caller let go of the epoch lock, by the look it takes at the
// pending list after unlocking. First deterministically: a caller parked
// inside its epoch holds the lock while a second submits, and that submit
// returns without running an epoch; once the first caller's call returns,
// the second task is provisioned. Then as a race: pairs of submits and
// releases posted at the same instant, each waited for with no other call
// in flight. Run under -race at a high -count.
func TestPostedDuringEpochIsApplied(t *testing.T) {
	g := newCycleGate()
	s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(8), FaultHook: g.hook}}})
	t.Cleanup(g.unpark)

	g.armed.Store(true)
	first := make(chan *Handle)
	go func() {
		h, err := s.Submit(0, system.Task{Proc: 0})
		if err != nil {
			t.Error(err)
		}
		first <- h
	}()
	g.waitParked(t)
	late := submit(t, s, system.Task{Proc: 1})
	if fired(&late.job) {
		t.Fatal("a submit posted during another caller's epoch ran an epoch of its own")
	}
	g.release <- struct{}{}
	a := <-first
	if a == nil {
		t.FailNow()
	}
	waitOK(t, a, "parked caller's task")
	waitOK(t, late, "task posted during the parked epoch")
	for _, h := range []*Handle{a, late} {
		if err := s.EndService(h); err != nil {
			t.Fatal(err)
		}
	}

	// The race: two clients post at the same instant, so one often loses
	// the epoch lock to the other just as the winner unlocks.
	const rounds = 200
	for i := 0; i < rounds; i++ {
		var hs [2]*Handle
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := range hs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				h, err := s.Submit(0, system.Task{Proc: 2 + c})
				if err != nil {
					t.Error(err)
					return
				}
				hs[c] = h
			}()
		}
		close(start)
		wg.Wait()
		for _, h := range hs {
			if h == nil {
				t.FailNow()
			}
			waitOK(t, h, "submit posted beside another")
		}
		start = make(chan struct{})
		for _, h := range hs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := s.EndService(h); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		ended := make(chan struct{})
		go func() { wg.Wait(); close(ended) }()
		select {
		case <-ended:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: a release posted beside another was never applied", i)
		}
	}
	if st := s.Stats(); st.Serviced != 2+2*rounds || st.Free != 8 {
		t.Fatalf("stats %+v, want %d serviced and the pool whole", st, 2+2*rounds)
	}
}

// TestCloseDrainsCombiners: Close racing clients that are running epochs
// for one another applies every op posted before it and leaves no handle
// open. An op can be posted just before Close marks the shard closed and
// find the epoch lock already Close's; then Close's own drain is the only
// epoch it gets. The test first plays that interleaving step by step,
// holding the epoch lock itself until Close waits for it — then closes a
// fresh scheduler under load many times. Every accepted submission's Done fires
// — granted, canceled or failed with ErrClosed — every call after Close
// reports ErrClosed, and the terminal accounting balances: each accepted
// task is serviced, canceled, failed, or granted and not released because
// its EndService came after Close.
func TestCloseDrainsCombiners(t *testing.T) {
	s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(8)}}})
	h := &Handle{}
	o := op{kind: opSubmit, j: &h.job, one: [1]system.Task{{Proc: 0}}}
	if err := s.ready(context.Background(), 0, &o); err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	sh.pmu.Lock() // post's first half: the op is pending
	sh.pending = append(sh.pending, o)
	sh.pmu.Unlock()
	sh.epochMu.Lock() // a combiner's epoch, about to end
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	for stop := false; !stop; runtime.Gosched() {
		sh.pmu.Lock()
		stop = sh.closed
		sh.pmu.Unlock()
	}
	s.combine(sh) // post's second half: the lock is taken, so it leaves the op
	sh.epochMu.Unlock()
	<-closed
	if !fired(&h.job) || h.Err() != nil {
		t.Fatalf("a task posted just before Close: fired %v, err %v; want it provisioned by Close's drain", fired(&h.job), h.Err())
	}

	const rounds, clients = 100, 8
	for r := 0; r < rounds && !t.Failed(); r++ {
		s := newScheduler(t, Config{BatchSize: 4, Shards: []system.Config{{Net: topology.Omega(8)}}})
		var accepted, unreleased atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					ctx, cancel := context.WithCancel(context.Background())
					h, err := s.SubmitCtx(ctx, 0, system.Task{Proc: c})
					if err != nil {
						cancel()
						if !errors.Is(err, ErrClosed) {
							t.Errorf("client %d: submit: %v", c, err)
						}
						return
					}
					accepted.Add(1)
					if i%3 == 0 {
						cancel() // its cancellation races the grant and Close
					}
					select {
					case <-h.Done():
					case <-time.After(5 * time.Second):
						t.Errorf("round %d, client %d: an accepted task's handle was left open", r, c)
						cancel()
						return
					}
					cancel()
					switch err := h.Err(); {
					case err == nil:
						if err := s.EndService(h); errors.Is(err, ErrClosed) {
							unreleased.Add(1)
						} else if err != nil {
							t.Errorf("client %d: end service: %v", c, err)
						}
					case errors.Is(err, ErrTaskCanceled), errors.Is(err, ErrClosed):
					default:
						t.Errorf("client %d: task: %v", c, err)
					}
				}
			}()
		}
		for s.Stats().Submitted < int64(r%4) {
			runtime.Gosched()
		}
		s.Close()
		wg.Wait()
		st := s.Stats()
		if st.Submitted != accepted.Load() {
			t.Fatalf("round %d: %d submissions accepted, %d applied: an op posted before Close was dropped", r, accepted.Load(), st.Submitted)
		}
		if got := st.Serviced + st.Canceled + st.Failed + unreleased.Load(); got != st.Submitted {
			t.Fatalf("round %d: terminal accounting: %d serviced + %d canceled + %d failed + %d unreleased != %d submitted",
				r, st.Serviced, st.Canceled, st.Failed, unreleased.Load(), st.Submitted)
		}
		if _, err := s.Submit(0, system.Task{Proc: 0}); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit after Close: %v, want ErrClosed", err)
		}
	}
}

// TestCombinerTurnIsBounded pins the bound on a combiner's turn: once it
// has run other callers' epochs for maxTurn with ops still pending, a
// caller running epochs leaves them to a goroutine it starts, and returns.
// A submit's epoch parks while a second submit is posted; the next epoch,
// the first for others, which takes it, parks for two maxTurns while a
// blocking call — a release, a fault batch, or a submit waited on through
// Done — and a third submit are posted. The gate is re-armed each time, so
// whoever runs the third epoch parks in it. The first caller's Submit must
// return while that third epoch is parked, run by the helper it started,
// and the blocking call then returns its own answer.
func TestCombinerTurnIsBounded(t *testing.T) {
	blockers := []struct {
		name string
		call func(s *Scheduler, held *Handle) error
	}{
		{"release", func(s *Scheduler, held *Handle) error { return s.EndService(held) }},
		{"fault batch", func(s *Scheduler, _ *Handle) error {
			return s.ApplyFaults(0, []system.FaultOp{{Target: system.FaultTargetResource, Index: 7}})
		}},
		{"submit", func(s *Scheduler, _ *Handle) error {
			h, err := s.Submit(0, system.Task{Proc: 4})
			if err != nil {
				return err
			}
			<-h.Done()
			return h.Err()
		}},
	}
	for _, b := range blockers {
		t.Run(b.name, func(t *testing.T) {
			g := newCycleGate()
			s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(8), FaultHook: g.hook}}})
			t.Cleanup(g.unpark)
			held := submit(t, s, system.Task{Proc: 0})
			waitOK(t, held, "held task")

			g.armed.Store(true)
			combiner := make(chan *Handle)
			go func() {
				h, err := s.Submit(0, system.Task{Proc: 1})
				if err != nil {
					t.Error(err)
				}
				combiner <- h
			}()
			g.waitParked(t)
			second := submit(t, s, system.Task{Proc: 2})
			waitPending(t, s.shards[0], 1)
			g.armed.Store(true)
			g.release <- struct{}{}
			g.waitParked(t)
			blocked := make(chan error)
			go func() { blocked <- b.call(s, held) }()
			waitPending(t, s.shards[0], 1)
			late := submit(t, s, system.Task{Proc: 3})
			waitPending(t, s.shards[0], 2)
			time.Sleep(2 * maxTurn) // the epoch for others outlasts the turn

			g.armed.Store(true)
			g.release <- struct{}{}
			g.waitParked(t)
			select {
			case h := <-combiner:
				waitOK(t, h, "the combiner's own task")
			case <-time.After(5 * time.Second):
				t.Fatal("the combiner ran a third epoch for others while a caller was blocked on a pending op")
			}
			waitOK(t, second, "task of the combiner's second epoch")
			g.release <- struct{}{}
			if err := <-blocked; err != nil {
				t.Fatalf("the blocked call: %v", err)
			}
			waitOK(t, late, "task posted behind the spent turn")
		})
	}
}

// TestCloseRacesSpentTurn: a turn that has spent maxTurn with ops pending
// races Close. The combiner parks in its first epoch for others while a
// third submit is posted and Close marks the shard closed; released, it
// finds its turn spent and the submit pending, unlocks and starts a helper,
// which races Close's drain for the epoch lock. Whichever wins, every op
// posted before Close is applied by the time Close returns, and the helper,
// if it runs after, finds nothing: Stats().Epochs does not move.
func TestCloseRacesSpentTurn(t *testing.T) {
	g := newCycleGate()
	s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(8), FaultHook: g.hook}}})
	t.Cleanup(g.unpark)
	sh := s.shards[0]

	g.armed.Store(true)
	combiner := make(chan *Handle)
	go func() {
		h, err := s.Submit(0, system.Task{Proc: 0})
		if err != nil {
			t.Error(err)
		}
		combiner <- h
	}()
	g.waitParked(t)
	second := submit(t, s, system.Task{Proc: 1})
	waitPending(t, sh, 1)
	g.armed.Store(true)
	g.release <- struct{}{}
	g.waitParked(t)
	late := submit(t, s, system.Task{Proc: 2})
	waitPending(t, sh, 1)
	time.Sleep(2 * maxTurn) // the epoch for others outlasts the turn

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	for stop := false; !stop; runtime.Gosched() {
		sh.pmu.Lock()
		stop = sh.closed
		sh.pmu.Unlock()
	}
	g.release <- struct{}{}
	first := <-combiner
	<-closed
	for _, h := range []*Handle{first, second, late} {
		if h == nil {
			t.FailNow()
		}
		if !fired(&h.job) || h.Err() != nil {
			t.Fatalf("a task posted before Close: fired %v, err %v; want it provisioned before Close returned", fired(&h.job), h.Err())
		}
	}
	st := s.Stats()
	if st.Submitted != 3 || st.Granted != 3 {
		t.Fatalf("stats %+v at Close, want 3 submitted and granted", st)
	}
	time.Sleep(10 * time.Millisecond) // room for a helper started late to run
	if after := s.Stats().Epochs; after != st.Epochs {
		t.Fatalf("epochs moved from %d to %d after Close returned", st.Epochs, after)
	}
}

// waitPending waits until n ops are pending on sh.
func waitPending(t *testing.T, sh *shard, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		sh.pmu.Lock()
		got := len(sh.pending)
		sh.pmu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d ops pending, want %d", got, n)
		}
	}
}
