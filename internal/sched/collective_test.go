package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"rsin/internal/core"
	"rsin/internal/obs"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// TestRunCollective runs a ring allreduce and a reduce-scatter end to end
// on two fabrics: every phase must complete as one gang (one activation,
// one service per phase) and the fabric must drain back to fully free.
func TestRunCollective(t *testing.T) {
	cases := []struct {
		name    string
		net     *topology.Network
		pattern core.Collective
		ranks   int
	}{
		{"allreduce-omega4", topology.Omega(4), core.RingAllReduce, 4},
		{"allreduce-benes4", topology.Benes(4), core.RingAllReduce, 3},
		{"reduce-scatter-omega4", topology.Omega(4), core.RingReduceScatter, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newScheduler(t, Config{
				Shards: []system.Config{{Net: tc.net, Avoidance: system.AvoidanceBankers}},
			})
			procs := make([]int, tc.ranks)
			for i := range procs {
				procs[i] = i
			}
			res, err := s.RunCollective(context.Background(), 0, CollectiveSpec{
				Pattern: tc.pattern,
				Procs:   procs,
				Label:   tc.name,
			})
			if err != nil {
				t.Fatal(err)
			}
			phases, _ := core.LowerCollective(tc.pattern, tc.ranks)
			if res.Phases != len(phases) {
				t.Fatalf("RunCollective ran %d phases, want %d", res.Phases, len(phases))
			}
			st := s.Stats()
			if st.GangsServiced != int64(len(phases)) || st.GangsSubmitted != int64(len(phases)) {
				t.Fatalf("gang counters submitted=%d serviced=%d, want %d each",
					st.GangsSubmitted, st.GangsServiced, len(phases))
			}
			if st.Submitted != st.Serviced || st.Failed != 0 || st.Canceled != 0 {
				t.Fatalf("terminal accounting off: %+v", st)
			}
		})
	}
}

// TestRunCollectiveConcurrent overlaps two collectives on one shard with
// singleton traffic riding along: the per-phase gangs from both must
// interleave through the banker's gate without deadlock and both finish.
func TestRunCollectiveConcurrent(t *testing.T) {
	net := topology.Omega(8)
	s := newScheduler(t, Config{
		Shards: []system.Config{{Net: net, Avoidance: system.AvoidanceBankers}},
	})
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i, procs := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		wg.Add(1)
		go func(i int, procs []int) {
			defer wg.Done()
			_, err := s.RunCollective(context.Background(), 0, CollectiveSpec{
				Pattern: core.RingAllReduce,
				Procs:   procs,
			})
			errs <- err
		}(i, procs)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			h, err := s.Submit(0, system.Task{Proc: i % net.Procs})
			if err != nil {
				errs <- err
				return
			}
			<-h.Done()
			if h.Err() != nil {
				errs <- h.Err()
				return
			}
			if err := s.EndService(h); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent collectives wedged")
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.GangsServiced != 12 { // two allreduces over 4 ranks: 2*2*(4-1)
		t.Fatalf("GangsServiced = %d, want 12", st.GangsServiced)
	}
	if st.Submitted != st.Serviced {
		t.Fatalf("terminal accounting off: %+v", st)
	}
}

// TestRunCollectiveErrors pins the failure surface: a bad rank count
// fails in lowering before any gang is submitted, and a canceled context
// stops the phase chain with nothing held.
func TestRunCollectiveErrors(t *testing.T) {
	s := newScheduler(t, Config{
		Shards: []system.Config{{Net: topology.Omega(4)}},
	})
	if _, err := s.RunCollective(context.Background(), 0, CollectiveSpec{
		Pattern: core.RingAllReduce, Procs: []int{0},
	}); err == nil {
		t.Fatal("1-rank collective accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunCollective(ctx, 0, CollectiveSpec{
		Pattern: core.RingAllReduce, Procs: []int{0, 1, 2},
	}); err == nil {
		t.Fatal("canceled context ran a collective")
	}
	st := s.Stats()
	if st.Submitted != st.Serviced+st.Canceled+st.Failed {
		t.Fatalf("terminal accounting off after failures: %+v", st)
	}
}

// posted waits for n ops that callers outside the stepper post to the
// shard and takes them, oldest first. Such a caller only posts while the
// test holds the shard's epoch lock: its combine loses the lock, and it
// waits on its own completion, which the stepped epochs deliver.
func (st *stepper) posted(n int) []op {
	st.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(st.sh.buf) < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			st.t.Fatalf("%d of %d ops posted in 10 s", len(st.sh.buf), n)
		}
		st.sh.take(n - len(st.sh.buf))
	}
	ops := slices.Clone(st.sh.buf)
	clear(st.sh.buf)
	st.sh.buf = st.sh.buf[:0]
	return ops
}

// adopt queues the next posted op on the stepper, checking its kind, and
// returns its job.
func (st *stepper) adopt(kind opKind) *job {
	st.t.Helper()
	o := st.posted(1)[0]
	if o.kind != kind {
		st.t.Fatalf("the caller posted op kind %d, want %d", o.kind, kind)
	}
	st.ops = append(st.ops, o)
	return o.j
}

// TestRunCollectiveReusedHandle holds what RunCollective's one job, reused
// from phase to phase, must not carry over. The test holds the shard's
// epoch lock, so the collective's goroutine only posts its ops, and steps
// them: every phase of a 3-rank allreduce (two units a rank, six a phase)
// stalls on blockers one unit short, takes its row's fault events while it
// acquires, and is granted once a blocker leaves; a new blocker takes that
// place before the next phase is admitted. A fault event fails one unit a
// member holds, then repairs it: a link fault severs only a circuit in
// flight, and the service ends each circuit in its granting cycle.
//   - Only the faulted phase resets, and each event is charged once, to
//     that phase: CollectiveResult.Severs and GangSevers count the events.
//   - A chain whose every phase absorbs SeverRetries events completes: the
//     budget starts from zero each phase.
//   - Each phase's label and Resources are its own: one grant per member,
//     the units the System says the member holds.
//
// A phase whose context ended before its grant may leave a cancel on its
// way to the shard, addressed to the job, so the job must not be reused
// then. One stepped row has the grant win that race and applies the late
// cancel after the release, while the collective goroutine gives up (a
// reuse there is a data race under -race); the last row ends the context
// at random points of collectives run the ordinary way.
func TestRunCollectiveReusedHandle(t *testing.T) {
	const retries = 2
	rows := []struct {
		name   string
		events []int // fault events per phase
	}{
		{"one phase faulted mid-chain", []int{0, 0, 1, 0}},
		{"every phase spends the budget", []int{retries, retries, retries, retries}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			net := topology.Omega(8)
			reg := obs.NewRegistry()
			st := newStepper(t, Config{Shards: []system.Config{{Net: net}}, SeverRetries: retries, Obs: reg})
			blockers := map[int]*Handle{}
			for p := 3; p < 6; p++ {
				blockers[p] = st.provision(system.Task{Proc: p})
			}
			type outcome struct {
				res CollectiveResult
				err error
			}
			done := make(chan outcome, 1)
			st.sh.epochMu.Lock()
			go func() {
				res, err := st.s.RunCollective(context.Background(), 0, CollectiveSpec{
					Pattern: core.RingAllReduce, Procs: []int{0, 1, 2}, Need: 2, Label: "ar",
				})
				done <- outcome{res, err}
			}()
			var first *job
			severs := 0
			for phase, events := range row.events {
				j := st.adopt(opSubmit)
				if first == nil {
					first = j
				} else if j != first {
					t.Fatalf("phase %d was submitted on a new job: nothing is reused", phase)
				}
				if want := fmt.Sprintf("ar/p%d", phase); j.label != want {
					t.Fatalf("phase %d is labelled %q, want %q", phase, j.label, want)
				}
				st.step()
				// The phase holds every unit no blocker holds.
				taken := map[int]bool{}
				for _, b := range blockers {
					taken[b.Resources()[0]] = true
				}
				var free []int
				for r := range net.Ress {
					if !taken[r] {
						free = append(free, r)
					}
				}
				for e := 0; e < events; e++ {
					if err := st.fault(faultBatch(free[:1], false)...); err != nil {
						t.Fatal(err)
					}
					if err := st.fault(faultBatch(free[:1], true)...); err != nil {
						t.Fatal(err)
					}
				}
				if fired(j) {
					t.Fatalf("phase %d resolved one unit short, after %d fault events: %v", phase, events, j.err)
				}
				if j.severs != events {
					t.Fatalf("phase %d is charged %d severs after %d fault events", phase, j.severs, events)
				}
				severs += events
				// A blocker leaves, and its unit completes the phase.
				p := 3 + phase%3
				gone := blockers[p].Resources()[0]
				if err := st.release(&blockers[p].job); err != nil {
					t.Fatal(err)
				}
				if !fired(j) || j.err != nil {
					t.Fatalf("phase %d not granted once a blocker left: %v", phase, j.err)
				}
				if len(j.res) != 3 {
					t.Fatalf("phase %d granted %d members, want 3: %v", phase, len(j.res), j.res)
				}
				var got []int
				for m, units := range j.res {
					if held := st.sh.sys.AppendHolding(nil, j.ids[m]); len(units) != 2 || !slices.Equal(units, held) {
						t.Fatalf("phase %d member %d: Resources %v, the System says it holds %v", phase, m, units, held)
					}
					got = append(got, units...)
				}
				slices.Sort(got)
				want := append(free, gone)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("phase %d granted %v, want the free units and the blocker's: %v", phase, got, want)
				}
				st.adopt(opEnd)
				st.step()
				blockers[p] = st.provision(system.Task{Proc: p})
			}
			st.sh.epochMu.Unlock()
			out := <-done
			if out.err != nil {
				t.Fatal(out.err)
			}
			if out.res.Phases != len(row.events) || out.res.Severs != severs {
				t.Fatalf("RunCollective reported %+v, want %d phases and %d severs", out.res, len(row.events), severs)
			}
			s := st.s.Stats()
			if s.GangSevers != int64(severs) || s.GangsServiced != int64(len(row.events)) || s.GangsFailed != 0 {
				t.Fatalf("gang counters: %d severs, %d serviced, %d failed; want %d, %d, 0",
					s.GangSevers, s.GangsServiced, s.GangsFailed, severs, len(row.events))
			}
			var labels []string
			for _, e := range reg.Trace().Events() {
				if e.Kind == evGangSubmit {
					labels = append(labels, e.Result)
				}
			}
			if want := []string{"ar/p0", "ar/p1", "ar/p2", "ar/p3"}; !slices.Equal(labels, want) {
				t.Fatalf("gang submit events labelled %q, want %q", labels, want)
			}
			for _, b := range blockers {
				if err := st.release(&b.job); err != nil {
					t.Fatal(err)
				}
			}
			if s := st.s.Stats(); s.Free != net.Ress || s.Submitted != s.Serviced {
				t.Fatalf("the fabric did not drain: %+v", s)
			}
		})
	}
	t.Run("a cancel that raced the grant", func(t *testing.T) {
		st := newStepper(t, Config{Shards: []system.Config{{Net: topology.Omega(8)}}})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		st.sh.epochMu.Lock()
		defer st.sh.epochMu.Unlock()
		go func() {
			_, err := st.s.RunCollective(ctx, 0, CollectiveSpec{Pattern: core.RingAllReduce, Procs: []int{0, 1, 2}})
			done <- err
		}()
		j := st.adopt(opSubmit)
		st.apply() // the phase is tracked and its context watched
		cancel()   // the watch fires: a cancel is on its way to the shard
		st.cycle() // and the grant wins it
		if !fired(j) || j.err != nil {
			t.Fatalf("phase 0 was not granted: %v", j.err)
		}
		ops := st.posted(2) // the cancel and the release, in either order
		slices.SortFunc(ops, func(a, b op) int { return int(a.kind) - int(b.kind) })
		if ops[0].kind != opEnd || ops[1].kind != opCancel || ops[1].j != j {
			t.Fatalf("posted ops of kinds %d and %d, want a release and a cancel of the phase", ops[0].kind, ops[1].kind)
		}
		st.ops = append(st.ops, ops[0])
		st.step()
		st.ops = append(st.ops, ops[1])
		st.step()
		if err := <-done; !errors.Is(err, ErrTaskCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCollective returned %v, want the phase 1 cancellation", err)
		}
		if s := st.s.Stats(); s.GangsServiced != 1 || s.GangsCanceled != 0 || s.Submitted != s.Serviced {
			t.Fatalf("a late cancel changed the accounting: %+v", s)
		}
	})
	t.Run("context ends mid-chain", func(t *testing.T) {
		net := topology.Omega(8)
		s := newScheduler(t, Config{Shards: []system.Config{{Net: net}}})
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					ctx, cancel := context.WithCancel(context.Background())
					go cancel()
					res, err := s.RunCollective(ctx, 0, CollectiveSpec{
						Pattern: core.RingAllReduce, Procs: []int{4 * c, 4*c + 1, 4*c + 2, 4*c + 3},
					})
					cancel()
					if err != nil && !errors.Is(err, ErrTaskCanceled) || err == nil && res.Phases != 6 {
						t.Errorf("collective %d: %+v, %v", i, res, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if st := s.Stats(); st.Free != net.Ress || st.Submitted != st.Serviced+st.Canceled+st.Failed {
			t.Fatalf("canceled collectives left %+v", st)
		}
	})
}
