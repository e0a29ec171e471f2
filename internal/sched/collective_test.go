package sched

import (
	"context"
	"sync"
	"testing"
	"time"

	"rsin/internal/core"
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
