// The race detector's instrumentation allocates on its own schedule
// across the shard goroutines, which makes global malloc counting flaky;
// CI runs this guard in the plain (non-race) test job.
//go:build !race

package sched

import (
	"runtime"
	"sync"
	"testing"

	"rsin/internal/obs"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// TestDisabledObsAllocFree pins the acceptance bound for the disabled
// path: a full Submit -> grant -> EndService round allocates exactly as
// much with observability disabled as the instrumented build does with it
// enabled — i.e. the instrumentation itself allocates nothing on the hot
// path in either mode, so disabling it cannot cost anything over the
// pre-instrumentation baseline.
func TestDisabledObsAllocFree(t *testing.T) {
	round := func(s *Scheduler) func() {
		task := system.Task{Proc: 0, Need: 1}
		return func() {
			h, err := s.Submit(0, task)
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
	}
	mk := func(reg *obs.Registry) *Scheduler {
		return newScheduler(t, Config{
			BatchSize: 1,
			Obs:       reg,
			Shards:    []system.Config{{Net: topology.Omega(8)}},
		})
	}
	disabled := testing.AllocsPerRun(200, round(mk(nil)))
	enabled := testing.AllocsPerRun(200, round(mk(obs.NewRegistry())))
	t.Logf("allocs per Submit->grant->EndService round: %v disabled, %v enabled", disabled, enabled)
	if disabled > enabled {
		t.Fatalf("disabled-obs round allocates %v, enabled %v — the disabled path must not allocate more", disabled, enabled)
	}
	if enabled-disabled > 0.5 {
		t.Fatalf("instrumentation allocates on the hot path: %v allocs/round enabled vs %v disabled", enabled, disabled)
	}
}

// The round trip's recorded allocation ceilings. A singleton round trip
// hands back its Handle (with its Done channel) and the Resources copy, and
// admits one system task record: four objects per task. Every granting
// cycle adds what it hands back, at most four: the CycleResult, the Mapping
// and its Assigned and Blocked slices. One client runs a whole cycle per
// round, which the lone bound counts in (no Blocked slice: 4 + 3). Under 64
// clients the number of cycles depends on how full the batches are, so the
// batched guard takes the cycles' share off the mean and bounds what is
// left per task. A channel made per EndService, a per-circuit path slice or
// a copy of the held set adds at least one object per task and fails both.
const (
	roundTripAllocsAlone   = 7
	roundTripAllocsPerTask = 4
	cycleAllocs            = 4
)

// TestRoundTripAllocs pins the allocations of Submit -> Done -> Resources
// -> EndService: for one client as an exact count per round, and for 64
// closed-loop clients on an Omega-64 as the per-task part of the mean over
// many rounds.
func TestRoundTripAllocs(t *testing.T) {
	roundTrip := func(t *testing.T, s *Scheduler, proc int) {
		h, err := s.Submit(0, system.Task{Proc: proc})
		if err != nil {
			t.Error(err)
			return
		}
		<-h.Done()
		if h.Err() != nil {
			t.Error(h.Err())
			return
		}
		if res := h.Resources(); len(res) != 1 {
			t.Errorf("granted %v, want one resource", res)
		}
		if err := s.EndService(h); err != nil {
			t.Error(err)
		}
	}
	t.Run("one client", func(t *testing.T) {
		s := newScheduler(t, Config{BatchSize: 1, Shards: []system.Config{{Net: topology.Omega(8)}}})
		got := testing.AllocsPerRun(200, func() { roundTrip(t, s, 0) })
		t.Logf("%.1f allocations per round trip", got)
		if got > roundTripAllocsAlone {
			t.Fatalf("a lone round trip allocates %.1f objects, bound %d", got, roundTripAllocsAlone)
		}
	})
	t.Run("64 clients", func(t *testing.T) {
		const clients, rounds = 64, 200
		s := newScheduler(t, Config{BatchSize: clients, Shards: []system.Config{{Net: topology.Omega(64)}}})
		run := func(rounds int) {
			start := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < rounds; i++ {
						roundTrip(t, s, c)
					}
				}()
			}
			close(start)
			wg.Wait()
		}
		run(1) // the planner's first solve builds its arena and routing table
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before, cyclesBefore := ms.Mallocs, s.Stats().Cycles
		run(rounds)
		runtime.ReadMemStats(&ms)
		st := s.Stats()
		mean := float64(ms.Mallocs-before) / (clients * rounds)
		cycles := float64(st.Cycles - cyclesBefore)
		perTask := mean - cycleAllocs*cycles/(clients*rounds)
		t.Logf("%.2f allocations per round trip over %d round trips, %.2f per task without the share of %.0f cycles (%.1f tasks per epoch)",
			mean, clients*rounds, perTask, cycles, float64(st.Serviced)/float64(st.Epochs))
		if perTask > roundTripAllocsPerTask {
			t.Fatalf("a batched round trip allocates %.2f objects per task beyond its cycles' share, bound %d", perTask, roundTripAllocsPerTask)
		}
	})
}
