// The race detector's instrumentation allocates on its own schedule
// across the shard goroutines, which makes global malloc counting flaky;
// CI runs this guard in the plain (non-race) test job.
//go:build !race

package sched

import (
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
