package system

import (
	"testing"

	"rsin/internal/core"
	"rsin/internal/topology"
)

// BenchmarkSystemCycleNoopSolver measures what a cycle costs apart from
// its solve: hooks, the gang gate, the banker's admission and the assembly
// of reqs/avail, with 64 processors requesting on Omega-64. A fake
// installed through the solver seam grants nothing, so the state — and the
// work — is the same every iteration. Once on the untyped greedy path, once
// under the banker with an active gang among the requesters (the composite
// entity and the per-request safety scan).
func BenchmarkSystemCycleNoopSolver(b *testing.B) {
	for _, bc := range []struct {
		name   string
		banker bool
	}{{"untyped", false}, {"banker+gang", true}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{Net: topology.Omega(64)}
			if bc.banker {
				cfg.Avoidance = AvoidanceBankers
			}
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			requests, nothing := 0, &core.Mapping{}
			s.solve = func(reqs []core.Request, avail []core.Avail) (*core.Mapping, error) {
				requests = len(reqs)
				return nothing, nil
			}
			first := 0
			if bc.banker {
				if _, _, err := s.SubmitGang([]Task{{Proc: 0}, {Proc: 1}}); err != nil {
					b.Fatal(err)
				}
				first = 2
			}
			for p := first; p < 64; p++ {
				if _, err := s.Submit(Task{Proc: p}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Cycle(); err != nil {
					b.Fatal(err)
				}
			}
			if requests != 64 {
				b.Fatalf("the solver saw %d requests, want 64", requests)
			}
		})
	}
}
