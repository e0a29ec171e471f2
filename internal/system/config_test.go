package system_test

import (
	"testing"

	"rsin/internal/sched"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// TestNewRejectsContradictoryConfig: a configuration no solver serves is
// refused where the solver is chosen — by system.New, and so by sched.New
// before any epoch runs — instead of surfacing later as a
// wrong-type grant (a type-blind discipline on a typed fabric), as a shard
// that restarts on every epoch (an unknown discipline), or as tier
// exchanges no priced solve follows (Preempt off MinCost).
func TestNewRejectsContradictoryConfig(t *testing.T) {
	types := []int{0, 0, 0, 1}
	for _, tc := range []struct {
		name string
		cfg  system.Config
	}{
		{"unknown discipline", system.Config{Discipline: system.Discipline(9)}},
		{"Types with MinCost", system.Config{Discipline: system.MinCost, Types: types}},
		{"Types with TokenArch", system.Config{Discipline: system.TokenArch, Types: types}},
		{"Preempt with MaxFlow", system.Config{Discipline: system.MaxFlow, Preempt: true}},
		{"Preempt with Hetero", system.Config{Discipline: system.Hetero, Preempt: true}},
	} {
		tc.cfg.Net = topology.Omega(4)
		if _, err := system.New(tc.cfg); err == nil {
			t.Errorf("%s: system.New accepted it", tc.name)
		}
		if s, err := sched.New(sched.Config{Shards: []system.Config{tc.cfg}}); err == nil {
			s.Close()
			t.Errorf("%s: sched.New accepted it", tc.name)
		}
	}
	// The service's own Preempt reaches every shard's system.Config, so
	// system.New refuses it there too.
	for _, d := range []system.Discipline{system.MaxFlow, system.Hetero, system.TokenArch} {
		cfg := sched.Config{Preempt: true, Shards: []system.Config{{Net: topology.Omega(4), Discipline: system.MinCost}, {Net: topology.Omega(4), Discipline: d}}}
		if s, err := sched.New(cfg); err == nil {
			s.Close()
			t.Errorf("sched.New accepted Preempt with a shard on discipline %d", d)
		}
	}
}

// TestTypedFabricDefaultDisciplineGrantsByType: Types under the zero-value
// discipline resolves to the typed solver, so a task is granted only a
// resource of the type it asked for.
func TestTypedFabricDefaultDisciplineGrantsByType(t *testing.T) {
	s, err := system.New(system.Config{Net: topology.Omega(4), Types: []int{0, 0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(system.Task{Proc: 0, Type: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cycle(); err != nil {
		t.Fatal(err)
	}
	if held := s.Holding(id); len(held) != 1 || held[0] != 3 {
		t.Fatalf("a type-1 task holds %v, want [3], the only type-1 resource", held)
	}
}
