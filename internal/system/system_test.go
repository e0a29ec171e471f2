package system

import (
	"errors"
	"math/rand"
	"testing"

	"rsin/internal/topology"
)

func mustSubmit(t testing.TB, s *System, task Task) TaskID {
	t.Helper()
	id, err := s.Submit(task)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func cycle(t testing.TB, s *System) *CycleResult {
	t.Helper()
	r, err := s.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil net accepted")
	}
	net := topology.Omega(8)
	if _, err := New(Config{Net: net, Preferences: []int64{1}}); err == nil {
		t.Fatal("short preferences accepted")
	}
	if _, err := New(Config{Net: net, Types: []int{1}}); err == nil {
		t.Fatal("short types accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{Net: topology.Omega(8)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Task{Proc: 9}); err == nil {
		t.Fatal("bad processor accepted")
	}
	if _, err := s.Submit(Task{Proc: 0, Need: 99}); err == nil {
		t.Fatal("impossible need accepted")
	}
}

// TestSubmitEntitySum: SubmitEntity keeps the caller's summed demand for
// the entity's life, for the banker to charge and admission to test, so a
// sum that is not the members' is refused with ErrBadTask and leaves the
// System as it was. A sum smaller than the members' demand would leave the
// entity's ledger row overdrawn once its units are granted, and one that
// understates a demand no surviving resource set covers would queue work
// the fabric can never serve. After every row the right sum is admitted
// and the entity provisioned and released on the whole pool.
func TestSubmitEntitySum(t *testing.T) {
	gang := []Task{{Proc: 0, Need: 2}, {Proc: 1, Type: 0}}
	rows := []struct {
		name    string
		members []Task
		sum     Demand
		ok      bool
	}{
		{"one member, its own demand", []Task{{Proc: 0, Need: 3}}, Demand{{0, 3}}, true},
		{"one member, nil", []Task{{Proc: 0, Need: 3}}, nil, true},
		{"one member, short", []Task{{Proc: 0, Need: 3}}, Demand{{0, 1}}, false},
		{"one member, past the fabric", []Task{{Proc: 2, Need: 9}}, Demand{{0, 1}}, false},
		{"gang, summed", gang, Demand{{0, 3}}, true},
		{"gang, nil", gang, nil, false},
		{"gang, one member's", gang, Demand{{0, 2}}, false},
		{"gang, wrong type", gang, Demand{{1, 3}}, false},
		{"gang, split entry", gang, Demand{{0, 2}, {0, 1}}, false},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s, err := New(Config{Net: topology.Omega(8), Avoidance: AvoidanceBankers})
			if err != nil {
				t.Fatal(err)
			}
			ids, err := s.SubmitEntity(r.members, r.sum, nil)
			switch {
			case r.ok && err != nil:
				t.Fatalf("the members' own sum refused: %v", err)
			case !r.ok && !errors.Is(err, ErrBadTask):
				t.Fatalf("sum %v for %+v: err %v, want ErrBadTask", r.sum, r.members, err)
			case !r.ok:
				if len(ids) != 0 || s.Pending() != 0 {
					t.Fatalf("a refused sum left %d tasks pending (ids %v)", s.Pending(), ids)
				}
				if r.members[0].Need > s.net.Ress {
					return
				}
				if ids, err = s.SubmitEntity(r.members, GangDemand(r.members), nil); err != nil {
					t.Fatalf("the members' own sum after a refusal: %v", err)
				}
			}
			gid := GangID(ids[0])
			for i := 0; !s.GangProvisioned(gid); i++ {
				if i == 10 {
					t.Fatal("the entity was never provisioned")
				}
				for _, a := range cycle(t, s).Mapping.Assigned {
					if err := s.EndTransmission(a.Req.Proc); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.EndGangService(gid); err != nil {
				t.Fatal(err)
			}
			if s.FreeResources() != 8 || s.Pending() != 0 || !s.Quiescent() {
				t.Fatalf("after the release: %d free, %d pending; want the pool whole", s.FreeResources(), s.Pending())
			}
		})
	}
}

// TestSingleTaskLifecycle drives one task through submit -> cycle ->
// end-transmission -> end-service.
func TestSingleTaskLifecycle(t *testing.T) {
	s, err := New(Config{Net: topology.Omega(8)})
	if err != nil {
		t.Fatal(err)
	}
	id := mustSubmit(t, s, Task{Proc: 3})
	r := cycle(t, s)
	if r.Granted != 1 {
		t.Fatalf("granted %d", r.Granted)
	}
	if got := s.Holding(id); len(got) != 1 {
		t.Fatalf("holding %v", got)
	}
	// Premature service must fail (still transmitting).
	if err := s.EndService(id); err == nil {
		t.Fatal("EndService during transmission accepted")
	}
	if err := s.EndTransmission(3); err != nil {
		t.Fatal(err)
	}
	if err := s.EndTransmission(3); err == nil {
		t.Fatal("double EndTransmission accepted")
	}
	if err := s.EndService(id); err != nil {
		t.Fatal(err)
	}
	if err := s.EndService(id); err == nil {
		t.Fatal("double EndService accepted")
	}
	if s.FreeResources() != 8 || s.Pending() != 0 {
		t.Fatalf("final state: free=%d pending=%d", s.FreeResources(), s.Pending())
	}
}

// TestQueueingPerProcessor: the second task on a processor waits for the
// first to finish acquiring.
func TestQueueingPerProcessor(t *testing.T) {
	s, _ := New(Config{Net: topology.Omega(8)})
	a := mustSubmit(t, s, Task{Proc: 0})
	b := mustSubmit(t, s, Task{Proc: 0})
	cycle(t, s)
	if len(s.Holding(a)) != 1 || len(s.Holding(b)) != 0 {
		t.Fatal("wrong task served first")
	}
	// b cannot be served until a's transmission completes and leaves the
	// queue head.
	r := cycle(t, s)
	if r.Granted != 0 {
		t.Fatal("granted while processor busy")
	}
	if err := s.EndTransmission(0); err != nil {
		t.Fatal(err)
	}
	cycle(t, s)
	if len(s.Holding(b)) != 1 {
		t.Fatal("second task not served after port freed")
	}
}

// TestMultiResourceSequentialAcquisition: a Need=3 task acquires across
// three cycles, holding as it goes.
func TestMultiResourceSequentialAcquisition(t *testing.T) {
	s, _ := New(Config{Net: topology.Omega(8)})
	id := mustSubmit(t, s, Task{Proc: 2, Need: 3})
	for i := 1; i <= 3; i++ {
		r := cycle(t, s)
		if r.Granted != 1 {
			t.Fatalf("step %d: granted %d", i, r.Granted)
		}
		if err := s.EndTransmission(2); err != nil {
			t.Fatal(err)
		}
		if len(s.Holding(id)) != i {
			t.Fatalf("step %d: holding %v", i, s.Holding(id))
		}
	}
	if err := s.EndService(id); err != nil {
		t.Fatal(err)
	}
	if s.FreeResources() != 8 {
		t.Fatal("resources not released")
	}
}

// TestHoldAndWaitDeadlock reproduces the §II warning with the naive
// policy: two Need=2 tasks on a 2-resource system each grab one resource
// and starve.
func TestHoldAndWaitDeadlock(t *testing.T) {
	s, _ := New(Config{Net: topology.Crossbar(2, 2), Avoidance: AvoidanceNone})
	mustSubmit(t, s, Task{Proc: 0, Need: 2})
	mustSubmit(t, s, Task{Proc: 1, Need: 2})
	r := cycle(t, s)
	if r.Granted != 2 {
		t.Fatalf("granted %d, want both first acquisitions", r.Granted)
	}
	if s.Deadlocked() {
		t.Fatal("not deadlocked while transmissions in flight")
	}
	if err := s.EndTransmission(0); err != nil {
		t.Fatal(err)
	}
	if err := s.EndTransmission(1); err != nil {
		t.Fatal(err)
	}
	r = cycle(t, s)
	if r.Granted != 0 {
		t.Fatal("phantom grant")
	}
	if !s.Deadlocked() {
		t.Fatal("hold-and-wait deadlock not detected")
	}
}

// TestBankersAvoidsDeadlock: same scenario with banker's admission — one
// task is deferred, the other completes, then the deferred one runs.
func TestBankersAvoidsDeadlock(t *testing.T) {
	s, _ := New(Config{Net: topology.Crossbar(2, 2), Avoidance: AvoidanceBankers})
	a := mustSubmit(t, s, Task{Proc: 0, Need: 2})
	b := mustSubmit(t, s, Task{Proc: 1, Need: 2})
	r := cycle(t, s)
	if r.Granted != 1 || r.Deferred != 1 {
		t.Fatalf("granted %d deferred %d, want 1/1", r.Granted, r.Deferred)
	}
	// Drive whichever task got the grant to completion.
	first, second := a, b
	if len(s.Holding(b)) == 1 {
		first, second = b, a
	}
	fp := 0
	if first == b {
		fp = 1
	}
	if err := s.EndTransmission(fp); err != nil {
		t.Fatal(err)
	}
	r = cycle(t, s)
	if r.Granted != 1 {
		t.Fatalf("second acquisition blocked: %+v", r)
	}
	if err := s.EndTransmission(fp); err != nil {
		t.Fatal(err)
	}
	if err := s.EndService(first); err != nil {
		t.Fatal(err)
	}
	if s.Deadlocked() {
		t.Fatal("deadlock after completion")
	}
	// Now the deferred task proceeds.
	for len(s.Holding(second)) < 2 {
		r = cycle(t, s)
		if r.Granted == 0 {
			t.Fatalf("deferred task starved: holding %v", s.Holding(second))
		}
		sp := 0
		if second == b {
			sp = 1
		}
		if err := s.EndTransmission(sp); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.EndService(second); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 {
		t.Fatal("tasks left pending")
	}
}

// TestBankersStress: random multi-resource workloads under banker's
// admission never deadlock; with the naive policy the same load usually
// does on a tight system (checked statistically).
func TestBankersStress(t *testing.T) {
	run := func(av Avoidance, seed int64) (deadlocks int) {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 25; trial++ {
			raw, _ := New(Config{Net: topology.Crossbar(4, 4), Avoidance: av})
			s := audit(t, raw) // the ledger differential rides every operation
			var ids []TaskID
			for p := 0; p < 4; p++ {
				ids = append(ids, func() TaskID {
					id, err := s.Submit(Task{Proc: p, Need: 1 + rng.Intn(3)})
					if err != nil {
						panic(err)
					}
					return id
				}())
			}
			_ = ids
			// Drive until quiescent or deadlocked: cycles, transmissions,
			// and services in random order.
			for step := 0; step < 400; step++ {
				if s.Pending() == 0 {
					break
				}
				if s.Deadlocked() {
					deadlocks++
					break
				}
				if _, err := s.Cycle(); err != nil {
					t.Fatal(err)
				}
				for p := 0; p < 4; p++ {
					if rng.Float64() < 0.8 {
						_ = s.EndTransmission(p) // error = not transmitting; fine
					}
				}
				// Service any fully-provisioned, non-transmitting task.
				for st := range s.tasks() {
					if id := st.id; st.remaining() == 0 && s.transmitting[st.task.Proc] != id {
						if rng.Float64() < 0.7 {
							if err := s.EndService(id); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
		return deadlocks
	}
	if d := run(AvoidanceBankers, 7); d != 0 {
		t.Fatalf("banker's deadlocked %d times", d)
	}
	if d := run(AvoidanceNone, 7); d == 0 {
		t.Log("naive policy never deadlocked on this seed (load too light to force it)")
	}
}

// TestDisciplines: each discipline drives a simple homogeneous cycle.
func TestDisciplines(t *testing.T) {
	for _, d := range []Discipline{MaxFlow, MinCost, Hetero, TokenArch} {
		s, err := New(Config{Net: topology.Omega(8), Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		mustSubmit(t, s, Task{Proc: 1})
		mustSubmit(t, s, Task{Proc: 5})
		r := cycle(t, s)
		if r.Granted != 2 {
			t.Fatalf("discipline %d: granted %d", d, r.Granted)
		}
		if d == TokenArch && r.Clocks == 0 {
			t.Fatal("token discipline reported no clocks")
		}
	}
	if _, err := New(Config{Net: topology.Omega(8), Discipline: Discipline(42)}); err == nil {
		t.Fatal("unknown discipline accepted")
	}
}

// TestTypedSystem: typed resources route typed tasks under the Hetero
// discipline.
func TestTypedSystem(t *testing.T) {
	types := []int{0, 0, 1, 1, 0, 0, 1, 1}
	s, err := New(Config{Net: topology.Omega(8), Discipline: Hetero, Types: types})
	if err != nil {
		t.Fatal(err)
	}
	id := mustSubmit(t, s, Task{Proc: 2, Type: 1})
	r := cycle(t, s)
	if r.Granted != 1 {
		t.Fatalf("granted %d", r.Granted)
	}
	held := s.Holding(id)
	if types[held[0]] != 1 {
		t.Fatalf("task of type 1 got resource %d of type %d", held[0], types[held[0]])
	}
}
