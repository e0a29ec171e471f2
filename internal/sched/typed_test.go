package sched

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsin/internal/system"
	"rsin/internal/topology"
)

// typedShard builds a Hetero shard config over net with the given
// per-resource type vector.
func typedShard(net *topology.Network, types []int) system.Config {
	return system.Config{
		Net:        net,
		Discipline: system.Hetero,
		Types:      types,
		Avoidance:  system.AvoidanceBankers,
	}
}

// TestTypedTaskLifecycle drives a typed-needs task end to end through the
// service: the grant must cover the vector exactly, type by type, and the
// epoch that served it must be a certified multicommodity fast path.
func TestTypedTaskLifecycle(t *testing.T) {
	net := topology.Omega(8)
	types := []int{0, 0, 1, 1, 0, 0, 1, 1}
	s := newScheduler(t, Config{Shards: []system.Config{typedShard(net, types)}})
	h, err := s.Submit(0, system.Task{Proc: 2, Needs: map[int]int{0: 1, 1: 2}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, "typed task")
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	got := map[int]int{}
	for _, r := range h.Resources() {
		got[types[r]]++
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("granted per type %v, want {0:1, 1:2}", got)
	}
	if err := s.EndService(h); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Submitted != 1 || st.Granted != 3 || st.Serviced != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.MultiFastPath == 0 {
		t.Fatalf("no certified multicommodity epoch recorded: %+v", st)
	}
	if st.MultiGapUnits != 0 {
		t.Fatalf("restricted topology reported a gap: %+v", st)
	}
}

// TestTypedSubmitAdmission: typed vectors are validated before shard
// dispatch (ErrBadTask) and checked per type against the configured and
// surviving stock (ErrUnsatisfiable).
func TestTypedSubmitAdmission(t *testing.T) {
	net := topology.Omega(8)
	types := []int{0, 0, 1, 1, 0, 0, 1, 1}
	s := newScheduler(t, Config{Shards: []system.Config{typedShard(net, types)}})

	if _, err := s.Submit(0, system.Task{Proc: 0, Need: 1, Needs: map[int]int{0: 1}}); !errors.Is(err, system.ErrBadTask) {
		t.Fatalf("mixed scalar+typed: %v, want ErrBadTask", err)
	}
	if _, err := s.Submit(0, system.Task{Proc: 0, Needs: map[int]int{0: 0}}); !errors.Is(err, system.ErrBadTask) {
		t.Fatalf("zero count: %v, want ErrBadTask", err)
	}
	if _, err := s.Submit(0, system.Task{Proc: 0, Needs: map[int]int{7: 1}}); !errors.Is(err, system.ErrUnsatisfiable) {
		t.Fatalf("unstocked type: %v, want ErrUnsatisfiable", err)
	}
	if _, err := s.Submit(0, system.Task{Proc: 0, Needs: map[int]int{1: 5}}); !errors.Is(err, system.ErrUnsatisfiable) {
		t.Fatalf("over census: %v, want ErrUnsatisfiable", err)
	}
	// A gang short on one type is refused naming that type, what it needs
	// of it and what the census holds (it used to print demand and census
	// totals, 5 of 8 here, which explain nothing).
	_, err := s.SubmitGang(0, GangSpec{Members: []system.Task{
		{Proc: 0, Needs: map[int]int{1: 3}}, {Proc: 1, Needs: map[int]int{1: 2}},
	}})
	if !errors.Is(err, system.ErrUnsatisfiable) || !strings.Contains(err.Error(), "5 resources of type 1") ||
		!strings.Contains(err.Error(), "has 4 usable") {
		t.Fatalf("gang over one type's census: %v, want ErrUnsatisfiable naming type 1, need 5, have 4", err)
	}
	// Degrade type 1 to three usable units: a {1:4} vector must now be
	// rejected while {1:3} is still admitted.
	if err := s.FailResource(0, 2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.Submit(0, system.Task{Proc: 0, Needs: map[int]int{1: 4}}); errors.Is(err, system.ErrUnsatisfiable) {
			break
		} else if err == nil {
			t.Fatal("degraded type-1 demand admitted")
		}
		if time.Now().After(deadline) {
			t.Fatal("degraded census never published")
		}
		time.Sleep(time.Millisecond)
	}
	h, err := s.Submit(0, system.Task{Proc: 0, Needs: map[int]int{1: 3}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, "degraded-but-satisfiable typed task")
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	if err := s.EndService(h); err != nil {
		t.Fatal(err)
	}
}

// TestScalarTypeOnUntypedShard is the wedge regression at the service
// layer: on a shard without configured types the scalar {Type: 5} is the
// vector {5: 1} and must be refused the same way, for tasks and gang
// members. It used to be admitted; with a gang live (which switches an
// AvoidanceNone shard to banker's grants) it was then deferred on every
// cycle forever, and the task queued behind it never ran.
func TestScalarTypeOnUntypedShard(t *testing.T) {
	s := newScheduler(t, Config{Shards: []system.Config{{
		Net: topology.Omega(8), Avoidance: system.AvoidanceNone,
	}}})
	live, err := s.SubmitGang(0, GangSpec{Members: []system.Task{{Proc: 6}, {Proc: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, live, "the live gang")
	if live.Err() != nil {
		t.Fatal(live.Err())
	}
	if _, err := s.Submit(0, system.Task{Proc: 0, Type: 5}); !errors.Is(err, system.ErrUnsatisfiable) {
		t.Fatalf("scalar type 5 on an untyped shard: %v, want ErrUnsatisfiable", err)
	}
	spec := GangSpec{Members: []system.Task{{Proc: 1, Type: 5}, {Proc: 2}}}
	if _, err := s.SubmitGang(0, spec); !errors.Is(err, system.ErrUnsatisfiable) {
		t.Fatalf("gang with a scalar type-5 member: %v, want ErrUnsatisfiable", err)
	}
	if _, err := s.Submit(0, system.Task{Proc: 0, Type: -1}); !errors.Is(err, system.ErrBadTask) {
		t.Fatalf("negative scalar type: %v, want ErrBadTask", err)
	}
	h, err := s.Submit(0, system.Task{Proc: 0})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, "the task queued behind the refused one")
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	if err := s.EndService(h); err != nil {
		t.Fatal(err)
	}
	if err := s.EndGang(live); err != nil {
		t.Fatal(err)
	}
}

// TestTypedQueuedTaskFailsWhenCapacityDrops: a typed task admitted on the
// healthy fabric but still acquiring is retroactively failed with
// ErrUnsatisfiable when a fault strands one of its commodities — even
// while the other commodities remain satisfiable.
func TestTypedQueuedTaskFailsWhenCapacityDrops(t *testing.T) {
	net := topology.Omega(4)
	types := []int{0, 0, 0, 1} // one unit of type 1 total
	s := newScheduler(t, Config{
		Shards: []system.Config{typedShard(net, types)},
	})
	// A blocker holds the only type-1 unit so the typed task stays queued.
	blocker, err := s.Submit(0, system.Task{Proc: 1, Needs: map[int]int{1: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, blocker, "type-1 blocker")
	if blocker.Err() != nil {
		t.Fatal(blocker.Err())
	}
	h, err := s.Submit(0, system.Task{Proc: 0, Needs: map[int]int{0: 1, 1: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// {0:1, 1:1} is admissible while healthy; losing the type-1 unit
	// strands that commodity and must fail the waiting handle, even though
	// three type-0 units survive.
	if err := s.FailResource(0, 3); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("typed queued task not failed by per-type capacity drop")
	}
	if !errors.Is(h.Err(), system.ErrUnsatisfiable) {
		t.Fatalf("handle error %v, want ErrUnsatisfiable", h.Err())
	}
	if err := s.EndService(blocker); err != nil {
		t.Fatal(err)
	}
}

// TestTypedChaosStress: 64 clients drive mixed typed-vector and legacy
// scalar tasks through a Hetero shard while a chaos goroutine fails and
// heals resources and links. Invariants: a handle that closes clean holds
// exactly its declared vector (no partial typed grants), no resource has
// two live holders, the recorded multicommodity gap stays within one unit
// per greedy epoch, and at quiescence the terminal identity
// Submitted == Serviced + Canceled + Failed holds exactly.
func TestTypedChaosStress(t *testing.T) {
	const clients = 64
	tasksPer := 30
	if testing.Short() {
		tasksPer = 8
	}
	net := topology.Benes(16)
	types := make([]int, net.Ress)
	for r := range types {
		types[r] = r % 3
	}
	s := newScheduler(t, Config{
		Shards:    []system.Config{typedShard(net, types)},
		BatchSize: 48,
	})

	stop := make(chan struct{})
	var chaosWg sync.WaitGroup
	chaosWg.Add(1)
	go func() {
		defer chaosWg.Done()
		rng := rand.New(rand.NewSource(13))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rng.Intn(2) == 0 { // correlated resource event: fail a pair, heal it
				a, b := rng.Intn(net.Ress), rng.Intn(net.Ress)
				fail := []system.FaultOp{
					{Target: system.FaultTargetResource, Index: a},
					{Target: system.FaultTargetResource, Index: b},
				}
				if a == b {
					fail = fail[:1]
				}
				if err := s.ApplyFaults(0, fail); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
				for i := range fail {
					fail[i].Repair = true
				}
				if err := s.ApplyFaults(0, fail); err != nil {
					t.Error(err)
					return
				}
			} else { // link fail→heal
				l := rng.Intn(len(net.Links))
				if err := s.FailLink(0, l); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
				if err := s.RepairLink(0, l); err != nil {
					t.Error(err)
					return
				}
			}
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
	}()

	holders := make([]atomic.Int32, net.Ress)
	var doubleGrant, partialGrant atomic.Bool
	var typedOK, scalarOK, unsat, severed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + c)))
			for i := 0; i < tasksPer; i++ {
				var task system.Task
				typed := c%4 != 3 // a quarter of the clients stay on legacy scalar tasks
				if typed {
					task = system.Task{Proc: c % net.Procs, Needs: map[int]int{}}
					for ty := 0; ty < 3; ty++ {
						if rng.Intn(2) == 0 {
							task.Needs[ty] = 1 + rng.Intn(2)
						}
					}
					if len(task.Needs) == 0 {
						task.Needs[rng.Intn(3)] = 1
					}
				} else {
					task = system.Task{Proc: c % net.Procs, Need: 1 + rng.Intn(2), Type: rng.Intn(3)}
				}
				h, err := s.Submit(0, task)
				if err != nil {
					if errors.Is(err, system.ErrUnsatisfiable) {
						unsat.Add(1)
						continue
					}
					t.Errorf("client %d: submit: %v", c, err)
					return
				}
				<-h.Done()
				if err := h.Err(); err != nil {
					switch {
					case errors.Is(err, system.ErrCircuitSevered):
						severed.Add(1)
					case errors.Is(err, system.ErrUnsatisfiable):
						unsat.Add(1)
					default:
						t.Errorf("client %d: task: %v", c, err)
						return
					}
					continue
				}
				res := h.Resources()
				got := map[int]int{}
				for _, r := range res {
					got[types[r]]++
					if holders[r].Add(1) != 1 {
						doubleGrant.Store(true)
					}
				}
				if typed {
					if len(got) != len(task.Needs) {
						partialGrant.Store(true)
					}
					for ty, n := range task.Needs {
						if got[ty] != n {
							partialGrant.Store(true)
							t.Errorf("client %d: granted %v for vector %v", c, got, task.Needs)
						}
					}
					typedOK.Add(1)
				} else {
					if len(res) != task.Need || got[task.Type] != task.Need {
						partialGrant.Store(true)
						t.Errorf("client %d: granted %v for scalar need %d type %d", c, got, task.Need, task.Type)
					}
					scalarOK.Add(1)
				}
				for _, r := range res {
					holders[r].Add(-1)
				}
				if err := s.EndService(h); err != nil {
					t.Errorf("client %d: end: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	chaosWg.Wait()

	if doubleGrant.Load() {
		t.Fatal("a resource was granted to two live holders")
	}
	if partialGrant.Load() {
		t.Fatal("a handle closed clean with a partial typed grant")
	}
	st := s.Stats()
	if st.Submitted != st.Serviced+st.Canceled+st.Failed {
		t.Fatalf("terminal identity broken under typed chaos: %+v", st)
	}
	if st.Usable != net.Ress || st.Free != net.Ress {
		t.Fatalf("healed fabric usable=%d free=%d, want %d", st.Usable, st.Free, net.Ress)
	}
	if typedOK.Load() == 0 || scalarOK.Load() == 0 {
		t.Fatalf("mix did not complete: typed=%d scalar=%d", typedOK.Load(), scalarOK.Load())
	}
	if st.MultiFastPath == 0 {
		t.Fatalf("no certified multicommodity epoch under chaos: %+v", st)
	}
	// Certified epochs carry no gap by construction; only an epoch that
	// fell to the greedy decomposition may record one, and then one unit.
	if st.MultiGapUnits > st.MultiGreedy {
		t.Fatalf("%d gap units over %d greedy epochs, want at most one per greedy epoch", st.MultiGapUnits, st.MultiGreedy)
	}
	t.Logf("typed ok=%d scalar ok=%d unsat=%d severed=%d multi: fast=%d greedy=%d retries=%d gap=%d",
		typedOK.Load(), scalarOK.Load(), unsat.Load(), severed.Load(),
		st.MultiFastPath, st.MultiGreedy, st.MultiRetries, st.MultiGapUnits)
}

// TestTypedGangLifecycle pins typed gangs through the service: members
// carrying Needs vectors aggregate per type at admission (not as one
// default scalar unit — the Need=1 default must not touch typed members),
// the all-or-nothing grant covers every member's vector exactly, and a
// gang whose combined vector exceeds one type's census is rejected
// up front even when total capacity would fit it.
func TestTypedGangLifecycle(t *testing.T) {
	net := topology.Omega(8)
	types := []int{0, 0, 1, 1, 0, 0, 1, 1} // 4 of each type
	s := newScheduler(t, Config{Shards: []system.Config{typedShard(net, types)}})

	// Combined demand {0:1, 1:3} fits; per-member vectors must be exact.
	spec := GangSpec{Members: []system.Task{
		{Proc: 0, Needs: map[int]int{0: 1, 1: 1}},
		{Proc: 3, Needs: map[int]int{1: 2}},
	}}
	gh, err := s.SubmitGang(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gh.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("typed gang never provisioned")
	}
	if gh.Err() != nil {
		t.Fatal(gh.Err())
	}
	want := []map[int]int{{0: 1, 1: 1}, {1: 2}}
	for i, member := range gh.Resources() {
		got := map[int]int{}
		for _, r := range member {
			got[types[r]]++
		}
		for ty, n := range want[i] {
			if got[ty] != n {
				t.Fatalf("member %d granted per type %v, want %v", i, got, want[i])
			}
		}
	}
	if err := s.EndGang(gh); err != nil {
		t.Fatal(err)
	}

	// {1:3} + {1:2} = five type-1 units against a census of four: the
	// per-type degraded-admission gate must reject it synchronously, even
	// though the 8-unit fabric could cover the 5-unit total scalar-wise.
	_, err = s.SubmitGang(0, GangSpec{Members: []system.Task{
		{Proc: 0, Needs: map[int]int{1: 3}},
		{Proc: 3, Needs: map[int]int{1: 2}},
	}})
	if !errors.Is(err, system.ErrUnsatisfiable) {
		t.Fatalf("over-census typed gang error %v, want ErrUnsatisfiable", err)
	}
}
