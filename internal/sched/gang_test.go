package sched

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsin/internal/system"
	"rsin/internal/topology"
)

// gangSpec builds a gang of k single-unit members on processors 0..k-1.
func gangSpec(k int) GangSpec {
	spec := GangSpec{Members: make([]system.Task, k)}
	for i := range spec.Members {
		spec.Members[i] = system.Task{Proc: i}
	}
	return spec
}

// TestGangLifecycle is the happy path: a gang is granted all-or-nothing,
// its members hold distinct resources, EndGang releases everything, and
// the terminal accounting counts the gang member-wise (k into Submitted,
// k into Serviced) plus the gang-level counters.
func TestGangLifecycle(t *testing.T) {
	net := topology.Omega(8)
	s := newScheduler(t, Config{Shards: []system.Config{{Net: net}}})
	spec := GangSpec{Members: []system.Task{
		{Proc: 0, Need: 2},
		{Proc: 3},
		{Proc: 5},
	}}
	gh, err := s.SubmitGang(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gh.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("gang never provisioned")
	}
	if gh.Err() != nil {
		t.Fatal(gh.Err())
	}
	res := gh.Resources()
	if len(res) != 3 || len(res[0]) != 2 || len(res[1]) != 1 || len(res[2]) != 1 {
		t.Fatalf("gang resources %v, want [2 1 1] units", res)
	}
	seen := map[int]bool{}
	for _, member := range res {
		for _, r := range member {
			if seen[r] {
				t.Fatalf("resource %d granted to two gang members: %v", r, res)
			}
			seen[r] = true
		}
	}
	if st := s.Stats(); st.Free != net.Ress-4 {
		t.Fatalf("Free = %d with the gang holding 4, want %d", st.Free, net.Ress-4)
	}
	if err := s.EndGang(gh); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Free != net.Ress {
		t.Fatalf("Free = %d after EndGang, want %d", st.Free, net.Ress)
	}
	if st.Submitted != 3 || st.Serviced != 3 || st.Canceled != 0 || st.Failed != 0 {
		t.Fatalf("member accounting %+v, want 3 submitted / 3 serviced", st)
	}
	if st.GangsSubmitted != 1 || st.GangsActivated != 1 || st.GangsServiced != 1 {
		t.Fatalf("gang accounting %+v, want 1/1/1 submitted/activated/serviced", st)
	}
	if err := s.EndGang(gh); err == nil {
		t.Fatal("double EndGang accepted")
	}
}

// TestGangValidation tables the fail-fast surface of SubmitGang: every
// rejection happens before the gang consumes a batch slot or an ID.
func TestGangValidation(t *testing.T) {
	s := newScheduler(t, Config{Shards: []system.Config{{Net: topology.Omega(8)}}})
	cases := []struct {
		name string
		spec GangSpec
	}{
		{"too few members", GangSpec{Members: []system.Task{{Proc: 0}}}},
		{"duplicate processors", GangSpec{Members: []system.Task{{Proc: 2}, {Proc: 2}}}},
		{"processor off the fabric", GangSpec{Members: []system.Task{{Proc: 0}, {Proc: 8}}}},
		{"bad tier", GangSpec{Members: []system.Task{{Proc: 0}, {Proc: 1, Tier: 99}}}},
		{"combined demand over capacity", GangSpec{Members: []system.Task{
			{Proc: 0, Need: 5}, {Proc: 1, Need: 4},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.SubmitGang(0, tc.spec); err == nil {
				t.Fatal("accepted")
			}
		})
	}
	if _, err := s.SubmitGang(1, gangSpec(2)); err == nil {
		t.Fatal("bad shard accepted")
	}
	if st := s.Stats(); st.Submitted != 0 || st.GangsSubmitted != 0 {
		t.Fatalf("rejected gangs leaked into accounting: %+v", st)
	}
}

// TestGangCtxCancel pins whole-gang withdrawal: a gang stuck behind
// blockers is canceled atomically when its context dies — every member
// counts canceled, nothing stays held, no partial state survives.
func TestGangCtxCancel(t *testing.T) {
	net := topology.Omega(4)
	s := newScheduler(t, Config{Shards: []system.Config{{Net: net}}})
	// Blockers pin 3 of 4 units so a 2-member gang (need 2) can never
	// activate and sits gated.
	var blockers []*Handle
	for p := 0; p < 3; p++ {
		b, err := s.Submit(0, system.Task{Proc: p})
		if err != nil {
			t.Fatal(err)
		}
		<-b.Done()
		if b.Err() != nil {
			t.Fatal(b.Err())
		}
		blockers = append(blockers, b)
	}
	ctx, cancel := context.WithCancel(context.Background())
	gh, err := s.SubmitGangCtx(ctx, 0, GangSpec{Members: []system.Task{{Proc: 3}, {Proc: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-gh.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("canceled gang never finished")
	}
	if !errors.Is(gh.Err(), ErrTaskCanceled) {
		t.Fatalf("gang error %v, want ErrTaskCanceled", gh.Err())
	}
	st := s.Stats()
	if st.Canceled != 2 || st.GangsCanceled != 1 {
		t.Fatalf("cancel accounting %+v, want 2 members / 1 gang", st)
	}
	for _, b := range blockers {
		if err := s.EndService(b); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Free != net.Ress {
		t.Fatalf("Free = %d after cancel+drain, want %d", st.Free, net.Ress)
	}
}

// TestGangActivationGate pins the banker's side of the atomic grant: a
// gang submitted into an unsafe allocation (two wedged multi-unit
// holders whose completions cannot be ordered) stays gated — zero
// activations, zero member grants — until the wedge clears, and then
// completes. Stepped, the gated epochs are exact: the gang's own epoch and
// the wedge's cancel both leave it waiting; the epoch that completes the
// survivor's grant is the last it waits.
func TestGangActivationGate(t *testing.T) {
	net := topology.Omega(4)
	st := newStepper(t, Config{Shards: []system.Config{{Net: net}}})
	// Two Need=3 singletons under the default greedy policy split the 4
	// units 2/2 and wedge in hold-and-wait: each holds 2, needs 1 more,
	// free is 0 and neither can ever finish. This is the canonical unsafe
	// state the banker must refuse to promise a completion order in. The
	// split needs both to be acquiring when the units come free (alone, the
	// first would take 3), so a four-member gang holds every unit while
	// they queue up and hands all four back in one release.
	filler, err := st.gang(system.Task{Proc: 0}, system.Task{Proc: 1}, system.Task{Proc: 2}, system.Task{Proc: 3})
	if err != nil {
		t.Fatal(err)
	}
	st.step()
	if !fired(&filler.job) || filler.Err() != nil {
		t.Fatalf("filler gang not provisioned: %v", filler.Err())
	}
	x, _ := st.submit(system.Task{Proc: 0, Need: 3})
	y, _ := st.submit(system.Task{Proc: 1, Need: 3})
	st.step()
	if s := st.s.Stats(); s.Submitted != 6 {
		t.Fatalf("the singletons were not admitted: %+v", s)
	}
	if err := st.release(&filler.job); err != nil {
		t.Fatal(err)
	}
	if s := st.s.Stats(); s.Free != 0 || fired(&x.job) || fired(&y.job) {
		t.Fatalf("singletons never wedged: %+v", s)
	}
	activated := st.s.Stats().GangsActivated // the filler's
	gh, err := st.gang(system.Task{Proc: 2}, system.Task{Proc: 3})
	if err != nil {
		t.Fatal(err)
	}
	// No completion order exists while the wedge stands: the gang must not
	// activate, let alone acquire, in its own epoch or any other.
	st.step()
	if fired(&gh.job) {
		t.Fatalf("gang completed inside an unsafe allocation: %v", gh.Err())
	}
	if s := st.s.Stats(); s.GangsActivated != activated {
		t.Fatalf("GangsActivated rose by %d inside the wedge, want 0", s.GangsActivated-activated)
	}
	// Withdrawing one wedged holder returns its units; the other finishes in
	// the same epoch, and the allocation is safe again.
	st.cancel(&x.job)
	st.step()
	if !errors.Is(x.Err(), ErrTaskCanceled) {
		t.Fatalf("canceled singleton: %v", x.Err())
	}
	if !fired(&y.job) || y.Err() != nil {
		t.Fatalf("surviving singleton not provisioned in the cancel's epoch: %v", y.Err())
	}
	if fired(&gh.job) {
		t.Fatal("gang provisioned while y held three of the four units")
	}
	// y's release lets the gated gang through in the release's epoch.
	if err := st.release(&y.job); err != nil {
		t.Fatal(err)
	}
	if !fired(&gh.job) || gh.Err() != nil {
		t.Fatalf("gang not provisioned in the epoch that made the allocation safe: %v", gh.Err())
	}
	if s := st.s.Stats(); s.GangsActivated != activated+1 {
		t.Fatalf("GangsActivated rose by %d, want 1", s.GangsActivated-activated)
	}
	if err := st.release(&gh.job); err != nil {
		t.Fatal(err)
	}
	if s := st.s.Stats(); s.Free != net.Ress {
		t.Fatalf("Free = %d, want %d", s.Free, net.Ress)
	}
}

// TestGangSeverExactlyOnce is the sever-mid-gang regression: a fault that
// costs an acquiring gang a unit resets the whole gang exactly once (one
// budget charge, one gang reset), and a gang pushed past SeverRetries is
// canceled exactly once — its handle fails once, its members count failed
// once, and no member leaves partial state behind.
func TestGangSeverExactlyOnce(t *testing.T) {
	net := topology.Omega(8)
	st := newStepper(t, Config{
		Shards:       []system.Config{{Net: net}},
		SeverRetries: 1,
	})
	// Five blockers pin five units, leaving three free. The gang needs
	// 2+2=4: activation is banker-safe (the blockers' eventual releases
	// cover it), but the gang can only ever hold three of its four units
	// while the blockers stand — a permanently mid-acquisition gang, the
	// exact state atomic sever targets. Each fail+repair batch against the
	// three free units is one correlated event: however many units the
	// gang loses to it, the budget is charged once, and the gang takes the
	// three back in the repair's epoch.
	var blockers []*Handle
	taken := map[int]bool{}
	for p := 2; p < 7; p++ {
		b := st.provision(system.Task{Proc: p})
		taken[b.Resources()[0]] = true
		blockers = append(blockers, b)
	}
	var free []int
	for r := 0; r < net.Ress; r++ {
		if !taken[r] {
			free = append(free, r)
		}
	}
	gh, err := st.gang(system.Task{Proc: 0, Need: 2}, system.Task{Proc: 1, Need: 2})
	if err != nil {
		t.Fatal(err)
	}
	st.step()
	for event := 1; event <= 2; event++ {
		if fired(&gh.job) {
			t.Fatalf("gang resolved after %d sever events, budget 1: %v", event-1, gh.Err())
		}
		if err := st.fault(faultBatch(free, false)...); err != nil {
			t.Fatal(err)
		}
		if err := st.fault(faultBatch(free, true)...); err != nil {
			t.Fatal(err)
		}
	}
	if !fired(&gh.job) || !errors.Is(gh.Err(), system.ErrCircuitSevered) {
		t.Fatalf("gang error %v, want ErrCircuitSevered on the second event", gh.Err())
	}
	s := st.s.Stats()
	if s.GangsFailed != 1 {
		t.Fatalf("GangsFailed = %d, want exactly 1", s.GangsFailed)
	}
	if s.Failed != 2 {
		t.Fatalf("Failed = %d, want exactly 2 (each member once)", s.Failed)
	}
	if s.GangSevers != 2 {
		t.Fatalf("GangSevers = %d, want exactly 2 (one per event, budget 1 exceeded on the second)", s.GangSevers)
	}
	for _, b := range blockers {
		if err := st.release(&b.job); err != nil {
			t.Fatal(err)
		}
	}
	s = st.s.Stats()
	if s.Submitted != s.Serviced+s.Canceled+s.Failed {
		t.Fatalf("accounting identity broken: %+v", s)
	}
	if s.Free != net.Ress || s.Usable != net.Ress {
		t.Fatalf("fabric not restored after gang failure: %+v", s)
	}
}

// TestGangChaosStress is the tentpole acceptance test, run under -race:
// 64 clients submit gangs and singletons against one Benes(16) shard
// while chaos interleaves fail/repair batches. Invariants: the terminal
// identity Submitted == Serviced+Canceled+Failed holds member-wise, no
// resource is double-granted, and a client NEVER observes a partial
// grant — a gang handle that closes clean holds every member's full set.
func TestGangChaosStress(t *testing.T) {
	const clients = 64
	gangsPer := 40
	if testing.Short() {
		gangsPer = 10
	}
	net := topology.Benes(16)
	s := newScheduler(t, Config{
		Shards:    []system.Config{{Net: net, Avoidance: system.AvoidanceBankers}},
		BatchSize: 48,
	})

	stop := make(chan struct{})
	var chaosWg sync.WaitGroup
	chaosWg.Add(1)
	go func() {
		defer chaosWg.Done()
		rng := rand.New(rand.NewSource(11))
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
				if err := failOne(s, 0, system.FaultTargetLink, l); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
				if err := repairOne(s, 0, system.FaultTargetLink, l); err != nil {
					t.Error(err)
					return
				}
			}
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
	}()

	var holders [16]atomic.Int32
	var doubleGrant, partialGrant atomic.Bool
	var gangsOK, gangsSevered, gangsUnsat, singlesOK atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < gangsPer; i++ {
				if c%4 == 3 { // a quarter of the clients mix in singletons
					h, err := s.Submit(0, system.Task{Proc: c % net.Procs})
					if err != nil {
						if errors.Is(err, system.ErrUnsatisfiable) {
							continue
						}
						t.Errorf("client %d: submit: %v", c, err)
						return
					}
					<-h.Done()
					if err := h.Err(); err != nil {
						if errors.Is(err, system.ErrCircuitSevered) || errors.Is(err, system.ErrUnsatisfiable) {
							continue
						}
						t.Errorf("client %d: single: %v", c, err)
						return
					}
					singlesOK.Add(1)
					if err := s.EndService(h); err != nil {
						t.Errorf("client %d: end single: %v", c, err)
						return
					}
					continue
				}
				// Gangs use disjoint processor bands per client so member
				// processors never collide within one gang.
				k := 2 + rng.Intn(2) // 2 or 3 members
				base := rng.Intn(net.Procs - k)
				spec := GangSpec{Members: make([]system.Task, k)}
				for m := range spec.Members {
					spec.Members[m] = system.Task{Proc: base + m}
				}
				gh, err := s.SubmitGang(0, spec)
				if err != nil {
					if errors.Is(err, system.ErrUnsatisfiable) {
						gangsUnsat.Add(1)
						continue
					}
					t.Errorf("client %d: submit gang: %v", c, err)
					return
				}
				<-gh.Done()
				if err := gh.Err(); err != nil {
					switch {
					case errors.Is(err, system.ErrCircuitSevered):
						gangsSevered.Add(1)
					case errors.Is(err, system.ErrUnsatisfiable):
						gangsUnsat.Add(1)
					default:
						t.Errorf("client %d: gang: %v", c, err)
						return
					}
					continue
				}
				res := gh.Resources()
				if len(res) != k {
					partialGrant.Store(true)
				}
				for m, r := range res {
					if len(r) != 1 { // every member asked for one unit
						partialGrant.Store(true)
						t.Errorf("client %d: member %d granted %v, want 1 unit", c, m, r)
					}
					for _, u := range r {
						if holders[u].Add(1) != 1 {
							doubleGrant.Store(true)
						}
					}
				}
				for _, r := range res {
					for _, u := range r {
						holders[u].Add(-1)
					}
				}
				gangsOK.Add(1)
				if err := s.EndGang(gh); err != nil {
					t.Errorf("client %d: end gang: %v", c, err)
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
		t.Fatal("a gang handle closed clean with a partial grant")
	}
	st := s.Stats()
	if st.Submitted != st.Serviced+st.Canceled+st.Failed {
		t.Fatalf("terminal identity broken under gang chaos: %+v", st)
	}
	if st.GangsSubmitted != st.GangsServiced+st.GangsCanceled+st.GangsFailed {
		t.Fatalf("gang terminal identity broken: submitted %d != %d serviced + %d canceled + %d failed",
			st.GangsSubmitted, st.GangsServiced, st.GangsCanceled, st.GangsFailed)
	}
	if st.Usable != net.Ress || st.Free != net.Ress {
		t.Fatalf("healed fabric usable=%d free=%d, want %d", st.Usable, st.Free, net.Ress)
	}
	if gangsOK.Load() == 0 {
		t.Fatal("no gang completed under chaos")
	}
	if st.GangsActivated < st.GangsServiced {
		t.Fatalf("%d gangs serviced but only %d ever activated", st.GangsServiced, st.GangsActivated)
	}
	t.Logf("gangs ok=%d severed=%d unsat=%d singles ok=%d gang-severs=%d",
		gangsOK.Load(), gangsSevered.Load(), gangsUnsat.Load(), singlesOK.Load(), st.GangSevers)
}
