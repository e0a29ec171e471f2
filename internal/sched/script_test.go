package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rsin/internal/bitset"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// script runs a deck of shard ops on a stepper, epoch by epoch, and holds
// the shard to its invariants after every epoch against a model of what the
// deck did. TestShardScript deals its decks from seeded generators,
// FuzzShardScript from the fuzzer's bytes. After every epoch:
//
//   - Submitted, Serviced, Canceled and Failed equal the model's counts of
//     the outcomes the epoch delivered, and Submitted == Serviced +
//     Canceled + Failed + (provisioned, not ended) + (still tracked);
//   - every Done that fired is a whole grant — each member's resources,
//     type by type, its demand, and what the System records it holding — or
//     a terminal the counters count; no resource is held by two live
//     handles;
//   - every sever charge is counted: Severed + Preempts is the charges
//     summed member-wise, GangSevers the gangs' charges;
//   - LinkFaults and Repairs equal the model's fabric transitions, the
//     fault epoch moved once per transition since the last restart, the
//     link words equal the model's recount (no circuit stands at an epoch
//     boundary), Repairs <= LinkFaults, and on a healed fabric Repairs plus
//     the faults restarts discarded equal LinkFaults;
//   - an epoch of refused fault batches alone moves nothing at its apply
//     phase but Epochs;
//   - Stats() equals the shard's running totals: deliver published them.
//
// trace records every outcome in order, so two runs of one deck compare.
type script struct {
	*stepper
	net   *topology.Network
	types []int // resource types; nil on an untyped shard
	trip  bool  // the shard's FaultHook fails the next Cycle

	jobs     []*scriptJob // the jobs not yet released or resolved
	released []*scriptJob // the last few released, for second releases
	sent     int
	trace    []string
	epoch    int

	// Sever charges of the jobs no longer in jobs: member-wise, and gangs'.
	charged, gangCharged int64

	submitted, serviced, canceled, failed, restarts int64

	broken                  map[system.FaultTarget][]bool
	faulted, repaired, lost int64  // fabric transitions; lost: faults a restart discarded
	sinceRestart, faultEp0  uint64 // transitions and fault epoch since the System was built
}

// A scriptJob's state: sent to the shard, tracked there, provisioned,
// released (or its release refused as lost), or resolved by an error.
const (
	jobSent = iota
	jobTracked
	jobGranted
	jobReleased
	jobResolved
)

type scriptJob struct {
	id      int // the deck's serial number
	j       *job
	members []system.Task
	state   int
	gen     int64 // restarts before its submit was applied
}

func newScript(t testing.TB, cfg Config) *script {
	sc := &script{net: cfg.Shards[0].Net, types: cfg.Shards[0].Types}
	cfg.Shards = slices.Clone(cfg.Shards)
	cfg.Shards[0].FaultHook = func(point string) error {
		if point == system.FaultCycle && sc.trip {
			sc.trip = false
			return errors.New("injected solver fault")
		}
		return nil
	}
	sc.stepper = newStepper(t, cfg)
	sc.broken = map[system.FaultTarget][]bool{
		system.FaultTargetLink:     make([]bool, len(sc.net.Links)),
		system.FaultTargetBox:      make([]bool, len(sc.net.Boxes)),
		system.FaultTargetResource: make([]bool, sc.net.Ress),
	}
	sc.faultEp0 = sc.sh.sys.FaultEpoch()
	return sc
}

func (sc *script) log(format string, args ...any) {
	sc.trace = append(sc.trace, fmt.Sprintf("e%d ", sc.epoch)+fmt.Sprintf(format, args...))
}

// submitJob queues a singleton (one member) or a gang.
func (sc *script) submitJob(members ...system.Task) {
	var j *job
	var err error
	if len(members) == 1 {
		var h *Handle
		if h, err = sc.submit(members[0]); h != nil {
			j = &h.job
		}
	} else {
		var h *GangHandle
		if h, err = sc.gang(members...); h != nil {
			j = &h.job
		}
	}
	if err != nil {
		sc.log("door refused %v: %v", members, err)
		return
	}
	sc.sent++
	sc.jobs = append(sc.jobs, &scriptJob{id: sc.sent, j: j, members: members, gen: sc.restarts})
}

// endJob queues a release of the pick-th provisioned job, the last few
// released included (a second release must be refused).
func (sc *script) endJob(pick int) {
	ended := slices.Clone(sc.released)
	for _, x := range sc.jobs {
		if x.state == jobGranted {
			ended = append(ended, x)
		}
	}
	if len(ended) > 0 {
		sc.end(ended[pick%len(ended)].j)
	}
}

// cancelJob queues a cancel of the pick-th most recent job the deck sent.
func (sc *script) cancelJob(pick int) {
	if n := len(sc.jobs); n > 0 {
		sc.cancel(sc.jobs[n-1-pick%n].j)
	}
}

// live counts the jobs in a state, and their members.
func (sc *script) live(state int) (jobs, members int) {
	for _, x := range sc.jobs {
		if x.state == state {
			jobs++
			members += len(x.members)
		}
	}
	return jobs, members
}

// run runs the queued ops as one epoch and checks the invariants. It runs
// the epoch's sequence phase by phase (the stepper's apply and cycle), not
// through step, so at each deliver the stepper also checks that the phase
// before it fired no Done and answered no fault batch.
func (sc *script) run() {
	t := sc.t
	sc.epoch++
	before, words, ep := sc.s.Stats(), sc.words(), sc.sh.sys.FaultEpoch()
	ops := sc.apply()
	refusedOnly := len(ops) > 0
	for _, o := range ops {
		refusedOnly = refusedOnly && o.kind == opFault && o.err != nil
	}
	if refusedOnly {
		got := sc.s.Stats()
		got.Epochs = before.Epochs
		if !reflect.DeepEqual(got, before) {
			t.Fatalf("epoch %d: refused batches moved Stats:\n%+v\nwas\n%+v", sc.epoch, got, before)
		}
		if !slices.Equal(sc.words(), words) || sc.sh.sys.FaultEpoch() != ep {
			t.Fatalf("epoch %d: refused batches moved the link words or the fault epoch", sc.epoch)
		}
	}
	for _, o := range ops {
		if o.kind == opFault {
			sc.applied(o)
		}
	}
	sc.cycle()
	if st := sc.s.Stats(); st.Restarts > sc.restarts {
		// The rebuilt System starts from the pristine fabric.
		for _, set := range sc.broken {
			for i, b := range set {
				if b {
					sc.lost++
					set[i] = false
				}
			}
		}
		sc.sinceRestart, sc.faultEp0 = 0, sc.sh.sys.FaultEpoch()
		sc.log("restart")
	}
	sc.settle(ops)
	sc.check()
}

// applied folds a fault batch's reply into the fabric model.
func (sc *script) applied(o op) {
	if o.err != nil {
		sc.log("batch %v refused: %v", o.faults, o.err)
		return
	}
	for _, f := range o.faults {
		switch set := sc.broken[f.Target]; {
		case f.Repair && set[f.Index]:
			set[f.Index] = false
			sc.repaired++
			sc.sinceRestart++
		case !f.Repair && !set[f.Index]:
			set[f.Index] = true
			sc.faulted++
			sc.sinceRestart++
		}
	}
}

// settle folds the epoch's delivered outcomes into the model: releases at
// the apply phase, then every Done that fired.
func (sc *script) settle(ops []op) {
	t := sc.t
	gen := sc.restarts // releases are applied before any restart of the epoch
	for _, x := range sc.jobs {
		if x.state == jobSent && len(x.j.ids) > 0 {
			x.state = jobTracked
			sc.submitted += int64(len(x.members))
		}
	}
	for _, o := range ops {
		if o.kind != opEnd {
			continue
		}
		x := sc.find(o.j)
		m := int64(len(x.members))
		switch {
		case x.state == jobReleased:
			if o.err == nil {
				t.Fatalf("epoch %d: a second release of job %d succeeded", sc.epoch, x.j.ids[0])
			}
		case x.gen != gen:
			if !errors.Is(o.err, ErrShardDown) {
				t.Fatalf("epoch %d: release of a grant lost to a restart: %v, want ErrShardDown", sc.epoch, o.err)
			}
			sc.failed += m
			x.state = jobReleased
		case o.err != nil:
			t.Fatalf("epoch %d: release of job %d: %v", sc.epoch, x.j.ids[0], o.err)
		default:
			sc.serviced += m
			x.state = jobReleased
		}
		sc.log("end %d: %v", x.j.ids[0], o.err)
	}
	sc.restarts = sc.s.Stats().Restarts
	for _, x := range sc.jobs {
		if x.state > jobTracked || !fired(x.j) {
			continue
		}
		m := int64(len(x.members))
		switch err := x.j.err; {
		case err == nil:
			sc.granted(x)
			x.state = jobGranted
			sc.log("job %d granted %v", x.id, x.j.res)
			continue
		case errors.Is(err, ErrTaskCanceled):
			sc.canceled += m
		case x.state == jobTracked:
			sc.failed += m
		}
		x.state = jobResolved
		sc.log("job %d: %v", x.id, x.j.err)
	}
	active := sc.jobs[:0]
	for _, x := range sc.jobs {
		switch x.state {
		case jobReleased:
			if sc.released = append(sc.released, x); len(sc.released) > 4 {
				sc.released = sc.released[1:]
			}
		case jobResolved:
		default:
			active = append(active, x)
			continue
		}
		sc.charged += int64(len(x.members) * x.j.severs)
		if len(x.members) > 1 {
			sc.gangCharged += int64(x.j.severs)
		}
	}
	clear(sc.jobs[len(active):])
	sc.jobs = active
}

func (sc *script) find(j *job) *scriptJob {
	for _, x := range slices.Concat(sc.jobs, sc.released) {
		if x.j == j {
			return x
		}
	}
	sc.t.Fatalf("epoch %d: an op names a job the deck never sent", sc.epoch)
	return nil
}

// granted checks a fired grant: one resource set per member, each its
// member's demand type by type and what the System records it holding.
func (sc *script) granted(x *scriptJob) {
	t := sc.t
	if len(x.j.res) != len(x.members) {
		t.Fatalf("epoch %d: grant of %d members records %d sets", sc.epoch, len(x.members), len(x.j.res))
	}
	for i, m := range x.members {
		got := map[int]int{}
		for _, r := range x.j.res[i] {
			got[sc.typeOf(r)]++
		}
		want := map[int]int{}
		for _, e := range m.AppendDemand(nil) {
			want[e.Type] = e.Count
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: member %+v granted %v: types %v, want %v", sc.epoch, m, x.j.res[i], got, want)
		}
		if held := sc.sh.sys.AppendHolding(nil, x.j.ids[i]); !slices.Equal(held, x.j.res[i]) {
			t.Fatalf("epoch %d: member %d granted %v, the System says it holds %v", sc.epoch, x.j.ids[i], x.j.res[i], held)
		}
	}
}

func (sc *script) typeOf(r int) int {
	if sc.types == nil {
		return 0
	}
	return sc.types[r]
}

// check holds the shard to the invariants after an epoch.
func (sc *script) check() {
	t := sc.t
	st := sc.s.Stats()
	if !reflect.DeepEqual(st, sc.sh.tot) {
		t.Fatalf("epoch %d: Stats %+v, the shard's totals %+v", sc.epoch, st, sc.sh.tot)
	}
	if st.Submitted != sc.submitted || st.Serviced != sc.serviced || st.Canceled != sc.canceled || st.Failed != sc.failed {
		t.Fatalf("epoch %d: Submitted/Serviced/Canceled/Failed %d/%d/%d/%d, the delivered outcomes %d/%d/%d/%d",
			sc.epoch, st.Submitted, st.Serviced, st.Canceled, st.Failed, sc.submitted, sc.serviced, sc.canceled, sc.failed)
	}
	_, held := sc.live(jobGranted)
	_, tracked := sc.live(jobTracked)
	if tracked != sc.sh.ntracked {
		t.Fatalf("epoch %d: the shard tracks %d members, the deck's unresolved jobs have %d", sc.epoch, sc.sh.ntracked, tracked)
	}
	if st.Submitted != st.Serviced+st.Canceled+st.Failed+int64(held+tracked) {
		t.Fatalf("epoch %d: terminal identity: %d submitted != %d serviced + %d canceled + %d failed + %d held + %d tracked",
			sc.epoch, st.Submitted, st.Serviced, st.Canceled, st.Failed, held, tracked)
	}
	holder := map[int]int{}
	charged, gangCharged := sc.charged, sc.gangCharged
	for _, x := range sc.jobs {
		charged += int64(len(x.members) * x.j.severs)
		if len(x.members) > 1 {
			gangCharged += int64(x.j.severs)
		}
		if x.state != jobGranted || x.gen != sc.restarts {
			continue
		}
		for _, set := range x.j.res {
			for _, r := range set {
				if k, ok := holder[r]; ok {
					t.Fatalf("epoch %d: resource %d held by jobs %d and %d", sc.epoch, r, k, x.id)
				}
				holder[r] = x.id
			}
		}
	}
	if st.Severed+st.Preempts != charged || st.GangSevers != gangCharged {
		t.Fatalf("epoch %d: Severed %d + Preempts %d, GangSevers %d; the sever charges %d member-wise, %d gang-wise",
			sc.epoch, st.Severed, st.Preempts, st.GangSevers, charged, gangCharged)
	}
	if st.LinkFaults != sc.faulted || st.Repairs != sc.repaired {
		t.Fatalf("epoch %d: LinkFaults %d, Repairs %d; the model's transitions %d, %d", sc.epoch, st.LinkFaults, st.Repairs, sc.faulted, sc.repaired)
	}
	if st.Repairs > st.LinkFaults {
		t.Fatalf("epoch %d: Repairs %d > LinkFaults %d", sc.epoch, st.Repairs, st.LinkFaults)
	}
	if moved := sc.sh.sys.FaultEpoch() - sc.faultEp0; moved != sc.sinceRestart {
		t.Fatalf("epoch %d: fault epoch moved %d, the model's transitions %d", sc.epoch, moved, sc.sinceRestart)
	}
	if got, want := sc.words(), sc.recount(); !slices.Equal(got, want) {
		t.Fatalf("epoch %d: link words %x, the model's recount %x", sc.epoch, got, want)
	}
	healed := true
	for _, set := range sc.broken {
		healed = healed && !slices.Contains(set, true)
	}
	if healed && st.Repairs+sc.lost != st.LinkFaults {
		t.Fatalf("epoch %d: healed fabric: Repairs %d + %d lost to restarts, LinkFaults %d", sc.epoch, st.Repairs, sc.lost, st.LinkFaults)
	}
}

func (sc *script) words() bitset.Bits { return slices.Clone(sc.sh.sys.OpenLinks()) }

// recount is the link words the model implies: with no circuit standing, a
// link is open exactly when no fault masks it.
func (sc *script) recount() bitset.Bits {
	want := bitset.Make(len(sc.net.Links))
	for _, l := range sc.net.Links {
		ok := !sc.broken[system.FaultTargetLink][l.ID]
		for _, e := range []topology.Endpoint{l.From, l.To} {
			if e.Kind == topology.KindBox && sc.broken[system.FaultTargetBox][e.Index] {
				ok = false
			}
		}
		if l.To.Kind == topology.KindResource && sc.broken[system.FaultTargetResource][l.To.Index] {
			ok = false
		}
		want.SetTo(l.ID, ok)
	}
	return want
}

// deck deals a script ops ops long from rng: submits of singletons,
// multi-unit and typed tasks and gangs, releases (second ones included),
// cancels, fault batches valid and refused, and injected solver faults, a
// few to an epoch. task draws one member's demand.
func deck(sc *script, rng *rand.Rand, ops int, task func(*rand.Rand, int) system.Task) {
	procs := sc.net.Procs
	for n := 0; n < ops; sc.run() {
		for k := 1 + rng.Intn(5); k > 0 && n < ops; k, n = k-1, n+1 {
			_, tracked := sc.live(jobTracked)
			_, held := sc.live(jobGranted)
			switch r := rng.Intn(100); {
			case r < 30 && tracked < 12:
				sc.submitJob(task(rng, rng.Intn(procs)))
			case r < 40 && tracked < 12:
				p := rng.Perm(procs)
				members := make([]system.Task, 2+rng.Intn(2))
				for i := range members {
					if members[i] = task(rng, p[i]); rng.Intn(2) == 0 {
						members[i].Need, members[i].Needs = 0, nil
					}
				}
				sc.submitJob(members...)
			case r < 70 || held > 8:
				sc.endJob(rng.Int())
			case r < 78:
				sc.cancelJob(rng.Intn(8))
			case r < 94:
				sc.faults(sc.batch(rng)...)
			case r < 99:
				sc.faults(system.FaultOp{Target: system.FaultTargetResource, Index: sc.net.Ress + rng.Intn(2)})
			default:
				sc.trip = true
			}
		}
	}
}

// batch draws one valid fault event: a few components failed or, half the
// time while any is down, repaired.
func (sc *script) batch(rng *rand.Rand) []system.FaultOp {
	var fops []system.FaultOp
	for k := 1 + rng.Intn(3); k > 0; k-- {
		target := system.FaultTargetResource
		switch rng.Intn(4) {
		case 0:
			target = system.FaultTargetLink
		case 1:
			target = system.FaultTargetBox
		}
		set := sc.broken[target]
		f := system.FaultOp{Target: target, Index: rng.Intn(len(set))}
		if down := downOf(set); len(down) > 0 && rng.Intn(2) == 0 {
			f.Index, f.Repair = down[rng.Intn(len(down))], true
		}
		fops = append(fops, f)
	}
	return fops
}

func downOf(set []bool) []int {
	var down []int
	for i, b := range set {
		if b {
			down = append(down, i)
		}
	}
	return down
}

// scriptShards are TestShardScript's three disciplines: max-flow on an
// untyped Omega-8, the typed solver on a three-type Omega-8 pool, and
// MinCost with tier preemption; each with the member demand it deals.
var scriptShards = []struct {
	name string
	cfg  Config
	task func(*rand.Rand, int) system.Task
}{
	{"omega8", Config{Shards: []system.Config{{Net: topology.Omega(8)}}},
		func(rng *rand.Rand, p int) system.Task {
			t := system.Task{Proc: p}
			if rng.Intn(3) == 0 {
				t.Need = 2 + rng.Intn(3) // a multi-unit task
			}
			return t
		}},
	{"typed3", Config{Shards: []system.Config{typedShard(topology.Omega(8), []int{0, 1, 2, 0, 1, 2, 0, 1})}},
		func(rng *rand.Rand, p int) system.Task {
			if rng.Intn(3) == 0 {
				return system.Task{Proc: p, Type: rng.Intn(3)}
			}
			needs := map[int]int{}
			for k := 1 + rng.Intn(2); k > 0; k-- {
				needs[rng.Intn(3)] = 1 + rng.Intn(2)
			}
			return system.Task{Proc: p, Needs: needs}
		}},
	{"mincost-preempt", Config{Preempt: true, Shards: []system.Config{{Net: topology.Omega(8), Discipline: system.MinCost}}},
		func(rng *rand.Rand, p int) system.Task {
			return system.Task{Proc: p, Tier: rng.Intn(4), Need: 1 + rng.Intn(2)}
		}},
}

// TestShardScript runs seeded decks of 10⁴ ops on the stepper on each of
// three disciplines, holds the shard to script's invariants after every
// epoch, and runs every seed twice: the two runs must give identical Stats
// and identical outcomes, handle by handle — the shard is a step function
// of its ops.
func TestShardScript(t *testing.T) {
	const ops = 10_000
	for _, shard := range scriptShards {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", shard.name, seed), func(t *testing.T) {
				var runs [2]*script
				for i := range runs {
					runs[i] = newScript(t, shard.cfg)
					deck(runs[i], rand.New(rand.NewSource(seed)), ops, shard.task)
				}
				a, b := runs[0], runs[1]
				if !slices.Equal(a.trace, b.trace) {
					for i := range min(len(a.trace), len(b.trace)) {
						if a.trace[i] != b.trace[i] {
							t.Fatalf("replay diverged at outcome %d:\n%s\n%s", i, a.trace[i], b.trace[i])
						}
					}
					t.Fatalf("replay diverged: %d outcomes, then %d", len(a.trace), len(b.trace))
				}
				if sa, sb := a.s.Stats(), b.s.Stats(); !reflect.DeepEqual(sa, sb) {
					t.Fatalf("replay diverged in Stats:\n%+v\n%+v", sa, sb)
				}
				st := a.s.Stats()
				if st.Serviced == 0 || st.Canceled == 0 || st.Failed == 0 || st.Severed == 0 || st.Restarts == 0 || st.GangsServiced == 0 {
					t.Fatalf("the deck left a path unexercised: %+v", st)
				}
				if shard.cfg.Preempt && st.Preempts == 0 {
					t.Fatalf("the preempting deck preempted nothing: %+v", st)
				}
				t.Logf("%d epochs: %d submitted, %d serviced, %d canceled, %d failed, %d severed, %d preempts, %d restarts",
					a.epoch, st.Submitted, st.Serviced, st.Canceled, st.Failed, st.Severed, st.Preempts, st.Restarts)
			})
		}
	}
}
