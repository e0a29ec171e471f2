package sched

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"rsin/internal/system"
	"rsin/internal/topology"
)

// stepper drives shard 0 of a Scheduler as its only caller. A test queues
// ops through the prelude the front door uses (ready) and runs them with
// epoch, the function the combiner runs — apply, deliver, cycle, deliver —
// on its own goroutine, so when step returns every outcome of the epoch is
// decided and delivered, and nothing waits on a clock. As deliver fires
// each Done it checks that Stats already counts what the shard decided,
// and after the epoch that no Done fired any other way. A test that looks
// between the phases runs them one at a time (apply, cycle); before each
// deliver they check that the phase woke nobody itself.
type stepper struct {
	t    testing.TB
	s    *Scheduler
	sh   *shard
	ops  []op
	live []*job        // admitted jobs whose Done has not fired
	woke map[*job]bool // jobs whose Done deliver fired
}

func newStepper(t testing.TB, cfg Config) *stepper {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &stepper{t: t, s: s, sh: s.shards[0], woke: map[*job]bool{}}
}

// submit readies a task as SubmitCtx does and queues its opSubmit.
func (st *stepper) submit(task system.Task) (*Handle, error) {
	h := &Handle{}
	if err := st.queue(op{kind: opSubmit, j: &h.job, one: [1]system.Task{task}}); err != nil {
		return nil, err
	}
	return h, nil
}

// gang readies a gang as SubmitGangCtx does and queues its opSubmit.
func (st *stepper) gang(members ...system.Task) (*GangHandle, error) {
	h := &GangHandle{}
	if err := st.queue(op{kind: opSubmit, j: &h.job, members: members}); err != nil {
		return nil, err
	}
	return h, nil
}

func (st *stepper) queue(o op) error {
	if err := st.s.ready(context.Background(), 0, &o); err != nil {
		return err
	}
	// A job whose context cannot end has no watch to stop: its stop hook
	// probes the wake instead.
	j := o.j
	j.stop = func() bool { return st.wake(j) }
	st.ops = append(st.ops, o)
	st.live = append(st.live, o.j)
	return nil
}

// end queues a release of j, the op EndService and EndGang send.
func (st *stepper) end(j *job) {
	st.ops = append(st.ops, op{kind: opEnd, j: j, reply: armed(&j.ended)})
}

// cancel queues the op a submission's context sends when it ends.
func (st *stepper) cancel(j *job) {
	st.ops = append(st.ops, op{kind: opCancel, j: j, cause: context.Canceled})
}

// faults queues one ApplyFaults batch; its reply is answered at the apply
// phase's deliver.
func (st *stepper) faults(fops ...system.FaultOp) *reply {
	r := armed(&reply{})
	st.ops = append(st.ops, op{kind: opFault, faults: fops, reply: r})
	return r
}

// errUnanswered is what an armed reply reads until deliver answers it.
var errUnanswered = errors.New("unanswered")

// armed readies r for one answer, as call does, and marks it unanswered
// so quiet can tell whether a phase answered it before deliver.
func armed(r *reply) *reply {
	r.wg.Add(1)
	r.err = errUnanswered
	return r
}

// apply runs the queued ops' deciding phase and its delivery, and returns
// the ops with their recorded outcomes.
func (st *stepper) apply() []op {
	ops := st.ops
	st.ops = nil
	st.s.apply(st.sh, ops)
	st.deliver("apply", ops)
	return ops
}

// cycle runs the epoch's scheduling phase and its delivery.
func (st *stepper) cycle() {
	st.s.cycle(st.sh)
	st.deliver("cycle", nil)
}

// deliver runs the delivery point after a phase once quiet has held.
func (st *stepper) deliver(phase string, ops []op) {
	st.quiet(phase, ops)
	st.s.deliver(st.sh, ops)
	st.settle()
}

// settle drops the jobs whose Done has fired from the live list, and
// fails the test when one fired without deliver.
func (st *stepper) settle() {
	live := st.live[:0]
	for _, j := range st.live {
		switch {
		case !fired(j):
			live = append(live, j)
		case !st.woke[j]:
			st.t.Fatalf("job %v: its Done fired without deliver", j.ids)
		default:
			delete(st.woke, j)
		}
	}
	clear(st.live[len(live):])
	st.live = live
}

// step runs one whole epoch on the queued ops, as the combiner does.
func (st *stepper) step() []op {
	ops := st.ops
	st.ops = nil
	st.s.epoch(st.sh, ops)
	st.settle()
	return ops
}

// shutdown closes the Scheduler: its drain finishes the stepped shard's
// tracked jobs.
func (st *stepper) shutdown() {
	st.s.Close()
	st.settle()
}

// quiet fails the test when a deciding phase fired a completion itself:
// before deliver no Done has closed and no reply has its answer.
func (st *stepper) quiet(phase string, ops []op) {
	for _, j := range st.live {
		if fired(j) {
			st.t.Fatalf("%s closed a Done before deliver published", phase)
		}
	}
	for _, o := range ops {
		if o.reply != nil && o.reply.err != errUnanswered {
			st.t.Fatalf("%s answered a release or a fault batch before deliver published", phase)
		}
	}
}

// wake is deliver's call as it fires a stepped job's Done (just before it
// closes the channel): at that moment Stats must already equal the shard's
// running totals.
func (st *stepper) wake(j *job) bool {
	if s := st.s.Stats(); !reflect.DeepEqual(s, st.sh.tot) {
		st.t.Fatalf("a Done fired before deliver published: Stats %+v, the shard's totals %+v", s, st.sh.tot)
	}
	st.woke[j] = true
	return true
}

// fired reports whether j's Done has closed.
func fired(j *job) bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// release ends j in an epoch of its own and returns the shard's answer.
func (st *stepper) release(j *job) error {
	st.t.Helper()
	st.end(j)
	ops := st.step()
	return ops[len(ops)-1].err
}

// fault applies one batch in an epoch of its own and returns its reply.
func (st *stepper) fault(fops ...system.FaultOp) error {
	st.t.Helper()
	r := st.faults(fops...)
	st.step()
	return r.wait()
}

// provision submits a task in an epoch of its own and requires its grant.
func (st *stepper) provision(task system.Task) *Handle {
	st.t.Helper()
	h, err := st.submit(task)
	if err != nil {
		st.t.Fatal(err)
	}
	st.step()
	if !fired(&h.job) || h.Err() != nil {
		st.t.Fatalf("task %+v not provisioned in its epoch (err %v)", task, h.err)
	}
	return h
}

// TestDeliverIsTheOnlyWake is the delivery rule at the step: grants, a
// release, a cancel, a sever-budget withdrawal and a restart each complete
// inside a deciding phase, and none of them is visible to its client until
// deliver has published the totals that count it. The stepper's own checks
// (quiet, woke) fail the test if any phase fires early; here each
// completion is also read back at its deliver.
func TestDeliverIsTheOnlyWake(t *testing.T) {
	trip := false
	st := newStepper(t, Config{SeverRetries: 1, Shards: []system.Config{{
		Net: topology.Omega(8),
		FaultHook: func(point string) error {
			if point == system.FaultCycle && trip {
				trip = false
				return errors.New("injected solver fault")
			}
			return nil
		},
	}}})
	taken := map[int]bool{}
	for p := 3; p < 8; p++ {
		taken[st.provision(system.Task{Proc: p}).Resources()[0]] = true
	}
	a := st.provision(system.Task{Proc: 0})
	taken[a.Resources()[0]] = true
	var held []int // the two units b acquires
	for r := 0; r < 8; r++ {
		if !taken[r] {
			held = append(held, r)
		}
	}
	b, _ := st.submit(system.Task{Proc: 1, Need: 3}) // acquires two units, waits on a third
	st.step()
	c, _ := st.submit(system.Task{Proc: 2}) // queues behind b
	st.step()
	if fired(&b.job) || fired(&c.job) {
		t.Fatalf("b or c resolved without a release: %v, %v", b.Err(), c.Err())
	}
	// One epoch: a's release, c's cancel, a fault event that severs b once
	// and a second that severs it past its budget of 1.
	st.end(&a.job)
	st.cancel(&c.job)
	st.faults(faultBatch(held[:1], false)...)
	st.faults(faultBatch(held[:1], true)...)
	st.faults(faultBatch(held[1:2], false)...)
	st.faults(faultBatch(held[1:2], true)...)
	ops := st.apply()
	if ops[0].err != nil {
		t.Fatalf("release: %v", ops[0].err)
	}
	if !fired(&c.job) || !fired(&b.job) {
		t.Fatal("cancel or sever-budget withdrawal not delivered by the apply phase's deliver")
	}
	if s := st.s.Stats(); s.Serviced != 1 || s.Canceled != 1 || s.Failed != 1 || s.Severed != 2 {
		t.Fatalf("stats at the apply deliver %+v, want 1 serviced, 1 canceled, 1 failed, 2 severed", s)
	}
	st.cycle()
	// A restart inside the cycle phase fails d; Restarts is counted before
	// d's Done fires.
	d, _ := st.submit(system.Task{Proc: 3, Need: 2})
	st.apply()
	trip = true
	st.cycle()
	if !fired(&d.job) {
		t.Fatal("restart victim not delivered")
	}
	if s := st.s.Stats(); s.Restarts != 1 || s.Failed != 2 {
		t.Fatalf("stats at the restart's deliver %+v, want Restarts 1 and Failed 2", s)
	}
}

// TestTwoReleasesInOneEpoch is the release contract at the step: two
// release ops for one job in one epoch — which the front door cannot send,
// since end queues racing calls behind one another — are applied in order.
// The first succeeds and counts the job serviced; the second reaches the
// System, which no longer knows the job, and counts nothing.
func TestTwoReleasesInOneEpoch(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			st := newStepper(t, Config{Shards: []system.Config{{Net: topology.Omega(8)}}})
			j, err := k.queue(st, [3]int{0, 1, 2}, 3)
			if err != nil {
				t.Fatal(err)
			}
			st.step()
			if !fired(j) || j.err != nil {
				t.Fatalf("job not provisioned: %v", j.err)
			}
			st.end(j)
			st.end(j)
			ops := st.step()
			if ops[0].err != nil || ops[1].err == nil {
				t.Fatalf("releases answered %v, %v; want the first to succeed and the second refused", ops[0].err, ops[1].err)
			}
			s := st.s.Stats()
			if s.Serviced != k.members || s.GangsServiced != k.gangs || s.Failed != 0 || s.Free != 8 {
				t.Fatalf("stats %+v, want the job serviced once (%d members) and the pool whole", s, k.members)
			}
		})
	}
}
