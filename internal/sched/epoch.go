package sched

import (
	"context"
	"fmt"
	"slices"

	"rsin/internal/system"
)

// apply is an epoch's first deciding phase: it applies the buffered ops in
// order (a job's submit precedes its cancel; resources an op frees feed
// this very epoch's solve). Like cycle it wakes nobody, only records for
// deliver what completed: the jobs whose Done must close, and each release's
// and fault batch's result on its op.
func (s *Scheduler) apply(sh *shard, buf []op) {
	sh.tot.Epochs++
	for i := range buf {
		switch o := &buf[i]; o.kind {
		case opEnd:
			s.applyEnd(sh, o)
		case opSubmit:
			s.applySubmit(sh, o)
		case opCancel:
			s.applyCancel(sh, o)
		case opFault:
			s.applyFault(sh, o)
		}
	}
}

// deliver is the shard's one delivery point, run after each deciding
// phase: it publishes the running totals and the degraded-capacity census
// as one locked batch, then fires what the phase completed — the recorded
// Dones, then the results of ops' releases and fault batches. So whatever
// a client observes is already in Stats, and in /metrics, which reads the
// same copy.
func (s *Scheduler) deliver(sh *shard, ops []op) {
	sh.tot.Free = sh.sys.FreeResources()
	sh.mu.Lock()
	sh.stats, sh.usable = sh.tot, sh.sys.UsableResources()
	sh.mu.Unlock()
	for _, j := range sh.fired {
		if j.stop != nil {
			j.stop() // before Done fires, so a client never sees the watch live
		}
		close(j.done)
	}
	clear(sh.fired) // the list outlives the jobs; do not pin them
	sh.fired = sh.fired[:0]
	for i := range ops {
		switch o := &ops[i]; o.kind {
		case opEnd:
			o.j.endErr = o.err
			o.j.ended.Done()
		case opFault:
			o.reply <- o.err
		}
	}
}

// applyEnd releases a provisioned job; the outcome is the op's result.
func (s *Scheduler) applyEnd(sh *shard, o *op) {
	j := o.j
	lost := ""
	switch {
	case sh.dead != nil:
		o.err, lost = sh.dead, resDead
	case j.gen != sh.gen:
		// The grants were made by a System discarded in a restart; applying
		// the release to the rebuilt one would free resources it never
		// granted.
		o.err, lost = fmt.Errorf("sched: shard %d: grants lost to restart: %w", sh.idx, ErrShardDown), resRestartLost
	default:
		if o.err = sh.sys.EndGangService(j.entity()); o.err == nil {
			j.finished = true
			j.count(&sh.tot, serviced)
			if s.o.enabled && j.grantNano != 0 {
				s.o.grantReleaseMS.Observe(float64(nowNano()-j.grantNano) / 1e6)
			}
			s.jobEvent(sh, j, kService, j.units(), "")
		}
	}
	if lost != "" && !j.finished {
		// The grants died with the shard or its generation: terminal for
		// the job, counted once however often the release is retried.
		j.finished = true
		j.count(&sh.tot, failed)
		s.jobEvent(sh, j, kFailed, 0, lost)
	}
}

// applySubmit admits a job to the shard's System and starts tracking it.
func (s *Scheduler) applySubmit(sh *shard, o *op) {
	j := o.j
	err := sh.dead
	if err == nil {
		// The System keeps the demand the job summed as its entity's.
		if j.ids, err = sh.sys.SubmitEntity(o.tasks(), j.demand, j.id1[:0]); err != nil {
			// Admission raced a capacity drop; the job never entered the
			// system, so it counts as rejected, not failed.
			s.o.rejected.Inc()
			s.event(sh, evReject, 0, j.units(), resUnsat)
		}
	}
	if err != nil {
		j.err = err
		sh.fired = append(sh.fired, j)
		return
	}
	j.gen = sh.gen
	sh.track(j)
	j.count(&sh.tot, submitted)
	s.jobEvent(sh, j, kSubmit, j.units(), j.label)
	// The cancellation contract: if ctx ends before the job's Done fires
	// (deliver then stops the watch), the job is withdrawn whole. Watched
	// only once tracked, the cancel always queues behind its submit.
	if ctx := o.ctx; ctx.Done() != nil {
		j.stop = context.AfterFunc(ctx, func() { _ = s.send(sh, op{kind: opCancel, j: j, cause: ctx.Err()}) })
	}
}

// applyCancel withdraws a job whose context ended, unless it was
// provisioned or failed (a restart included) before the cancel drained.
func (s *Scheduler) applyCancel(sh *shard, o *op) {
	if sh.tracks(o.j) {
		cause := fmt.Errorf("sched: shard %d: %w: %w", sh.idx, ErrTaskCanceled, o.cause)
		s.withdraw(sh, o.j, canceled, cause, 0, "")
	}
}

// applyFault applies one correlated hardware event, an ApplyFaults batch,
// and counts and charges it. The System checks the batch whole, so a
// refused batch changes nothing, and reports the ops that changed the
// fabric and the tasks the event cost a unit or reset. An op counts in
// LinkFaults or Repairs, and is traced, only if it changed the fabric:
// failing a failed component or repairing a healthy one is no event. Every
// severed task counts once in Severed and is traced as one "sever",
// however many units it lost, and the retry budget is charged once per
// job: a task that lost several units to the one event, or a gang that
// lost several members' units, pays one retry.
func (s *Scheduler) applyFault(sh *shard, o *op) {
	if o.err = sh.dead; o.err != nil {
		return
	}
	changed, severed, err := sh.sys.ApplyFaults(o.faults)
	if o.err = err; err != nil {
		return
	}
	for _, f := range changed {
		kind, n := evFault, &sh.tot.LinkFaults
		if f.Repair {
			kind, n = evRepair, &sh.tot.Repairs
		}
		*n++
		s.event(sh, kind, 0, int64(f.Index), f.Target.String())
	}
	sh.tot.Severed += int64(len(severed))
	for _, id := range severed {
		s.event(sh, evSever, int64(id), 0, "")
	}
	for _, id := range severed {
		// A job is charged at its first member: a gang that lost a unit was
		// reset, and the System lists every member of a reset. A nil job is
		// a multi-unit holder published in an earlier epoch.
		if j := sh.jobOf(id); j != nil && j.ids[0] == id {
			// A withdrawal that escalated to a restart emptied sh.tracked.
			if !s.chargeSever(sh, j) {
				break
			}
		}
	}
	if len(changed) > 0 && sh.dead == nil {
		s.refreshCapacity(sh)
	}
}

// addCycle folds one scheduling cycle's result into the counters.
func (st *Stats) addCycle(r *system.CycleResult) {
	st.Cycles++
	st.Granted += int64(r.Granted)
	st.Deferred += int64(r.Deferred)
	st.GangsActivated += int64(r.GangsActivated)
	st.Ops.Add(r.Mapping.Ops)
	st.SolveCounts.Add(&r.Mapping.Solve)
}

// cycle is an epoch's second deciding phase: one Cycle solves the whole
// batch; repeat only while another could grant something (multi-resource
// tasks and freshly unblocked queue heads acquire on the follow-up cycles).
// Transmission completes within the granting cycle. After a granting cycle
// the System's ledger says whether any task still wants a unit and any
// healthy unit is unheld; when either count is zero the loop stops there
// instead of running a cycle whose only result would be Granted == 0 — so
// the common epoch, which serves every request it was handed, is one cycle.
// Skipping that cycle skips nothing else: between a cycle's grants and the
// next cycle's gang gate only units moved from the free pool to holders,
// which can make no waiting gang admissible (DESIGN.md §22). With Preempt
// set, each cycle also plans its tier exchanges; the victims it reports are
// charged here, once the cycle's transmissions have ended. The phase ends
// by recording the grants that completed.
func (s *Scheduler) cycle(sh *shard) {
	var solveStart int64
	if s.o.enabled {
		solveStart = nowNano()
	}
	cycles := 0
cycling:
	for sh.dead == nil && sh.ntracked > 0 {
		var start int64
		if s.o.enabled {
			start = nowNano()
		}
		r, err := sh.sys.Cycle()
		if err != nil {
			s.failShard(sh, err)
			break
		}
		if s.o.enabled {
			s.o.cycleMS.Observe(float64(nowNano()-start) / 1e6)
		}
		cycles++
		sh.cycleCount++
		sh.tot.addCycle(r)
		for _, a := range r.Mapping.Assigned {
			// Whoever received a unit this epoch is who recordGrants has
			// to look at.
			if j := sh.jobOf(sh.sys.Transmitting(a.Req.Proc)); j != nil {
				sh.granted = append(sh.granted, j)
			}
			if err := sh.sys.EndTransmission(a.Req.Proc); err != nil {
				s.failShard(sh, err)
				break cycling
			}
		}
		for _, x := range r.Preempted {
			sh.tot.Preempts++
			s.event(sh, evPreempt, int64(x.Victim), int64(x.Res), "")
			// A victim over its sever budget is withdrawn; a withdrawal that
			// escalated to a restart ends the epoch.
			if j := sh.jobOf(x.Victim); j != nil && !s.chargeSever(sh, j) {
				break cycling
			}
		}
		if r.Granted == 0 || sh.sys.Quiescent() {
			break
		}
	}
	if s.o.enabled && cycles > 0 {
		s.o.epochSolveMS.Observe(float64(nowNano()-solveStart) / 1e6)
	}
	s.recordGrants(sh)
}

// recordGrants hands over the jobs whose grant completed: every member
// fully provisioned, resources recorded per member before Done fires (the
// record is what Resources hands back) — a
// client can never observe a partially granted gang through its handle.
// A grant completes only in an epoch that gave the job a unit, so the
// candidates are the jobs cycle saw receive one (a gang once per unit,
// a job a restart or a withdrawal has since finished: the tracks check
// drops both). Provisioned jobs leave the tracking map; the system layer
// keeps them immune to severs and resets.
func (s *Scheduler) recordGrants(sh *shard) {
	for _, j := range sh.granted {
		if !sh.tracks(j) || !sh.sys.GangProvisioned(j.entity()) {
			continue
		}
		// One backing array for every member's grant, each slice capped at
		// its own length so an append to one cannot overwrite the next; a
		// singleton's, and a small gang's, is the job's inline storage.
		held := slices.Grow(j.heldIn[:0], j.demand.Total())
		j.res = slices.Grow(j.res1[:0], len(j.ids))
		for _, m := range j.ids {
			at := len(held)
			held = sh.sys.AppendHolding(held, m)
			j.res = append(j.res, held[at:len(held):len(held)])
		}
		if s.o.enabled {
			s.o.observeGrant(j)
		}
		s.jobEvent(sh, j, kGrant, j.units(), "")
		sh.untrack(j)
		sh.fired = append(sh.fired, j)
	}
	clear(sh.granted) // the list outlives the jobs; do not pin them
	sh.granted = sh.granted[:0]
}

// finish resolves a tracked job terminally, exactly once: stop tracking
// it, record the error and the outcome, and leave its Done to deliver,
// which fires it once both are published. Every path that ends a job
// before its grant — cancel, sever budget, capacity drop, restart,
// shutdown — ends here.
func (s *Scheduler) finish(sh *shard, j *job, o outcome, err error, val int64, result string) {
	sh.untrack(j)
	j.err = err
	j.finished = true
	j.count(&sh.tot, o)
	k := kFailed
	if o == canceled {
		k = kCancel
	}
	s.jobEvent(sh, j, k, val, result)
	sh.fired = append(sh.fired, j)
}

// finishTracked finishes every tracked job with the same failure: the
// supervisor's restart and the shutdown drain.
func (s *Scheduler) finishTracked(sh *shard, err error, result string) {
	for i := range sh.tracked {
		if e := sh.tracked[i]; e.j != nil && e.id == e.j.ids[0] {
			s.finish(sh, e.j, failed, err, 0, result)
		}
	}
}

// withdraw pulls a tracked job out of the System and finishes it. A
// tracked job the System cannot withdraw means the shard state is
// suspect: the supervisor rebuilds it, and withdraw reports false (every
// tracked job is gone — a caller walking sh.tracked must stop).
func (s *Scheduler) withdraw(sh *shard, j *job, o outcome, cause error, val int64, result string) bool {
	if err := sh.sys.CancelGang(j.entity()); err != nil {
		s.failShard(sh, fmt.Errorf("withdrawing task %d: %w", j.ids[0], err))
		return false
	}
	s.finish(sh, j, o, cause, val, result)
	return true
}

// chargeSever charges one sever event — a hardware fault or a preemption,
// however many units or members it cost — against a tracked job's retry
// budget. Below the budget nothing else is needed: the System already
// re-queued the lost units (and reset a gang whole). Past it the job is
// withdrawn with an ErrCircuitSevered failure — work churned by a flapping
// component or repeated preemption should fail crisply rather than retry
// forever. Reports false when the withdrawal escalated to a shard restart.
func (s *Scheduler) chargeSever(sh *shard, j *job) bool {
	j.severs++
	if len(j.ids) > 1 {
		sh.tot.GangSevers++
		s.event(sh, evGangSever, int64(j.ids[0]), int64(j.severs), "")
	}
	if j.severs <= s.cfg.SeverRetries {
		return true
	}
	cause := fmt.Errorf("sched: shard %d: units severed %d times: %w", sh.idx, j.severs, system.ErrCircuitSevered)
	return s.withdraw(sh, j, failed, cause, int64(j.severs), resSeverBudget)
}

// refreshCapacity takes the System's degraded-capacity census — at build,
// after a fault batch that changed the fabric, and after a restart — and
// withdraws tracked jobs whose demand no longer fits the surviving
// capacity: they would otherwise wait forever on resources the fabric has
// lost (a gang at the activation gate, or churning resets against
// capacity it can never reassemble).
func (s *Scheduler) refreshCapacity(sh *shard) {
	census := sh.sys.UsableResources()
	sh.tot.Usable = 0
	for _, c := range census {
		sh.tot.Usable += c
	}
	for i := range sh.tracked {
		j := sh.tracked[i].j
		if j == nil || sh.tracked[i].id != j.ids[0] {
			continue
		}
		if err := j.demand.Shortfall(census); err != nil {
			cause := fmt.Errorf("sched: shard %d: surviving capacity: %w", sh.idx, err)
			if !s.withdraw(sh, j, failed, cause, j.units(), resUnsat) {
				return
			}
		}
	}
}

// failShard is the shard supervisor. The System reported an internal
// fault, so its state is no longer trustworthy: contain it by failing
// every tracked job with an ErrShardDown error, then rebuild the System
// from a fresh state under a new generation and resume accepting work.
// Releases of grants made by the lost generation are rejected by the gen
// check in applyEnd rather than applied to the rebuilt state.
func (s *Scheduler) failShard(sh *shard, cause error) {
	s.finishTracked(sh, fmt.Errorf("sched: shard %d: %w: %w", sh.idx, ErrShardDown, cause), resShardDown)
	sys, err := system.New(sh.sysCfg)
	if err != nil {
		// The config built a System at New; if it no longer does,
		// recovery is impossible and the shard stays down for good.
		sh.dead = fmt.Errorf("sched: shard %d: rebuilding after fault: %w (fault: %w)", sh.idx, err, cause)
		return
	}
	sh.sys = sys
	sh.gen++
	sh.tot.Restarts++
	s.event(sh, evRestart, 0, int64(sh.gen), "")
	// The rebuilt System starts from the pristine template, and so does
	// its census.
	s.refreshCapacity(sh)
}
