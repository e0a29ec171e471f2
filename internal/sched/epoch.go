package sched

import (
	"errors"
	"fmt"

	"rsin/internal/maxflow"
	"rsin/internal/system"
)

// flush is one scheduling epoch: apply the buffered ops in order, cycle
// the discipline while it makes progress, then publish the jobs that
// finished acquiring. Buffer order guarantees a job's submit precedes its
// cancel, and resources freed by an op are available to this very epoch's
// solve.
func (s *Scheduler) flush(sh *shard, buf []op) []op {
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
	s.runCycles(sh)
	// A HardwareHook may have failed or repaired components mid-epoch;
	// republish the degraded-capacity census if the fault epoch moved.
	if sh.dead == nil {
		s.refreshCapacity(sh)
	}
	// Make the epoch's grants and cycle counters visible before any
	// handle's Done fires.
	s.publish(sh)
	s.publishGrants(sh)
	return buf[:0]
}

// applyEnd releases a provisioned job. The publish precedes the reply, so
// the caller observes its own completion in Stats the moment EndService
// returns.
func (s *Scheduler) applyEnd(sh *shard, o *op) {
	j := o.j
	var err error
	lost := ""
	switch {
	case sh.dead != nil:
		err, lost = sh.dead, resDead
	case j.gen != sh.gen:
		// The grants were made by a System discarded in a restart; applying
		// the release to the rebuilt one would free resources it never
		// granted.
		err, lost = fmt.Errorf("sched: shard %d: grants lost to restart: %w", sh.idx, ErrShardDown), resRestartLost
	default:
		if err = j.endIn(sh.sys); err == nil {
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
	s.publish(sh)
	j.endErr = err
	j.ended.Done()
}

// applySubmit admits a job to the shard's System and starts tracking it.
func (s *Scheduler) applySubmit(sh *shard, o *op) {
	j := o.j
	err := sh.dead
	if err == nil {
		if err = j.submitTo(sh.sys, o); err != nil {
			// Admission raced a capacity drop; the job never entered the
			// system, so it counts as rejected, not failed.
			s.o.rejected.Inc()
		}
	}
	if err != nil {
		j.err = err
		close(j.done)
		return
	}
	j.gen = sh.gen
	sh.track(j)
	j.count(&sh.tot, submitted)
	s.jobEvent(sh, j, kSubmit, j.units(), j.label)
}

// applyCancel withdraws a job whose context ended, unless it was
// provisioned or failed (a restart included) before the cancel drained.
func (s *Scheduler) applyCancel(sh *shard, o *op) {
	if sh.tracks(o.j) {
		cause := fmt.Errorf("sched: shard %d: %w: %w", sh.idx, ErrTaskCanceled, o.cause)
		s.withdraw(sh, o.j, canceled, cause, 0, "")
	}
}

// applyFault applies one correlated hardware event. Severed counts every
// unit lost, but the retry budget is charged once per job: a task that
// lost several units to the one event, or a gang that lost several
// members' units, pays one retry.
func (s *Scheduler) applyFault(sh *shard, o *op) {
	if sh.dead != nil {
		o.reply <- sh.dead
		return
	}
	var all []system.TaskID
	var err error
	for _, f := range o.faults {
		var affected []system.TaskID
		if affected, err = sh.sys.ApplyFault(f); err != nil {
			break
		}
		sh.tot.Severed += int64(len(affected))
		all = append(all, affected...)
		if f.Repair {
			sh.tot.Repairs++
			s.event(sh, evRepair, 0, int64(f.Index), "")
		} else {
			sh.tot.LinkFaults++
			s.event(sh, evFault, 0, int64(f.Index), "")
		}
	}
	var charged map[*job]bool // most fault events cost nobody a unit
	for _, id := range all {
		// A nil job is a multi-unit holder published in an earlier epoch.
		if j := sh.tracked[id]; j != nil && !charged[j] {
			if charged == nil {
				charged = map[*job]bool{}
			}
			charged[j] = true
			if !s.chargeSever(sh, j) {
				break
			}
		}
	}
	if sh.dead == nil {
		s.refreshCapacity(sh)
	}
	s.publish(sh)
	o.reply <- err
}

// addCycle folds one scheduling cycle's result into the counters.
func (st *Stats) addCycle(r *system.CycleResult) {
	st.Cycles++
	st.Granted += int64(r.Granted)
	st.Deferred += int64(r.Deferred)
	st.GangsActivated += int64(r.GangsActivated)
	st.Ops.Add(maxflow.Counters{
		Augmentations: r.Mapping.Ops.Augmentations,
		Phases:        r.Mapping.Ops.Phases,
		ArcScans:      r.Mapping.Ops.ArcScans,
		NodeVisits:    r.Mapping.Ops.NodeVisits,
	})
	st.SolveCounts.Add(&r.Mapping.Solve)
}

// runCycles is the epoch's scheduling phase: one Cycle solves the whole
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
// charged here, once the cycle's transmissions have ended.
func (s *Scheduler) runCycles(sh *shard) {
	var solveStart int64
	if s.o.enabled {
		solveStart = nowNano()
	}
	cycles := 0
cycling:
	for sh.dead == nil && len(sh.tracked) > 0 {
		r, err := sh.sys.Cycle()
		if err != nil {
			s.failShard(sh, err)
			break
		}
		cycles++
		sh.cycleCount++
		sh.tot.addCycle(r)
		for _, a := range r.Mapping.Assigned {
			// Whoever received a unit this epoch is who publishGrants has
			// to look at.
			if j := sh.tracked[sh.sys.Transmitting(a.Req.Proc)]; j != nil {
				sh.granted = append(sh.granted, j)
			}
			err := sh.sys.EndTransmission(a.Req.Proc)
			if errors.Is(err, system.ErrCircuitSevered) {
				// Retryable: the System already revoked and re-queued the
				// unit; a follow-up cycle reacquires it.
				sh.tot.Severed++
			} else if err != nil {
				s.failShard(sh, err)
				break cycling
			}
		}
		for _, x := range r.Preempted {
			sh.tot.Preempts++
			s.event(sh, evPreempt, int64(x.Victim), int64(x.Res), "")
			// A victim over its sever budget is withdrawn; a withdrawal that
			// escalated to a restart ends the epoch.
			if j := sh.tracked[x.Victim]; j != nil && !s.chargeSever(sh, j) {
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
}

// publishGrants hands over the jobs whose grant completed: every member
// fully provisioned, resources recorded per member before Done fires — a
// client can never observe a partially granted gang through its handle.
// A grant completes only in an epoch that gave the job a unit, so the
// candidates are the jobs runCycles saw receive one (a gang once per unit,
// a job a restart or a withdrawal has since finished: the tracks check
// drops both). Provisioned jobs leave the tracking map; the system layer
// keeps them immune to severs and resets.
func (s *Scheduler) publishGrants(sh *shard) {
	for _, j := range sh.granted {
		if !sh.tracks(j) || !j.provisionedIn(sh.sys) {
			continue
		}
		if n := len(j.ids); n > 1 {
			j.res = make([][]int, 0, n)
			for _, m := range j.ids {
				j.res = append(j.res, sh.sys.AppendHolding(nil, m))
			}
		} else {
			j.res1[0] = sh.sys.AppendHolding(j.held1[:0], j.ids[0])
			j.res = j.res1[:]
		}
		if s.o.enabled {
			s.o.observeGrant(j)
		}
		s.jobEvent(sh, j, kGrant, j.units(), "")
		sh.untrack(j)
		close(j.done)
	}
	clear(sh.granted) // the list outlives the jobs; do not pin them
	sh.granted = sh.granted[:0]
}

// finish resolves a tracked job terminally, exactly once: stop tracking
// it, record the error and the outcome, and make both visible in Stats
// before Done fires. Every path that ends a job before its grant — cancel,
// sever budget, capacity drop, restart, shutdown — ends here.
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
	s.publish(sh)
	close(j.done)
}

// withdraw pulls a tracked job out of the System and finishes it. A
// tracked job the System cannot withdraw means the shard state is
// suspect: the supervisor rebuilds it, and withdraw reports false (every
// tracked job is gone — a caller walking sh.tracked must stop).
func (s *Scheduler) withdraw(sh *shard, j *job, o outcome, cause error, val int64, result string) bool {
	if err := j.withdrawFrom(sh.sys); err != nil {
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
	if j.gang != 0 {
		sh.tot.GangSevers++
		s.event(sh, evGangSever, int64(j.gang), int64(j.severs), "")
	}
	if j.severs <= s.cfg.SeverRetries {
		return true
	}
	cause := fmt.Errorf("sched: shard %d: units severed %d times: %w", sh.idx, j.severs, system.ErrCircuitSevered)
	return s.withdraw(sh, j, failed, cause, int64(j.severs), resSeverBudget)
}

// refreshCapacity republishes the shard's degraded-capacity census when
// the fabric's fault epoch has moved, and withdraws tracked jobs whose
// demand no longer fits the surviving capacity: they would otherwise wait
// forever on resources the fabric has lost (a gang at the activation
// gate, or churning resets against capacity it can never reassemble).
func (s *Scheduler) refreshCapacity(sh *shard) {
	ep := sh.sys.FaultEpoch()
	if sh.capOK && ep == sh.capEpoch {
		return
	}
	usable := sh.sys.UsableResources()
	total := 0
	for _, c := range usable {
		total += c
	}
	sh.tot.Usable = total
	sh.mu.Lock()
	sh.usable = usable
	sh.stats.Usable = total
	sh.mu.Unlock()
	sh.capEpoch, sh.capOK = ep, true
	for id, j := range sh.tracked {
		if id != j.ids[0] {
			continue
		}
		if err := j.demand.Shortfall(usable); err != nil {
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
	down := fmt.Errorf("sched: shard %d: %w: %w", sh.idx, ErrShardDown, cause)
	for id, j := range sh.tracked {
		if id == j.ids[0] {
			s.finish(sh, j, failed, down, 0, resShardDown)
		}
	}
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
	// The rebuilt System starts from the pristine template: force the
	// degraded-capacity census to recompute (its fault epoch restarted).
	sh.capOK = false
	s.refreshCapacity(sh)
}
