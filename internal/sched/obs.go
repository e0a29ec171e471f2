package sched

import (
	"fmt"
	"time"

	"rsin/internal/obs"
	"rsin/internal/system"
)

// Trace event kinds and terminal-result labels recorded by the service
// layer. Constants, so recording stays allocation-free.
const (
	evSubmit  = "submit"  // task accepted into a shard system; Val = units demanded
	evGrant   = "grant"   // task fully provisioned; Val = units held
	evService = "service" // EndService released the task's resources
	evCancel  = "cancel"  // SubmitCtx withdrew the task
	evFailed  = "failed"  // task terminated with an error; Result labels why
	evRestart = "restart" // shard supervisor rebuilt a failed System
	evFault   = "fault"   // hardware fault applied via the sched API; Val = index
	evRepair  = "repair"  // hardware repair applied via the sched API; Val = index
	evReject  = "reject"  // Submit rejected the task before admission
	evPreempt = "preempt" // unit revoked from a lower tier; Task = victim, Val = resource

	evGangSubmit  = "gangsubmit"  // gang accepted into a shard system; Task = gang ID, Val = units demanded
	evGangGrant   = "ganggrant"   // every member provisioned; Task = gang ID, Val = units held
	evGangService = "gangservice" // EndGang released the gang's resources; Task = gang ID
	evGangCancel  = "gangcancel"  // SubmitGangCtx withdrew the gang; Task = gang ID
	evGangFailed  = "gangfailed"  // gang terminated with an error; Result labels why
	evGangSever   = "gangsever"   // atomic gang sever charged; Task = gang ID, Val = severs

	resShardDown   = "shard-down"   // in-flight at a supervisor restart
	resSeverBudget = "sever-budget" // units severed more than SeverRetries times
	resUnsat       = "unsat"        // demand no longer fits surviving capacity
	resClosed      = "closed"       // unprovisioned at scheduler shutdown
	resRestartLost = "restart-lost" // grants discarded by a restart, seen at EndService
	resDead        = "dead"         // shard permanently down (rebuild failed)
)

// schedObs holds the service's resolved instruments, shared by every
// shard. The zero value (all fields nil, enabled false) is the disabled
// state: every call site is a method on a nil pointer, a no-op with zero
// allocations — TestDisabledObsAllocFree pins this.
type schedObs struct {
	enabled bool

	submitted *obs.Counter
	granted   *obs.Counter
	serviced  *obs.Counter
	canceled  *obs.Counter
	failed    *obs.Counter
	rejected  *obs.Counter
	epochs    *obs.Counter
	cycles    *obs.Counter
	deferred  *obs.Counter
	restarts  *obs.Counter
	faultOps  *obs.Counter
	repairOps *obs.Counter
	severed   *obs.Counter
	preempts  *obs.Counter

	augmentations *obs.Counter
	phases        *obs.Counter
	arcScans      *obs.Counter
	nodeVisits    *obs.Counter

	warmSolves  *obs.Counter // cycles served by the warm-start arena
	coldSolves  *obs.Counter // cycles that rebuilt the flow network cold
	warmArcs    *obs.Counter // arena arcs toggled by warm delta syncs
	retractions *obs.Counter // standing-circuit units walked back
	fastPaths   *obs.Counter // grants via the combinatorial routing fast path

	multiFastPath *obs.Counter // multicommodity cycles committed certified optimal (bound met, or LP certified integral)
	multiLP       *obs.Counter // multicommodity cycles: bound missed, dense LP solved
	multiGreedy   *obs.Counter // multicommodity cycles: greedy decomposition fallback
	multiRetries  *obs.Counter // extra commodity orderings tried, on either path
	multiGap      *obs.Counter // integral units left vs the tightest bound computed, summed

	gangsSubmitted *obs.Counter // gangs accepted into shard systems
	gangsActivated *obs.Counter // gangs admitted by the banker's gate
	gangsGranted   *obs.Counter // gangs fully provisioned (all-or-nothing)
	gangsServiced  *obs.Counter // gangs released whole by EndGang
	gangsCanceled  *obs.Counter // gangs withdrawn before full provision
	gangsFailed    *obs.Counter // gangs terminated with an error
	gangSevers     *obs.Counter // atomic gang sever events charged

	free   *obs.Gauge
	usable *obs.Gauge

	submitGrantMS     *obs.Histogram // Submit accepted -> handle provisioned
	grantReleaseMS    *obs.Histogram // provisioned -> EndService released
	epochSolveMS      *obs.Histogram // wall time of one epoch's cycle loop
	gangSubmitGrantMS *obs.Histogram // SubmitGang accepted -> whole gang provisioned

	// Per-tier QoS instruments, indexed by Task.Tier. The band is small
	// and fixed (system.MaxTier+1 classes), so each tier gets its own
	// flat-named instrument rather than a label dimension.
	grantedTier       [system.MaxTier + 1]*obs.Counter
	submitGrantTierMS [system.MaxTier + 1]*obs.Histogram

	trace *obs.Trace
}

// latencyBuckets spans 10µs to ~1.3s in milliseconds — the grant-latency
// range from single-epoch fast paths to multi-second degraded churn.
func latencyBuckets() []float64 { return obs.ExpBuckets(0.01, 2, 18) }

// newSchedObs resolves the service-level instruments from a registry (the
// zero schedObs when reg is nil).
func newSchedObs(reg *obs.Registry) schedObs {
	if reg == nil {
		return schedObs{}
	}
	o := schedObs{
		enabled:           true,
		submitted:         reg.Counter("rsin_sched_submitted_total"),
		granted:           reg.Counter("rsin_sched_granted_total"),
		serviced:          reg.Counter("rsin_sched_serviced_total"),
		canceled:          reg.Counter("rsin_sched_canceled_total"),
		failed:            reg.Counter("rsin_sched_failed_total"),
		rejected:          reg.Counter("rsin_sched_rejected_total"),
		epochs:            reg.Counter("rsin_sched_epochs_total"),
		cycles:            reg.Counter("rsin_sched_cycles_total"),
		deferred:          reg.Counter("rsin_sched_deferred_total"),
		restarts:          reg.Counter("rsin_sched_restarts_total"),
		faultOps:          reg.Counter("rsin_sched_fault_ops_total"),
		repairOps:         reg.Counter("rsin_sched_repair_ops_total"),
		severed:           reg.Counter("rsin_sched_severed_total"),
		preempts:          reg.Counter("rsin_sched_preempts_total"),
		augmentations:     reg.Counter("rsin_solver_augmentations_total"),
		phases:            reg.Counter("rsin_solver_phases_total"),
		arcScans:          reg.Counter("rsin_solver_arc_scans_total"),
		nodeVisits:        reg.Counter("rsin_solver_node_visits_total"),
		warmSolves:        reg.Counter("rsin_solver_warm_solves_total"),
		coldSolves:        reg.Counter("rsin_solver_cold_solves_total"),
		warmArcs:          reg.Counter("rsin_solver_warm_arcs_touched_total"),
		retractions:       reg.Counter("rsin_solver_warm_retractions_total"),
		fastPaths:         reg.Counter("rsin_solver_fast_paths_total"),
		multiFastPath:     reg.Counter("rsin_solver_multi_fast_path_total"),
		multiLP:           reg.Counter("rsin_solver_multi_lp_total"),
		multiGreedy:       reg.Counter("rsin_solver_multi_greedy_total"),
		multiRetries:      reg.Counter("rsin_solver_multi_retries_total"),
		multiGap:          reg.Counter("rsin_solver_multi_gap_units_total"),
		gangsSubmitted:    reg.Counter("rsin_sched_gangs_submitted_total"),
		gangsActivated:    reg.Counter("rsin_sched_gangs_activated_total"),
		gangsGranted:      reg.Counter("rsin_sched_gangs_granted_total"),
		gangsServiced:     reg.Counter("rsin_sched_gangs_serviced_total"),
		gangsCanceled:     reg.Counter("rsin_sched_gangs_canceled_total"),
		gangsFailed:       reg.Counter("rsin_sched_gangs_failed_total"),
		gangSevers:        reg.Counter("rsin_sched_gang_severs_total"),
		free:              reg.Gauge("rsin_sched_free_resources"),
		usable:            reg.Gauge("rsin_sched_usable_resources"),
		submitGrantMS:     reg.Histogram("rsin_sched_submit_to_grant_ms", latencyBuckets()),
		grantReleaseMS:    reg.Histogram("rsin_sched_grant_to_release_ms", latencyBuckets()),
		epochSolveMS:      reg.Histogram("rsin_sched_epoch_solve_ms", latencyBuckets()),
		gangSubmitGrantMS: reg.Histogram("rsin_sched_gang_submit_to_grant_ms", latencyBuckets()),
		trace:             reg.Trace(),
	}
	for t := 0; t <= system.MaxTier; t++ {
		o.grantedTier[t] = reg.Counter(fmt.Sprintf("rsin_sched_granted_tier%d_total", t))
		o.submitGrantTierMS[t] = reg.Histogram(fmt.Sprintf("rsin_sched_submit_to_grant_tier%d_ms", t), latencyBuckets())
	}
	return o
}

// observeGrant records a completed grant: the gang instruments for a gang,
// the task and per-tier ones for a singleton.
func (o *schedObs) observeGrant(j *job) {
	j.grantNano = nowNano()
	ms := float64(j.grantNano-j.submitNano) / 1e6
	if j.gang != 0 {
		o.gangsGranted.Inc()
		o.gangSubmitGrantMS.Observe(ms)
		return
	}
	o.grantedTier[j.tier].Inc()
	o.submitGrantMS.Observe(ms)
	o.submitGrantTierMS[j.tier].Observe(ms)
}

// mirror adds an epoch's counter deltas to the instruments. The list is
// its own — instrument names differ from the Stats field names.
func (o *schedObs) mirror(epoch *Stats) {
	o.submitted.Add(epoch.Submitted)
	o.granted.Add(epoch.Granted)
	o.serviced.Add(epoch.Serviced)
	o.epochs.Add(epoch.Epochs)
	o.cycles.Add(epoch.Cycles)
	o.deferred.Add(epoch.Deferred)
	o.canceled.Add(epoch.Canceled)
	o.failed.Add(epoch.Failed)
	o.restarts.Add(epoch.Restarts)
	o.faultOps.Add(epoch.LinkFaults)
	o.repairOps.Add(epoch.Repairs)
	o.severed.Add(epoch.Severed)
	o.preempts.Add(epoch.Preempts)
	o.gangsSubmitted.Add(epoch.GangsSubmitted)
	o.gangsActivated.Add(epoch.GangsActivated)
	o.gangsServiced.Add(epoch.GangsServiced)
	o.gangsCanceled.Add(epoch.GangsCanceled)
	o.gangsFailed.Add(epoch.GangsFailed)
	o.gangSevers.Add(epoch.GangSevers)
	o.augmentations.Add(int64(epoch.Ops.Augmentations))
	o.phases.Add(int64(epoch.Ops.Phases))
	o.arcScans.Add(int64(epoch.Ops.ArcScans))
	o.nodeVisits.Add(int64(epoch.Ops.NodeVisits))
	o.warmSolves.Add(epoch.WarmSolves)
	o.coldSolves.Add(epoch.ColdSolves)
	o.warmArcs.Add(epoch.ArcsTouched)
	o.retractions.Add(epoch.Retractions)
	o.fastPaths.Add(epoch.FastPaths)
	o.multiFastPath.Add(epoch.MultiFastPath)
	o.multiLP.Add(epoch.MultiLP)
	o.multiGreedy.Add(epoch.MultiGreedy)
	o.multiRetries.Add(epoch.MultiRetries)
	o.multiGap.Add(epoch.MultiGapUnits)
}

// event records a trace event stamped with the shard's coordinates. Runs
// on the shard goroutine (it reads sh.sys). No-op when tracing is
// disabled.
func (s *Scheduler) event(sh *shard, kind string, task int64, val int64, result string) {
	if s.o.trace == nil {
		return
	}
	s.o.trace.Record(obs.Event{
		Kind:   kind,
		Shard:  sh.idx,
		Cycle:  sh.cycleCount,
		Task:   task,
		Epoch:  sh.sys.FaultEpoch(),
		Val:    val,
		Result: result,
	})
}

// nowNano timestamps latency samples; callers gate on o.enabled so the
// disabled path never reads the clock.
func nowNano() int64 { return time.Now().UnixNano() }
