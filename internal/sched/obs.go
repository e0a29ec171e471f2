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

	// Pushed counters: the ones Stats does not carry. Every Stats counter
	// and gauge reaches the registry through Scheduler.collect instead.
	rejected     *obs.Counter // submissions refused before admission
	gangsGranted *obs.Counter // gangs fully provisioned (all-or-nothing)

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
		rejected:          reg.Counter("rsin_sched_rejected_total"),
		gangsGranted:      reg.Counter("rsin_sched_gangs_granted_total"),
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
