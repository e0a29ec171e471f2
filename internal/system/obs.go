package system

import (
	"rsin/internal/obs"
)

// Trace event kinds and terminal-result labels recorded by the system
// layer. Constants, so recording stays allocation-free.
const (
	evCycle    = "cycle"    // one scheduling cycle ran; Val = units granted
	evSever    = "sever"    // a circuit was severed; Task, Val = resource
	evSeverAck = "severack" // EndTransmission acknowledged a sever (retry path)
	evPreempt  = "preempt"  // a held unit was preempted; Task = victim, Val = resource
	evUnsat    = "unsat"    // admission rejected a task; Val = its Need
	evHwFault  = "hwfault"  // a component failed; Val = index, Result = class
	evHwRepair = "hwrepair" // a component was repaired; Val = index, Result = class

	evGangSubmit   = "gangsubmit"   // a gang entered the pending queue; Val = gang ID
	evGangActivate = "gangactivate" // the banker's gate admitted a gang; Val = gang ID
	evGangReset    = "gangreset"    // atomic sever re-planned a gang; Val = gang ID
)

// sysObs holds the system's resolved instruments. The zero value (every
// field nil, enabled false) is the disabled state: each call site is a
// method on a nil pointer, a no-op with zero allocations.
type sysObs struct {
	enabled bool
	shard   int

	cycles    *obs.Counter
	granted   *obs.Counter
	deferred  *obs.Counter
	unsat     *obs.Counter
	severed   *obs.Counter
	severAcks *obs.Counter
	preempts  *obs.Counter
	faultOps  *obs.Counter
	repairOps *obs.Counter

	gangsSubmitted *obs.Counter // gangs accepted into the pending queue
	gangsActivated *obs.Counter // gangs admitted by the banker's gate
	gangResets     *obs.Counter // gangs atomically severed and re-planned

	warmSolves  *obs.Counter // cycles on an arena or basis the planner reused
	coldSolves  *obs.Counter // cycles that built their arena or flow network
	arcsTouched *obs.Counter // arcs re-priced by warm MinCost solves
	fastPaths   *obs.Counter // grants via the combinatorial routing fast path

	cycleMS *obs.Histogram // wall time per cycle (hooks, solve, establishment), milliseconds

	trace *obs.Trace
}

// newSysObs resolves the system-level instruments from a registry (the
// zero sysObs when reg is nil).
func newSysObs(reg *obs.Registry, shard int) sysObs {
	if reg == nil {
		return sysObs{}
	}
	return sysObs{
		enabled:   true,
		shard:     shard,
		cycles:    reg.Counter("rsin_system_cycles_total"),
		granted:   reg.Counter("rsin_system_granted_total"),
		deferred:  reg.Counter("rsin_system_deferred_total"),
		unsat:     reg.Counter("rsin_system_unsat_total"),
		severed:   reg.Counter("rsin_system_severed_total"),
		severAcks: reg.Counter("rsin_system_sever_acks_total"),
		preempts:  reg.Counter("rsin_system_preempts_total"),
		faultOps:  reg.Counter("rsin_system_fault_ops_total"),
		repairOps: reg.Counter("rsin_system_repair_ops_total"),

		gangsSubmitted: reg.Counter("rsin_system_gangs_submitted_total"),
		gangsActivated: reg.Counter("rsin_system_gangs_activated_total"),
		gangResets:     reg.Counter("rsin_system_gang_resets_total"),

		warmSolves:  reg.Counter("rsin_system_warm_solves_total"),
		coldSolves:  reg.Counter("rsin_system_cold_solves_total"),
		arcsTouched: reg.Counter("rsin_system_warm_arcs_touched_total"),
		fastPaths:   reg.Counter("rsin_system_fast_paths_total"),

		cycleMS: reg.Histogram("rsin_system_cycle_ms", obs.ExpBuckets(0.001, 2, 20)),
		trace:   reg.Trace(),
	}
}

// event records a trace event stamped with the system's shard label and
// current cycle/fault-epoch coordinates. No-op when tracing is disabled.
func (s *System) event(kind string, task TaskID, val int64, result string) {
	if s.o.trace == nil {
		return
	}
	s.o.trace.Record(obs.Event{
		Kind:   kind,
		Shard:  s.o.shard,
		Cycle:  s.cycleCount,
		Task:   int64(task),
		Epoch:  s.net.FaultEpoch(),
		Val:    val,
		Result: result,
	})
}
