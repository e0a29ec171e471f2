// Package rsin reproduces "Resource Sharing Interconnection Networks in
// Multiprocessors" (Juang & Wah, ICPP 1986 / IEEE TC Jan 1989): optimal
// distributed scheduling of shared resources in circuit-switched
// interconnection networks by transformation to network flow problems.
//
// This root package is a thin facade over the implementation packages so
// module users have one import for the common workflow:
//
//	net := rsin.Omega(8)                     // build a topology
//	m, err := rsin.ScheduleMaxFlow(net,      // optimal mapping (Transformation 1)
//	    []rsin.Request{{Proc: 0}, {Proc: 3}},
//	    []rsin.Avail{{Res: 1}, {Res: 5}})
//	err = m.Apply(net)                       // establish the circuits
//
// The full surface lives in the internal packages: topology (network
// builders and circuit state), core (the flow-transformation schedulers),
// token (the distributed token-propagation architecture of §IV),
// monitorarch (the centralized monitor), heuristic (baselines), multiflow /
// mincost / maxflow / lp (the flow and LP engines), workload, sim and
// stats (experiment machinery).
package rsin

import (
	"rsin/internal/core"
	"rsin/internal/sched"
	"rsin/internal/system"
	"rsin/internal/token"
	"rsin/internal/topology"
)

// Re-exported types: the scheduling vocabulary.
type (
	// Network is a circuit-switched interconnection network.
	Network = topology.Network
	// Circuit is an established processor-to-resource connection.
	Circuit = topology.Circuit
	// Request is a pending resource request.
	Request = core.Request
	// Avail describes one free resource.
	Avail = core.Avail
	// Mapping is the outcome of a scheduling cycle. One a warm Planner
	// method returns is the planner's own: the planner's next solve
	// refills it whole (Assigned, Blocked, Cost, Solve), applied or not,
	// so a caller that keeps any of it longer copies it (see Planner).
	Mapping = core.Mapping
	// Assignment binds one request to one resource through a circuit. From
	// a warm Planner method it is valid until the planner's next solve; a
	// copy's Circuit.Links stay intact while an applied circuit stands, and
	// otherwise the next grant to the processor rewrites them (see Planner).
	Assignment = core.Assignment
	// Planner carries reusable scheduling state across epochs: one
	// whole-fabric arena per network and one solver on it, whose structure
	// and memory it reuses but never its flow (DESIGN.md §12).
	// ScheduleIncremental is that solver's one-commodity case and
	// ScheduleHetero its typed case, and ScheduleMinCostIncremental tries
	// each epoch there before its warm simplex basis (§13). The zero value
	// is ready to use.
	// Its warm methods decode into a Mapping the planner owns, valid until
	// its next solve, so a warm solve allocates nothing. Their circuits
	// view per-processor path slots that the next grant to the same
	// processor rewrites: a caller that does not apply a mapping to the
	// network it was solved on must copy the Links it keeps before the
	// next solve (DESIGN.md §23).
	Planner = core.Planner
	// SolveStats reports how a Mapping was solved (warm vs cold, arcs
	// touched, fast-path grants, the typed solver's path).
	SolveStats = core.SolveStats
	// HeteroOptions tunes heterogeneous (multi-type) scheduling. Its
	// branch-and-bound runs to the search's own node budget.
	HeteroOptions = core.HeteroOptions
	// TokenResult is the outcome of a distributed token-architecture cycle.
	TokenResult = token.Result
	// TokenOptions tunes the token-architecture simulation. A run's cost
	// is TokenResult.Clocks and Iterations.
	TokenOptions = token.Options
	// System is the long-running resource-sharing machine: task queues,
	// scheduling cycles, transmission/service life cycle, multi-resource
	// acquisition with deadlock avoidance. It is a state machine with no
	// clock and no registry: what a caller counts is in its results. A
	// hardware fault enters only as a batch through ApplyFaults (ApplyFault
	// is a batch of one), and the changed ops and severed tasks that call
	// returns are its one report. A task alone is withdrawn like a gang, by CancelGang. A
	// Scheduler with a registry times each cycle in the
	// rsin_system_cycle_ms histogram. Its task IDs are opaque and not
	// sequential: an ID packs a slot of the System's task table with the
	// slot's generation, and the ID of a task that has left reads as
	// unknown even after its slot is reused. Cycle's result is the
	// System's own, valid until the next Cycle. A task submitted alone and
	// a gang share one life cycle: the System admits, commits, severs,
	// withdraws and releases an entity, a task alone being a gang of one,
	// and a gang's ID is its first member's task ID.
	System = system.System
	// SystemConfig parameterizes a System.
	SystemConfig = system.Config
	// SystemTask is a unit of work submitted to a System.
	SystemTask = system.Task
	// Discipline selects the scheduler a System runs each cycle.
	Discipline = system.Discipline
	// Avoidance selects a System's multi-resource deadlock policy.
	Avoidance = system.Avoidance
	// Scheduler is the goroutine-safe batched scheduling service: client
	// submissions are coalesced into epochs, each epoch costs one flow
	// solve, and disjoint shards schedule in parallel. It has no goroutine
	// of its own: whichever caller holds a shard's epoch lock runs the
	// epoch for every op posted to it (flat combining). A hardware fault
	// enters a shard only through ApplyFaults, a batch at a time (one op
	// is a batch of one).
	Scheduler = sched.Scheduler
	// SchedulerConfig parameterizes a Scheduler (shards, batch size,
	// sever budget, preemption).
	SchedulerConfig = sched.Config
	// SchedulerStats is a snapshot of service counters. Its Severed
	// counts each task a fault event cost a unit or reset, once per event.
	SchedulerStats = sched.Stats
	// TaskHandle tracks a task submitted to a Scheduler. Its Resources is
	// the grant the shard recorded, not a copy: the slice belongs to the
	// handle and a caller only reads it. The handle and its Done channel
	// are all a task allocates below the caller, beside its share of the
	// epoch's result (DESIGN.md §23).
	TaskHandle = sched.Handle
	// GangSpec describes an all-or-nothing gang of member tasks for
	// Scheduler.SubmitGang: every member is granted in the same epoch or
	// none is, and a hardware fault severing any member resets the whole
	// gang atomically (charged once against the shared sever budget).
	GangSpec = sched.GangSpec
	// GangHandle tracks a gang submitted via Scheduler.SubmitGang; its
	// Done channel closes only when every member holds its full set. Its
	// Resources is the recorded per-member grant, one backing array for
	// all members, which the caller only reads.
	GangHandle = sched.GangHandle
	// CollectiveSpec describes a collective (ring allreduce,
	// reduce-scatter) for Scheduler.RunCollective: the pattern is lowered
	// into phases, each phase scheduled as one gang with a barrier
	// between phases.
	CollectiveSpec = sched.CollectiveSpec
	// CollectiveResult reports a completed collective (phases run, gang
	// severs absorbed).
	CollectiveResult = sched.CollectiveResult
	// Collective identifies a collective pattern for LowerCollective and
	// CollectiveSpec.
	Collective = core.Collective
)

// SystemConfig.Discipline and .Avoidance values (the internal constants,
// reachable from outside the module).
const (
	// DisciplineMaxFlow is the optimal discipline without priorities
	// (Transformation 1); on a fabric with Config.Types it is
	// DisciplineHetero.
	DisciplineMaxFlow = system.MaxFlow
	// DisciplineMinCost honors priorities and preferences
	// (Transformation 2): certified max-flow first — a cycle that grants
	// every request a resource of the top offered preference is optimal
	// as it stands — and warm-basis network simplex otherwise. It is
	// type-blind: NewSystem refuses it together with Config.Types.
	DisciplineMinCost = system.MinCost
	// DisciplineHetero schedules typed requests (multicommodity flow),
	// matching Task.Type to Config.Types.
	DisciplineHetero = system.Hetero
	// DisciplineToken runs the distributed token architecture (§IV). It
	// is type-blind: NewSystem refuses it together with Config.Types.
	DisciplineToken = system.TokenArch

	// AvoidanceNone grants greedily; hold-and-wait deadlock is possible.
	AvoidanceNone = system.AvoidanceNone
	// AvoidanceBankers admits multi-resource requests only while a safe
	// completion order remains.
	AvoidanceBankers = system.AvoidanceBankers

	// MaxTier is the least-urgent priority class accepted in
	// SystemTask.Tier (tier 0 is the most urgent). Out-of-range tiers are
	// rejected at Submit with ErrBadTask.
	MaxTier = system.MaxTier

	// RingAllReduce is the k-rank ring allreduce collective: k-1
	// reduce-scatter phases then k-1 allgather phases, each phase one
	// gang.
	RingAllReduce = core.RingAllReduce
	// RingReduceScatter is the k-rank ring reduce-scatter collective:
	// k-1 phases leaving each rank one fully reduced chunk.
	RingReduceScatter = core.RingReduceScatter
)

// TierWeight is the weighted-value exchange rate of a priority class:
// strictly decreasing in tier, so granting one tier-k request is worth
// more than granting every request of the tiers below it. The MinCost
// discipline maximizes total TierWeight-weighted value each cycle, and
// the tier exchanges of SchedulerConfig.Preempt only take a unit from a
// strictly lower tier, so each one strictly improves it.
var TierWeight = system.TierWeight

// NewSystem constructs a System (see internal/system for the life cycle).
var NewSystem = system.New

// NewScheduler builds the concurrent batched scheduling service; it
// starts no goroutine (see internal/sched for semantics, failure semantics
// and sizing guidance).
var NewScheduler = sched.New

// Typed failure-semantics errors (match with errors.Is).
var (
	// ErrSchedulerClosed is reported by operations on a closed Scheduler
	// and by handles abandoned at shutdown.
	ErrSchedulerClosed = sched.ErrClosed
	// ErrShardDown marks handles and EndService calls whose grants were
	// lost when a shard's System failed and was rebuilt; the shard itself
	// recovers and keeps accepting work.
	ErrShardDown = sched.ErrShardDown
	// ErrTaskCanceled marks handles withdrawn by Scheduler.SubmitCtx
	// context cancellation before provisioning completed.
	ErrTaskCanceled = sched.ErrTaskCanceled
	// ErrUnsatisfiable is wrapped by Submit when a task's Need exceeds
	// what its fabric (or its resource type) can ever supply — including a
	// fabric degraded by hardware faults.
	ErrUnsatisfiable = system.ErrUnsatisfiable
	// ErrCircuitSevered marks work lost to hardware faults: a failed
	// link, switchbox or resource severed the circuit delivering it. A
	// System never returns it (the fault call lists the severed tasks, and
	// each re-requests automatically); a Scheduler fails a handle with it
	// only after the task exceeded its sever-retry budget.
	ErrCircuitSevered = system.ErrCircuitSevered
	// ErrBadTask is wrapped by Submit when a task is malformed — a tier
	// outside [0, MaxTier], a fine-grain Priority outside its legal band,
	// or a Prefs vector whose length or weights don't fit the fabric.
	// Rejection happens before the task consumes an ID or a queue slot.
	ErrBadTask = system.ErrBadTask
)

// Topology constructors (see internal/topology for the full set).
var (
	// Omega builds an N x N Omega network.
	Omega = topology.Omega
	// OmegaExtra builds an Omega network with extra stages.
	OmegaExtra = topology.OmegaExtra
	// IndirectCube builds an N x N indirect binary n-cube.
	IndirectCube = topology.IndirectCube
	// Baseline builds an N x N baseline network.
	Baseline = topology.Baseline
	// Benes builds an N x N Benes network.
	Benes = topology.Benes
	// Clos builds a three-stage Clos network C(m, n, r).
	Clos = topology.Clos
	// Crossbar builds a single n x m crossbar.
	Crossbar = topology.Crossbar
	// Delta builds a delta network of b x b crossbars.
	Delta = topology.Delta
	// Gamma builds an N x N gamma network with redundant paths.
	Gamma = topology.Gamma
	// Flip builds the STARAN flip network (inverse Omega).
	Flip = topology.Flip
	// RandomLoopFree builds a random irregular loop-free fabric.
	RandomLoopFree = topology.RandomLoopFree
	// NewBuilder starts an arbitrary loop-free network.
	NewBuilder = topology.NewBuilder
)

// Schedulers (see internal/core).
var (
	// ScheduleMaxFlow computes the optimal homogeneous mapping
	// (Transformation 1 + maximum flow).
	ScheduleMaxFlow = core.ScheduleMaxFlow
	// ScheduleMinCost computes the optimal prioritized mapping
	// (Transformation 2 + minimum-cost flow, successive shortest paths).
	ScheduleMinCost = core.ScheduleMinCost
	// ScheduleMinCostOutOfKilter is ScheduleMinCost solved with Fulkerson's
	// out-of-kilter algorithm (the paper's cited method).
	ScheduleMinCostOutOfKilter = core.ScheduleMinCostOutOfKilter
	// ScheduleHetero computes the optimal heterogeneous mapping
	// (multicommodity flow).
	ScheduleHetero = core.ScheduleHetero
	// TokenSchedule runs one scheduling cycle on the distributed
	// token-propagation architecture of §IV.
	TokenSchedule = token.Schedule
	// LowerCollective lowers a collective pattern over k ranks into its
	// phase sequence (who ships which chunk to whom between barriers);
	// Scheduler.RunCollective executes the phases as gangs. The phases
	// share one backing array, each capped at its own k transfers.
	LowerCollective = core.LowerCollective
)
