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
	// Mapping is the outcome of a scheduling cycle.
	Mapping = core.Mapping
	// Assignment binds one request to one resource through a circuit. From
	// a warm Planner method its Circuit.Links may be rewritten by the
	// planner's next solve unless the mapping was applied (see Planner).
	Assignment = core.Assignment
	// Planner carries reusable scheduling state across epochs; its
	// ScheduleIncremental method warm-starts each solve from the previous
	// epoch's residual flow (DESIGN.md §12). The zero value is ready to use.
	// Its warm methods' circuits view per-processor path slots that the
	// next grant to the same processor rewrites: a caller that does not
	// apply a mapping to the network it was solved on must copy the Links
	// it keeps before the next solve (DESIGN.md §23).
	Planner = core.Planner
	// SolveStats reports how a Mapping was solved (warm vs cold, arcs
	// touched, circuits retracted).
	SolveStats = core.SolveStats
	// HeteroOptions tunes heterogeneous (multi-type) scheduling.
	HeteroOptions = core.HeteroOptions
	// TokenResult is the outcome of a distributed token-architecture cycle.
	TokenResult = token.Result
	// TokenOptions tunes the token-architecture simulation.
	TokenOptions = token.Options
	// System is the long-running resource-sharing machine: task queues,
	// scheduling cycles, transmission/service life cycle, multi-resource
	// acquisition with deadlock avoidance.
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
	// solve, and disjoint shards schedule in parallel.
	Scheduler = sched.Scheduler
	// SchedulerConfig parameterizes a Scheduler (shards, batch size,
	// sever budget, preemption).
	SchedulerConfig = sched.Config
	// SchedulerStats is a snapshot of service counters.
	SchedulerStats = sched.Stats
	// TaskHandle tracks a task submitted to a Scheduler.
	TaskHandle = sched.Handle
	// GangSpec describes an all-or-nothing gang of member tasks for
	// Scheduler.SubmitGang: every member is granted in the same epoch or
	// none is, and a hardware fault severing any member resets the whole
	// gang atomically (charged once against the shared sever budget).
	GangSpec = sched.GangSpec
	// GangHandle tracks a gang submitted via Scheduler.SubmitGang; its
	// Done channel closes only when every member holds its full set.
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
	// (Transformation 2). It is type-blind: NewSystem refuses it
	// together with Config.Types.
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

// NewScheduler starts the concurrent batched scheduling service (see
// internal/sched for semantics, failure semantics and sizing guidance).
var NewScheduler = sched.New

// Typed failure-semantics errors (match with errors.Is).
var (
	// ErrSchedulerClosed is reported by operations on a closed Scheduler
	// and by handles abandoned at shutdown.
	ErrSchedulerClosed = sched.ErrClosed
	// ErrShardDown marks handles and EndService calls whose grants were
	// lost when a shard's System failed and was rebuilt by the
	// supervisor; the shard itself recovers and keeps accepting work.
	ErrShardDown = sched.ErrShardDown
	// ErrTaskCanceled marks handles withdrawn by Scheduler.SubmitCtx
	// context cancellation before provisioning completed.
	ErrTaskCanceled = sched.ErrTaskCanceled
	// ErrUnsatisfiable is wrapped by Submit when a task's Need exceeds
	// what its fabric (or its resource type) can ever supply — including a
	// fabric degraded by hardware faults.
	ErrUnsatisfiable = system.ErrUnsatisfiable
	// ErrCircuitSevered marks in-flight units lost to hardware faults: a
	// failed link, switchbox or resource severed the circuit delivering
	// them. A System reports it from EndTransmission (retryable — the task
	// re-requests automatically); a Scheduler fails a handle with it only
	// after the task exceeded its sever-retry budget.
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
	// Scheduler.RunCollective executes the phases as gangs.
	LowerCollective = core.LowerCollective
)
