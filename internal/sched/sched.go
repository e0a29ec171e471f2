// Package sched is the goroutine-safe batched scheduling service layered
// over internal/system. A system.System is deliberately single-threaded —
// it models the hardware monitor of §IV, which serializes every request.
// At production scale that serialization is the bottleneck: N concurrent
// clients would pay N lock round-trips and N max-flow solves.
//
// The service removes both costs:
//
//   - Batched epochs. Client operations (Submit, EndService) queue per
//     shard, and the shard flushes everything that was ready as one
//     scheduling epoch as soon as its queue runs dry — there is no timer:
//     like the §IV scheduler, a cycle starts when work is pending and the
//     previous one is over. Under load operations pile up behind the
//     running epoch, so batches fill by themselves. One epoch runs the
//     underlying System's Cycle — one flow solve covering every request in
//     the batch — repeating only while grants are still being made
//     (multi-resource tasks acquire one unit per cycle, §II).
//   - Sharding. The fabric is partitioned into disjoint sub-networks (one
//     Clos plane, one resource type, one tenant...), each owned by its own
//     shard goroutine with its own System, so independent shards schedule
//     in parallel with zero shared state.
//   - Buffer reuse. Each shard's System carries a core.Planner whose
//     maxflow.Buffers recycle the residual arena between cycles, keeping
//     the per-epoch solve allocation-light.
//
// Transmission is modeled as completing within the epoch that grants it
// (the service calls EndTransmission on behalf of the client); the
// client-visible service time is the interval between Handle readiness and
// the client's EndService call.
//
// # Failure semantics
//
// A shard whose System fails internally (a solver error, an
// EndTransmission fault) is not poisoned: a supervisor fails every
// in-flight handle with an error matching ErrShardDown, rebuilds the
// shard's System from a fresh state and resumes accepting work.
// Stats.Restarts counts these recoveries. Resources granted before the
// fault belong to the lost generation — EndService on such a handle also
// reports ErrShardDown rather than corrupting the rebuilt state. Clients
// with a deadline use SubmitCtx: an expired context withdraws the task
// from its shard (releasing the queue slot and anything it holds) and
// fails the handle with ErrTaskCanceled.
//
// # Hardware faults
//
// Hardware failures are a separate axis: FailLink/FailBox/FailResource
// (and their Repair duals) mark physical components of a shard's fabric
// failed. The shard keeps scheduling on the surviving subgraph — the
// solve is still optimal for whatever capacity remains. Units in flight
// across a failed component are severed and re-queued automatically,
// bounded by Config.SeverRetries before the handle fails with an error
// matching system.ErrCircuitSevered; tasks whose demand no longer fits
// the degraded capacity fail with system.ErrUnsatisfiable (at Submit and
// retroactively for queued tasks). Stats.LinkFaults, Stats.Severed,
// Stats.Repairs count the events; Stats.Usable gauges surviving
// capacity.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"rsin/internal/core"
	"rsin/internal/maxflow"
	"rsin/internal/obs"
	"rsin/internal/system"
)

// ErrClosed is reported by operations issued against a closed Scheduler
// and by handles abandoned when the Scheduler shut down before the task
// could be provisioned.
var ErrClosed = errors.New("sched: scheduler closed")

// ErrShardDown is matched (errors.Is) by the error of every handle that
// was in flight when its shard's System failed, and by EndService calls
// whose grants were lost to the resulting restart. The shard itself
// recovers and keeps accepting work.
var ErrShardDown = errors.New("sched: shard down")

// ErrTaskCanceled is matched by the error of a handle withdrawn by
// SubmitCtx context cancellation before it was fully provisioned.
var ErrTaskCanceled = errors.New("sched: task canceled")

// Config parameterizes a Scheduler.
type Config struct {
	// Shards holds one system configuration per disjoint sub-network.
	// Shard i is addressed by the shard argument of Submit. At least one
	// shard is required.
	Shards []system.Config
	// BatchSize sizes a shard's op queue, and with it the largest epoch:
	// 2×BatchSize operations may wait while an epoch runs (beyond that,
	// callers block in Submit/EndService), and the next epoch takes all of
	// them. Default 32.
	BatchSize int
	// SeverRetries bounds how many times a task's units may be severed
	// by hardware faults (or preemption, with Preempt set) before its
	// handle is failed with an error matching system.ErrCircuitSevered
	// (the client may resubmit once capacity heals). Each retry rides the
	// ordinary epoch cadence — the re-queued unit is solved for on the
	// next cycle, a natural backoff of one batch period. Default 3.
	SeverRetries int
	// Preempt enables tier-based preemption on every shard: it sets each
	// shard's system.Config.Preempt, so every scheduling cycle plans its
	// tier exchanges between the banker's admission and the solve. A queue
	// head the cycle's free units do not cover (one the banker refused, or,
	// without avoidance, one ranked past the free count) takes one unit from
	// the least urgent still-acquiring singleton of a strictly less urgent
	// tier (larger Task.Tier) whose unit it can reach and that the free
	// units do not cover either — under the banker only if admitting it
	// against that unit is safe — and joins the same solve. Equal tiers
	// never exchange, gangs and fully-provisioned tasks are never victims,
	// and a victim loses at most one unit a cycle. Each victim is charged
	// against the same SeverRetries budget as a hardware sever and counted
	// in Stats.Preempts. Requires every shard to run the MinCost discipline
	// (system.New refuses anything else).
	Preempt bool
	// Obs, when non-nil, exports service metrics (every Stats counter and
	// gauge, computed from Stats() when the registry is scraped — see
	// statsTable), latency histograms (submit-to-grant,
	// grant-to-release, epoch solve wall time) and a ring-buffer trace of
	// scheduling decisions. It is also threaded into each shard's
	// system.Config (unless that config carries its own registry), so one
	// registry observes the whole stack. Nil — the default — disables
	// observability with zero additional allocations on the hot path.
	Obs *obs.Registry
}

// Stats is a snapshot of service counters, summed over shards.
//
// # Terminal accounting
//
// Every task accepted by Submit (counted in Submitted) is counted
// terminal exactly once: Serviced when EndService releases it, Canceled
// when SubmitCtx withdraws it, or Failed when the service terminates it
// with any other error (shard restart, sever-retry exhaustion, a capacity
// drop making its demand unsatisfiable, shutdown). Tasks provisioned but
// not yet handed to EndService are the only gap, so at quiescence
//
//	Submitted == Serviced + Canceled + Failed + <provisioned, un-ended>
//
// and after Close with every handle resolved and every successful task
// EndServiced, Submitted == Serviced + Canceled + Failed exactly. The
// stress suite and the lifecycle fuzzer assert this identity.
type Stats struct {
	Submitted int64 // tasks accepted into a shard system
	Granted   int64 // resources granted across all cycles
	Serviced  int64 // tasks completed by EndService
	Epochs    int64 // batches flushed
	Cycles    int64 // scheduling cycles run: one in an epoch that serves all it can at once, none when nothing awaits a grant
	Deferred  int64 // requests withheld by deadlock avoidance
	Canceled  int64 // tasks withdrawn by SubmitCtx context cancellation
	Failed    int64 // tasks terminated by the service with a non-cancel error
	Restarts  int64 // shard recoveries from internal System failures

	// Hardware fault counters.
	LinkFaults int64 // component failures applied (links, boxes, resources)
	Severed    int64 // in-flight units lost to faults and re-queued
	Repairs    int64 // component repairs applied
	Preempts   int64 // units revoked from lower-tier holders (Config.Preempt)

	// Gang counters. Gangs also count member-wise in the terminal
	// counters above (a gang of k contributes k to Submitted and k to
	// exactly one of Serviced/Canceled/Failed), so the terminal identity
	// holds unchanged with gangs in the mix.
	GangsSubmitted int64 // gangs accepted into a shard system
	GangsActivated int64 // gangs admitted by the banker's activation gate
	GangsServiced  int64 // gangs released whole by EndGang
	GangsCanceled  int64 // gangs withdrawn by SubmitGangCtx cancellation
	GangsFailed    int64 // gangs terminated by the service with an error
	GangSevers     int64 // atomic gang sever events (one per gang per fault event)

	// Solver counters, decoded from each cycle's core.SolveStats by
	// core.SolveCounts.Add.
	//
	// The warm-start five move under the MaxFlow and MinCost solvers:
	// WarmSolves counts cycles served from the planner's persistent arena,
	// ColdSolves cycles that built the flow network from scratch (the first,
	// and after a fault epoch or divergence), ArcsTouched the arena arcs
	// toggled by warm delta syncs, Retractions the standing-circuit units
	// walked back (releases, severs) and FastPaths the grants resolved by
	// the combinatorial routing fast path (the last three MaxFlow only).
	//
	// The Multi six move under the typed solver. MultiFastPath counts
	// cycles committed as certified optimal: sequential per-type max-flow
	// met the combinatorial upper bound (the common case, no LP solved), on
	// a bound miss the routing-table search proved its schedule optimal, or
	// the LP relaxation was certified integral. MultiSearch counts the
	// bound misses the search settled, MultiLP the ones it could not (a
	// fabric with no routing table, or a search out of nodes) — cycles that
	// went on to the dense LP, whatever it then certified — so the typed
	// tail is the MultiLP share of cycles times the LP's cost. MultiGreedy
	// counts cycles served by the sequential greedy decomposition after the
	// LP was not certified. MultiRetries is the
	// extra commodity orderings tried, on either path, and MultiGapUnits the
	// integral allocations left versus the tightest bound computed, summed
	// over the cycles (zero on every certified cycle).
	core.SolveCounts

	Free   int // free resources after each shard's latest epoch
	Usable int // degraded-capacity gauge: schedulable resources surviving faults
	// Ops accumulates the solver's primitive-operation counters across
	// every cycle — the §IV monitor cost model, summed service-wide.
	Ops maxflow.Counters
}

// statsTable is the one definition of every Stats counter and gauge: the
// metric name it is exported under and where it lives in Stats. Stats.add
// sums through it and the registry collector projects Scheduler.Stats()
// through it at scrape time, so /metrics cannot disagree with Stats and a
// new counter is a Stats field, the place it is counted, and a row here
// (TestStatsTableCoversEveryCounter fails on a field without one).
var statsTable = []struct {
	name  string
	gauge bool
	field func(*Stats) any // *int64, or *int for the gauges and Ops
}{
	{"rsin_sched_submitted_total", false, func(st *Stats) any { return &st.Submitted }},
	{"rsin_sched_granted_total", false, func(st *Stats) any { return &st.Granted }},
	{"rsin_sched_serviced_total", false, func(st *Stats) any { return &st.Serviced }},
	{"rsin_sched_epochs_total", false, func(st *Stats) any { return &st.Epochs }},
	{"rsin_sched_cycles_total", false, func(st *Stats) any { return &st.Cycles }},
	{"rsin_sched_deferred_total", false, func(st *Stats) any { return &st.Deferred }},
	{"rsin_sched_canceled_total", false, func(st *Stats) any { return &st.Canceled }},
	{"rsin_sched_failed_total", false, func(st *Stats) any { return &st.Failed }},
	{"rsin_sched_restarts_total", false, func(st *Stats) any { return &st.Restarts }},
	{"rsin_sched_fault_ops_total", false, func(st *Stats) any { return &st.LinkFaults }},
	{"rsin_sched_severed_total", false, func(st *Stats) any { return &st.Severed }},
	{"rsin_sched_repair_ops_total", false, func(st *Stats) any { return &st.Repairs }},
	{"rsin_sched_preempts_total", false, func(st *Stats) any { return &st.Preempts }},
	{"rsin_sched_gangs_submitted_total", false, func(st *Stats) any { return &st.GangsSubmitted }},
	{"rsin_sched_gangs_activated_total", false, func(st *Stats) any { return &st.GangsActivated }},
	{"rsin_sched_gangs_serviced_total", false, func(st *Stats) any { return &st.GangsServiced }},
	{"rsin_sched_gangs_canceled_total", false, func(st *Stats) any { return &st.GangsCanceled }},
	{"rsin_sched_gangs_failed_total", false, func(st *Stats) any { return &st.GangsFailed }},
	{"rsin_sched_gang_severs_total", false, func(st *Stats) any { return &st.GangSevers }},
	{"rsin_solver_warm_solves_total", false, func(st *Stats) any { return &st.WarmSolves }},
	{"rsin_solver_cold_solves_total", false, func(st *Stats) any { return &st.ColdSolves }},
	{"rsin_solver_warm_arcs_touched_total", false, func(st *Stats) any { return &st.ArcsTouched }},
	{"rsin_solver_warm_retractions_total", false, func(st *Stats) any { return &st.Retractions }},
	{"rsin_solver_fast_paths_total", false, func(st *Stats) any { return &st.FastPaths }},
	{"rsin_solver_multi_fast_path_total", false, func(st *Stats) any { return &st.MultiFastPath }},
	{"rsin_solver_multi_search_total", false, func(st *Stats) any { return &st.MultiSearch }},
	{"rsin_solver_multi_lp_total", false, func(st *Stats) any { return &st.MultiLP }},
	{"rsin_solver_multi_greedy_total", false, func(st *Stats) any { return &st.MultiGreedy }},
	{"rsin_solver_multi_retries_total", false, func(st *Stats) any { return &st.MultiRetries }},
	{"rsin_solver_multi_gap_units_total", false, func(st *Stats) any { return &st.MultiGapUnits }},
	{"rsin_sched_free_resources", true, func(st *Stats) any { return &st.Free }},
	{"rsin_sched_usable_resources", true, func(st *Stats) any { return &st.Usable }},
	{"rsin_solver_augmentations_total", false, func(st *Stats) any { return &st.Ops.Augmentations }},
	{"rsin_solver_phases_total", false, func(st *Stats) any { return &st.Ops.Phases }},
	{"rsin_solver_arc_scans_total", false, func(st *Stats) any { return &st.Ops.ArcScans }},
	{"rsin_solver_node_visits_total", false, func(st *Stats) any { return &st.Ops.NodeVisits }},
}

// add folds another snapshot into st, gauges included: Stats sums shards
// with it, off the scheduling path.
func (st *Stats) add(o *Stats) {
	for _, row := range statsTable {
		switch p := row.field(st).(type) {
		case *int64:
			*p += *row.field(o).(*int64)
		case *int:
			*p += *row.field(o).(*int)
		}
	}
}

// collect is the scrape-time projection registered on Config.Obs: every
// statsTable row of Stats(), read when /metrics is.
func (s *Scheduler) collect(emit func(name string, gauge bool, v int64)) {
	st := s.Stats()
	for _, row := range statsTable {
		switch p := row.field(&st).(type) {
		case *int64:
			emit(row.name, row.gauge, *p)
		case *int:
			emit(row.name, row.gauge, int64(*p))
		}
	}
}

// shard owns one System. Only the shard's goroutine touches sys, tracked,
// tot and dead; stats and usable are shared with Stats() and Submit callers.
type shard struct {
	idx    int
	sys    *system.System
	sysCfg system.Config // prepared config (obs threaded); supervisor rebuilds from it
	procs  int
	ress   int
	ops    chan op
	// tracked indexes every job whose grant is not yet complete by each of
	// its member task IDs, so the fault path resolves a severed member to
	// its job in one lookup. A walk therefore meets a gang once per
	// member; walks act on a job at its first member (id == j.ids[0]).
	tracked  map[system.TaskID]*job
	granted  []*job // jobs that received a unit this epoch: publishGrants' candidates
	gen      int    // bumped by every supervisor restart
	capEpoch uint64 // fault epoch the usable census was computed at
	capOK    bool   // false forces a recompute (restart, first flush)

	cycleCount int64 // cumulative cycles, stamps trace events

	// tot is the shard's running totals, counted in place by the shard
	// goroutine; stats is the copy publish last made of it under mu, which
	// is all a reader ever sees.
	tot   Stats
	mu    sync.Mutex
	stats Stats
	// usable is the degraded-capacity census per resource type ({0: n}
	// without configured types), recomputed by the shard goroutine on each
	// fault epoch and read by the admission check (under mu).
	usable map[int]int

	// dead is the last resort: it is set only when a supervisor restart
	// itself fails (the shard config no longer builds a System); the
	// shard then rejects all work.
	dead error
}

func (sh *shard) track(j *job) {
	for _, id := range j.ids {
		sh.tracked[id] = j
	}
}

func (sh *shard) untrack(j *job) {
	for _, id := range j.ids {
		delete(sh.tracked, id)
	}
}

// tracks reports whether the job is still awaiting its grant on this
// shard (false once provisioned, finished, or lost to a restart).
func (sh *shard) tracks(j *job) bool { return len(j.ids) > 0 && sh.tracked[j.ids[0]] == j }

// validate is the per-task admission check that runs before shard
// dispatch, so a malformed task never consumes a batch slot (the System
// would reject it again, but only on the shard goroutine).
func (sh *shard) validate(t system.Task) error {
	if t.Proc < 0 || t.Proc >= sh.procs {
		return fmt.Errorf("processor %d out of range [0,%d)", t.Proc, sh.procs)
	}
	return system.ValidateTask(t, sh.ress)
}

// Scheduler is the concurrent batched scheduling service. All methods are
// safe for concurrent use.
type Scheduler struct {
	cfg    Config
	shards []*shard
	o      schedObs // resolved instruments; zero value when Obs is nil

	mu     sync.RWMutex // guards closed vs. in-flight channel sends
	closed bool
	wg     sync.WaitGroup
}

// New validates the configuration, builds one System per shard and starts
// the shard goroutines.
func New(cfg Config) (*Scheduler, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("sched: at least one shard is required")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.SeverRetries <= 0 {
		cfg.SeverRetries = 3
	}
	s := &Scheduler{
		cfg: cfg,
		o:   newSchedObs(cfg.Obs),
	}
	for i, sc := range cfg.Shards {
		// Thread the service registry through the shard's system (unless
		// the caller gave that shard its own) and label its trace events;
		// thread preemption the same way. system.New checks the result.
		if sc.Obs == nil {
			sc.Obs = cfg.Obs
		}
		sc.ObsShard = i
		sc.Preempt = sc.Preempt || cfg.Preempt
		sys, err := system.New(sc)
		if err != nil {
			return nil, fmt.Errorf("sched: shard %d: %w", i, err)
		}
		sh := &shard{
			idx:     i,
			sys:     sys,
			sysCfg:  sc,
			procs:   sc.Net.Procs,
			ress:    sc.Net.Ress,
			ops:     make(chan op, 2*cfg.BatchSize), // a full batch queues while another flushes
			tracked: make(map[system.TaskID]*job),
		}
		sh.tot.Free = sc.Net.Ress
		sh.usable = sh.sys.UsableResources()
		for _, c := range sh.usable {
			sh.tot.Usable += c
		}
		sh.stats = sh.tot
		sh.capEpoch = sh.sys.FaultEpoch()
		sh.capOK = true
		s.shards = append(s.shards, sh)
	}
	cfg.Obs.Collect(s.collect)
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.run(sh)
	}
	return s, nil
}

// NumShards reports the number of configured shards.
func (s *Scheduler) NumShards() int { return len(s.shards) }

// Submit queues a task on a shard and returns a handle immediately. The
// task joins the next scheduling epoch; wait on Handle.Done for its
// resources.
func (s *Scheduler) Submit(shard int, t system.Task) (*Handle, error) {
	h := &Handle{}
	if err := s.admit(shard, &h.job, t, nil); err != nil {
		return nil, err
	}
	return h, nil
}

// admit is the shared front of Submit and SubmitGang (members nil means
// the singleton t). Validation — shard and processor range, task checks,
// a gang's member count and distinct processors — and the degraded
// admission test run here, before the job consumes a batch slot: the
// summed demand must fit the shard's surviving capacity (resources lost
// to hardware faults, or stranded behind failed switchboxes, cannot
// complete an acquisition until repaired), every type against its own
// stock, which also refuses a type the fabric never stocked.
func (s *Scheduler) admit(shard int, j *job, t system.Task, members []system.Task) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("sched: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	sh := s.shards[shard]
	o := op{kind: opSubmit, j: j, task: t}
	var err error
	if members == nil {
		err = sh.validate(t)
	} else {
		o.members, err = sh.validateGang(members)
	}
	if err != nil {
		s.o.rejected.Inc()
		return fmt.Errorf("sched: shard %d: %w", shard, err)
	}
	j.describe(t, o.members)
	sh.mu.Lock()
	err = j.demand.Shortfall(sh.usable)
	sh.mu.Unlock()
	if err != nil {
		s.o.rejected.Inc()
		if s.o.trace != nil {
			s.o.trace.Record(obs.Event{Kind: evReject, Shard: shard, Val: j.units(), Result: resUnsat})
		}
		return fmt.Errorf("sched: shard %d: %w", shard, err)
	}
	j.shard, j.done = shard, make(chan struct{})
	if s.o.enabled {
		j.submitNano = nowNano()
	}
	return s.send(sh, o)
}

// ctxLive refuses a submission whose context has already ended: it must
// consume no queue slot and never count as Submitted.
func ctxLive(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sched: %w: %w", ErrTaskCanceled, err)
	}
	return nil
}

// watchCtx gives an admitted job its cancellation contract: if ctx ends
// before the job is fully provisioned it is withdrawn whole from its
// shard. The shard decides the race — the cancel op is a no-op if the job
// completed (or was failed) before it drains — and a closed scheduler
// already fails the job in shutdown.
func (s *Scheduler) watchCtx(ctx context.Context, j *job) {
	if ctx.Done() == nil {
		return
	}
	go func() {
		select {
		case <-j.done:
		case <-ctx.Done():
			_ = s.send(s.shards[j.shard], op{kind: opCancel, j: j, cause: ctx.Err()})
		}
	}()
}

// SubmitCtx is Submit with a cancellation contract: if ctx ends before
// the task is fully provisioned, the task is withdrawn from its shard —
// the queue slot and any partially-acquired resources are released — and
// the handle fails with an error matching ErrTaskCanceled. Cancellation
// is best-effort against a racing grant: if Done closes with a nil Err,
// the client owns the resources and must still call EndService.
func (s *Scheduler) SubmitCtx(ctx context.Context, shard int, t system.Task) (*Handle, error) {
	if err := ctxLive(ctx); err != nil {
		return nil, err
	}
	h, err := s.Submit(shard, t)
	if err == nil {
		s.watchCtx(ctx, &h.job)
	}
	return h, err
}

// EndService releases every resource a finished task holds. It may only
// be called after the handle's Done channel closed with a nil Err; it
// blocks until the release epoch has run.
func (s *Scheduler) EndService(h *Handle) error {
	if h == nil {
		return fmt.Errorf("sched: nil handle")
	}
	return s.end(&h.job)
}

// end is the shared body of EndService and EndGang.
func (s *Scheduler) end(j *job) error {
	select {
	case <-j.done:
	default:
		return fmt.Errorf("sched: work on shard %d is not fully provisioned", j.shard)
	}
	if j.err != nil {
		return fmt.Errorf("sched: submission failed and holds nothing: %w", j.err)
	}
	j.endMu.Lock()
	defer j.endMu.Unlock()
	j.ended.Add(1)
	if err := s.send(s.shards[j.shard], op{kind: opEnd, j: j}); err != nil {
		j.ended.Done()
		return err
	}
	j.ended.Wait()
	return j.endErr
}

// FailLink fails one physical link of a shard's fabric. The call blocks
// until the shard has applied the failure: in-flight circuits crossing
// the link are severed, their units revoked and re-queued, and the
// shard's degraded capacity recomputed, all before FailLink returns.
func (s *Scheduler) FailLink(shard, link int) error {
	return s.fault(shard, system.FaultOp{Target: system.FaultTargetLink, Index: link})
}

// RepairLink repairs a failed link; queued tasks reacquire on the healed
// fabric in the following epochs.
func (s *Scheduler) RepairLink(shard, link int) error {
	return s.fault(shard, system.FaultOp{Repair: true, Target: system.FaultTargetLink, Index: link})
}

// FailBox fails a switchbox (all links on its ports become unusable).
func (s *Scheduler) FailBox(shard, box int) error {
	return s.fault(shard, system.FaultOp{Target: system.FaultTargetBox, Index: box})
}

// RepairBox repairs a failed switchbox.
func (s *Scheduler) RepairBox(shard, box int) error {
	return s.fault(shard, system.FaultOp{Repair: true, Target: system.FaultTargetBox, Index: box})
}

// FailResource fails a resource: it leaves the schedulable pool, and a
// unit of it held by a still-acquiring task is revoked and re-queued.
func (s *Scheduler) FailResource(shard, res int) error {
	return s.fault(shard, system.FaultOp{Target: system.FaultTargetResource, Index: res})
}

// RepairResource repairs a failed resource.
func (s *Scheduler) RepairResource(shard, res int) error {
	return s.fault(shard, system.FaultOp{Repair: true, Target: system.FaultTargetResource, Index: res})
}

// fault routes one hardware event through a shard's op stream — fault
// application is serialized with scheduling exactly like every other
// state change — and waits for the applying epoch.
func (s *Scheduler) fault(shard int, fop system.FaultOp) error {
	return s.ApplyFaults(shard, []system.FaultOp{fop})
}

// ApplyFaults applies a batch of hardware operations to a shard as one
// correlated fault event — a switchbox dying with its attached resources,
// a power domain dropping several links at once. The whole batch charges
// each affected task's (or gang's) sever-retry budget exactly once:
// losing two units to one physical event is one retry, not two. The call
// blocks until the shard has applied every operation and recomputed its
// degraded capacity.
func (s *Scheduler) ApplyFaults(shard int, fops []system.FaultOp) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("sched: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	if len(fops) == 0 {
		return nil
	}
	reply := make(chan error, 1)
	if err := s.send(s.shards[shard], op{kind: opFault, faults: fops, reply: reply}); err != nil {
		return err
	}
	return <-reply
}

// send delivers an op to a shard unless the scheduler is closed. The read
// lock spans the channel send so Close cannot close the channel between
// the check and the send.
func (s *Scheduler) send(sh *shard, o op) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	sh.ops <- o
	return nil
}

// Stats sums the per-shard counters.
//
// # Snapshot semantics
//
// Each shard's contribution is a consistent snapshot: the shard publishes
// every counter of an event batch atomically (under its stats lock)
// before any client observes the operations' completion, so within one
// shard the invariants hold in every read — Granted never exceeds what
// Submitted can explain, Repairs never exceeds LinkFaults, and an
// operation whose call has returned (EndService, FailLink, ...) is
// already counted. Across shards the sum is not one global instant —
// shard snapshots are taken sequentially — but because every counter is
// monotone and each per-shard snapshot is internally consistent, summed
// totals are monotone across successive Stats calls and cross-shard sums
// preserve the per-shard invariants. TestStatsMonotonicUnderLoad pins
// this under 64-client -race load.
func (s *Scheduler) Stats() Stats {
	var tot Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st := sh.stats
		sh.mu.Unlock()
		tot.add(&st)
	}
	return tot
}

// Close stops accepting work, lets each shard finish the epochs of the ops
// already queued and waits for the shard goroutines to exit. Tasks still
// unprovisioned after that have their handles closed with ErrClosed. Close
// is idempotent.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	for _, sh := range s.shards {
		close(sh.ops)
	}
	s.wg.Wait()
	return nil
}

// run is the shard goroutine. An epoch is everything that was ready:
// block for the first op, take all that is already queued, yield the
// processor once so clients runnable right now can enqueue too, and flush
// as soon as a yield brings nothing new. Nothing waits on a clock — a lone
// op is served at once, and when the shard is the bottleneck ops pile up
// behind the running flush and the next epoch takes them all, which keeps
// the per-epoch work (cycles, their solves) amortized over a full queue. The yield is what lets a batch form at all on a saturated
// scheduler: without it the shard outruns its clients and solves one op
// per epoch. An idle shard blocks in the receive: blocked tracked work
// alone never re-solves, because the System evolves only through ops and
// every epoch already cycles to quiescence.
func (s *Scheduler) run(sh *shard) {
	defer s.wg.Done()
	buf := make([]op, 0, cap(sh.ops))
	for o := range sh.ops {
		buf = append(buf, o)
		for yielded := false; len(buf) < cap(buf); {
			select {
			case o, ok := <-sh.ops:
				if ok {
					buf, yielded = append(buf, o), false
					continue
				}
			default:
			}
			if yielded {
				break
			}
			runtime.Gosched()
			yielded = true
		}
		buf = s.flush(sh, buf)
	}
	// Closed and drained: every queued op has had its epoch. Work the
	// service could not provision is terminal — each member counts once
	// in Stats.Failed.
	for id, j := range sh.tracked {
		if id == j.ids[0] {
			s.finish(sh, j, failed, ErrClosed, 0, resClosed)
		}
	}
}

// publish copies the shard's running totals into its published stats as
// one locked batch. The shard calls it before every client-visible
// completion — a reply, a handle close, the end of the epoch
// — which is what makes Stats read-your-writes coherent: by the time
// EndService or FailLink has returned, or Handle.Done has fired, the
// corresponding counters are visible to Stats readers, and to /metrics,
// which reads the same copy. Runs on the shard goroutine.
func (s *Scheduler) publish(sh *shard) {
	sh.tot.Free = sh.sys.FreeResources()
	sh.mu.Lock()
	sh.stats = sh.tot
	sh.mu.Unlock()
}
