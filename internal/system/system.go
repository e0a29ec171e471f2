// Package system is the long-running facade a resource-sharing
// multiprocessor embeds: it owns the network, the per-processor task
// queues, the resource states and the scheduling discipline, and exposes
// the §II life cycle — submit, scheduling cycle, end-of-transmission,
// end-of-service.
//
// It also implements the multi-resource extension the paper raises and
// defers: "When multiple resources are needed, they can be requested ...
// sequentially from a single port. ... deadlocks may occur, and
// distributed resolution of deadlock may have a high overhead" (§II). A
// task may declare Need > 1; it then acquires resources one scheduling
// cycle at a time while holding those already acquired. With
// AvoidanceNone that hold-and-wait pattern can deadlock (Deadlocked
// detects it); AvoidanceBankers grants a first resource only when a safe
// completion order still exists, in the classic banker's style.
package system

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"rsin/internal/core"
	"rsin/internal/obs"
	"rsin/internal/token"
	"rsin/internal/topology"
)

// ErrUnsatisfiable is wrapped by Submit and SubmitGang when a declared
// demand can never be met by the fabric — some entry of its Demand exceeds
// the usable count of resources of that type (Demand.Fits), which includes
// any type the deployment does not stock: with Config.Types nil every
// resource is type 0, so a task naming another Type is refused.
// Admitting such a task would wedge the system instead: the banker's
// policy defers it forever, and AvoidanceNone lets it hold units it can
// never complete with (the §II hold-and-wait deadlock, made permanent).
var ErrUnsatisfiable = errors.New("system: task demand can never be satisfied")

// ErrCircuitSevered is wrapped by EndTransmission when the transmission
// it acknowledges was torn down by a hardware fault: a link, switchbox or
// resource on the circuit's path failed mid-flight. The lost unit has
// already been re-queued — the task is back at its queue head requesting
// the unit again on the surviving fabric — so the condition is retryable,
// not fatal.
var ErrCircuitSevered = errors.New("system: circuit severed by hardware fault")

// Fault points at which Config.FaultHook is consulted.
const (
	// FaultCycle fires at the top of every Cycle, before the solver runs.
	FaultCycle = "cycle"
	// FaultEndTransmission fires in EndTransmission after argument
	// validation and before any state changes.
	FaultEndTransmission = "endtransmission"
)

// Discipline selects the scheduler run on each cycle.
type Discipline int

const (
	// MaxFlow is the optimal discipline without priorities (Transformation
	// 1); on a fabric with Config.Types it is the Hetero solver.
	MaxFlow Discipline = iota
	// MinCost honors priorities and preferences (Transformation 2).
	MinCost
	// Hetero schedules typed requests (multicommodity flow).
	Hetero
	// TokenArch runs the distributed token architecture (homogeneous).
	TokenArch
)

// Avoidance selects the multi-resource deadlock policy.
type Avoidance int

const (
	// AvoidanceNone grants greedily; hold-and-wait deadlock is possible.
	AvoidanceNone Avoidance = iota
	// AvoidanceBankers admits a request only when a safe completion order
	// remains (banker's algorithm over fungible resources per type).
	AvoidanceBankers
)

// Config parameterizes a System.
type Config struct {
	Net *topology.Network
	// Discipline names the epoch solver; New resolves it once, together
	// with Types, and refuses a combination no solver serves (see
	// resolveSolver).
	Discipline Discipline
	Hetero     *core.HeteroOptions // options for the typed solver
	Avoidance  Avoidance
	// Preempt arms tier exchanges: each cycle, a queue head the cycle's
	// free units do not cover may take one unit from a still-acquiring
	// singleton of a strictly less urgent tier, planned between the
	// banker's admission and the solve (planExchanges) and reported in
	// CycleResult.Preempted. It requires MinCost, whose weighted-value
	// solve prefers the more urgent requester for the unit; New refuses it
	// with any other discipline.
	Preempt bool
	// Preferences assigns a preference level per resource (MinCost).
	Preferences []int64
	// Types assigns a resource type per resource; nil = all 0. A typed
	// fabric is scheduled by the typed solver: name Hetero, or leave
	// Discipline at its zero value (MaxFlow generalised to types is that
	// solver). MinCost and TokenArch are type-blind and refuse Types.
	Types []int
	// FaultHook, when non-nil, is consulted at the named fault points
	// (FaultCycle, FaultEndTransmission). A non-nil return makes that
	// operation fail with the hook's error before it mutates any state.
	// It exists for deterministic fault injection in recovery tests and
	// load drivers (see internal/faultinject); production configs leave
	// it nil.
	FaultHook func(point string) error
	// HardwareHook, when non-nil, is consulted at the top of every Cycle
	// (after FaultHook) with the fault point name; each returned FaultOp
	// is applied to the fabric — a scripted link/switchbox/resource
	// failure or repair — before the solve, so the cycle schedules on
	// the surviving subgraph. internal/faultinject's hardware scripting
	// mode produces such hooks for deterministic degraded-mode tests.
	HardwareHook func(point string) []FaultOp
	// Obs, when non-nil, receives system-level metrics (cycle count and
	// solve wall time, grants, deferrals, admission rejections, severed
	// circuits, hardware fault operations) and trace events. Nil — the
	// default — keeps every operation free of instrumentation
	// allocations; see internal/obs.
	Obs *obs.Registry
	// ObsShard labels this system's trace events with a shard index when
	// a sharded service (internal/sched) owns several systems against one
	// shared registry. Ignored when Obs is nil.
	ObsShard int
}

// FaultTarget names the hardware component class of a FaultOp.
type FaultTarget int

const (
	FaultTargetLink FaultTarget = iota
	FaultTargetBox
	FaultTargetResource
)

func (t FaultTarget) String() string {
	switch t {
	case FaultTargetLink:
		return "link"
	case FaultTargetBox:
		return "box"
	case FaultTargetResource:
		return "res"
	}
	return fmt.Sprintf("FaultTarget(%d)", int(t))
}

// FaultOp is one scripted hardware event: the failure or repair of one
// component. Apply it with System.ApplyFault or return it from
// Config.HardwareHook.
type FaultOp struct {
	Repair bool
	Target FaultTarget
	Index  int
}

// TaskID identifies a submitted task.
type TaskID int

// Task is one unit of work requiring Need resources (all of type Type),
// acquired sequentially — or, with Needs set, a typed demand vector spanning
// several resource types at once. Both forms are read once, through
// Demand(); nothing below Submit sees the difference.
type Task struct {
	Proc int
	// Tier is the task's priority class, 0 (most urgent) through MaxTier.
	// Under the MinCost discipline tier strictly dominates Priority: any
	// tier-k request outranks every tier-(k+1) request. Tier also drives
	// the tier exchanges of Config.Preempt.
	Tier int
	// Priority is the fine-grain priority within a tier, [0, 2^20).
	Priority int64
	// Prefs optionally weights this task's affinity per resource,
	// [0, 2^20) each, with exactly one entry per resource. Transformation
	// 2 prices resources globally per cycle, so the effective preference
	// of a resource is the configured Config.Preferences level plus the
	// sum of the requesting tasks' weights for it (see DESIGN.md §13).
	// Nil means no per-task weighting.
	Prefs []int64
	Type  int
	Need  int // resources required; 0 is treated as 1
	// Needs, when non-nil, declares a typed demand vector: Needs[ty] units
	// of each resource type ty, acquired one unit per cycle like any
	// multi-unit task (lowest-numbered type first). It is mutually
	// exclusive with the scalar Need/Type pair — setting both fails
	// ValidateTask with ErrBadTask — and every entry must be positive.
	// The legacy scalar form is exactly the one-type special case.
	Needs map[int]int
}

// taskState is one admitted task: its normalised demand (the scalar and
// vector forms are indistinguishable from here down) and what it holds.
type taskState struct {
	id     TaskID
	task   Task   // Proc, Tier, Priority and Prefs; the demand fields are not read below Submit
	demand Demand // normalised once, at Submit
	have   []int  // have[i] units held against demand[i]
	need   int    // demand.Total()
	held   []int  // resources acquired so far

	circuits []topology.Circuit // established and not yet released; the last is the one transmitting
	gang     *gangState         // the gang this task is a member of, or nil
	row      int                // a singleton's row among the ledger's committed entities; -1 while it holds nothing

	// Inline backing for the one-type case, so admitting it costs the one
	// allocation of the taskState itself, and for a first held unit and a
	// first circuit, so neither does a single-unit grant.
	demand1   [1]DemandEntry
	have1     [1]int
	held1     [1]int
	circuits1 [1]topology.Circuit
}

func newTaskState(t Task) *taskState {
	ts := &taskState{task: t, row: -1}
	ts.demand = t.AppendDemand(ts.demand1[:0])
	ts.held, ts.circuits = ts.held1[:0], ts.circuits1[:0]
	ts.have = ts.have1[:]
	if len(ts.demand) > 1 {
		ts.have = make([]int, len(ts.demand))
	}
	ts.need = ts.demand.Total()
	return ts
}

// CycleResult reports one scheduling cycle.
type CycleResult struct {
	// Mapping is the cycle's solve. Its circuits' links are the planner's
	// and hold until the processor's next grant, which comes only after the
	// circuit is released (EndTransmission, a sever, a withdrawal).
	Mapping  *core.Mapping
	Granted  int // resources granted this cycle
	Deferred int // requests withheld by the avoidance policy
	Broken   int // circuits severed by hardware faults since the previous cycle
	Clocks   int // token-architecture clock periods (TokenArch only)

	// GangsActivated counts gangs admitted by the banker's activation gate
	// at the top of this cycle (their members start competing now).
	GangsActivated int

	// Preempted lists the units this cycle's tier exchanges revoked
	// (Config.Preempt), in plan order; nil when it made none.
	Preempted []Exchange

	// Elapsed is the wall-clock time of the cycle — hooks, discipline
	// solve and circuit establishment — the per-cycle monitor cost in
	// real units alongside the Mapping's primitive-operation counters.
	Elapsed time.Duration
}

// System is the running resource-sharing machine. Not safe for concurrent
// use; callers serialize access as a hardware monitor would.
type System struct {
	cfg    Config
	net    *topology.Network
	queues [][]*taskState // per-processor FIFO of submitted tasks
	tasks  map[TaskID]*taskState
	nextID TaskID

	resHolder    []TaskID // per resource: holding task, or -1
	transmitting []TaskID // per processor: task currently holding a circuit, or -1
	led          ledger   // the banker's books, moved wherever a unit moves (ledger.go)

	// Hardware fault bookkeeping: severedProc[p] marks a transmission
	// torn down by a fault and not yet acknowledged via EndTransmission;
	// broken accumulates severed circuits for the next CycleResult.
	severedProc []bool
	broken      int

	// Gang bookkeeping (see gang.go): gangs by ID (a member's taskState
	// points at its gang) and the FIFO of gangs still gated before banker's
	// activation.
	gangs       map[GangID]*gangState
	gangPending []GangID
	nextGang    GangID

	// Degraded-capacity census cached per fault epoch.
	usableCache      map[int]int
	usableCacheEpoch uint64
	usableCacheOK    bool

	planner core.Planner // recycled solver arenas (MaxFlow residuals, MinCost warm basis, typed-epoch arena)
	// solve is the epoch solver New resolved the configuration into, bound
	// to planner and net. A field rather than a method so a test can
	// install a fake and measure cycle's own cost.
	solve  solveFunc
	clocks int // clock periods of the latest solve; only the token solver sets it

	// Cycle input scratch, reused across cycles.
	reqs   []core.Request
	avail  []core.Avail
	taskOf []*taskState // per processor: the task requesting this cycle, or nil
	prefs  []*taskState // requesting tasks that carry Task.Prefs

	// Observability (zero value = disabled, allocation-free).
	o          sysObs
	cycleCount int64 // completed Cycle calls, stamps trace events

	// The exchange planner's scratch, allocated on first use. A pointer,
	// last, so the fields above keep their offsets and size class for the
	// cycle path, which never plans without Config.Preempt.
	xp *exchangePlan
}

// New validates the configuration and returns an empty system.
func New(cfg Config) (*System, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("system: Net is required")
	}
	if cfg.Preferences != nil && len(cfg.Preferences) != cfg.Net.Ress {
		return nil, fmt.Errorf("system: %d preferences for %d resources", len(cfg.Preferences), cfg.Net.Ress)
	}
	if cfg.Types != nil && len(cfg.Types) != cfg.Net.Ress {
		return nil, fmt.Errorf("system: %d types for %d resources", len(cfg.Types), cfg.Net.Ress)
	}
	if cfg.Preempt && cfg.Discipline != MinCost {
		return nil, fmt.Errorf("system: Preempt requires the MinCost discipline (got %d): "+
			"only its weighted-value solve prefers the more urgent requester for an exchanged unit", cfg.Discipline)
	}
	s := &System{
		cfg:          cfg,
		net:          cfg.Net.Clone(),
		queues:       make([][]*taskState, cfg.Net.Procs),
		tasks:        make(map[TaskID]*taskState),
		resHolder:    make([]TaskID, cfg.Net.Ress),
		transmitting: make([]TaskID, cfg.Net.Procs),
		severedProc:  make([]bool, cfg.Net.Procs),
		taskOf:       make([]*taskState, cfg.Net.Procs),
		gangs:        make(map[GangID]*gangState),
		led:          newLedger(cfg.Net.Ress, cfg.Types),
	}
	for i := range s.resHolder {
		s.resHolder[i] = -1
	}
	for i := range s.transmitting {
		s.transmitting[i] = -1
	}
	s.o = newSysObs(cfg.Obs, cfg.ObsShard)
	var err error
	if s.solve, err = s.resolveSolver(); err != nil {
		return nil, err
	}
	return s, nil
}

// solveFunc is one epoch's solve: map this cycle's requests onto the free
// resources over the fabric as it stands. The slices are cycle scratch and
// must not be retained.
type solveFunc func(reqs []core.Request, avail []core.Avail) (*core.Mapping, error)

// resolveSolver is the one place a discipline is chosen, so it is also
// where the choice is checked against the fabric. The disciplines are
// nested cases of one flow problem: MaxFlow on a typed fabric is the typed
// solver (§III-D with one type is Transformation 1). The two type-blind
// solvers would grant a request a resource of the wrong type, so they
// refuse Types rather than ignore it.
func (s *System) resolveSolver() (solveFunc, error) {
	typed := s.cfg.Types != nil
	switch d := s.cfg.Discipline; d {
	case MaxFlow, Hetero:
		if typed || d == Hetero {
			return s.solveTyped, nil
		}
		return s.solveMaxFlow, nil
	case MinCost, TokenArch:
		if typed {
			return nil, fmt.Errorf("system: discipline %d is type-blind and cannot schedule a fabric with Types (use Hetero)", d)
		}
		if d == MinCost {
			return s.solveMinCost, nil
		}
		return s.tokenSolver(), nil
	default:
		return nil, fmt.Errorf("system: unknown discipline %d", d)
	}
}

// solveMaxFlow is warm max-flow: residual flow persists in the planner's
// arena between cycles.
func (s *System) solveMaxFlow(reqs []core.Request, avail []core.Avail) (*core.Mapping, error) {
	return s.planner.ScheduleIncremental(s.net, reqs, avail)
}

// solveMinCost is warm-basis network simplex: the planner keeps the
// previous epoch's optimal basis and falls back cold on fault-epoch changes
// or divergence (see core.ScheduleMinCostIncremental).
func (s *System) solveMinCost(reqs []core.Request, avail []core.Avail) (*core.Mapping, error) {
	return s.planner.ScheduleMinCostIncremental(s.net, reqs, avail)
}

// solveTyped is bound first, search next, LP last, on the planner's
// typed arena; a mapping is a pure function of this cycle's inputs
// (core.Planner.ScheduleHetero).
func (s *System) solveTyped(reqs []core.Request, avail []core.Avail) (*core.Mapping, error) {
	return s.planner.ScheduleHetero(s.net, reqs, avail, s.cfg.Hetero)
}

// tokenSolver adapts the distributed token simulator, which takes a cycle
// as two masks and reports its clock periods beside the mapping. The masks
// are the adapter's own scratch.
func (s *System) tokenSolver() solveFunc {
	requesting, free := make([]bool, s.net.Procs), make([]bool, s.net.Ress)
	var opts *token.Options
	if s.cfg.Obs != nil {
		opts = &token.Options{Obs: s.cfg.Obs}
	}
	return func(reqs []core.Request, avail []core.Avail) (*core.Mapping, error) {
		clear(requesting)
		clear(free)
		for _, rq := range reqs {
			requesting[rq.Proc] = true
		}
		for _, a := range avail {
			free[a.Res] = true
		}
		tr, err := token.Schedule(s.net, requesting, free, opts)
		if err != nil {
			return nil, err
		}
		s.clocks = tr.Clocks
		return tr.Mapping, nil
	}
}

// Submit queues a task and returns its ID.
func (s *System) Submit(t Task) (TaskID, error) {
	if t.Proc < 0 || t.Proc >= s.net.Procs {
		return 0, fmt.Errorf("system: processor %d out of range", t.Proc)
	}
	if err := ValidateTask(t, s.net.Ress); err != nil {
		return 0, err
	}
	ts := newTaskState(t)
	if err := s.admissible(ts.demand, "task"); err != nil {
		return 0, err
	}
	return s.enqueue(ts), nil
}

// enqueue gives an admitted task its ID and the tail of its processor's
// queue.
func (s *System) enqueue(ts *taskState) TaskID {
	s.nextID++
	ts.id = s.nextID
	s.tasks[ts.id] = ts
	s.queues[ts.task.Proc] = append(s.queues[ts.task.Proc], ts)
	s.led.owed += ts.need
	return ts.id
}

// dequeue removes a task from its processor's queue, wherever in it the
// task stands; no-op if it already left.
func (s *System) dequeue(t *taskState) {
	q := s.queues[t.task.Proc]
	if i := slices.Index(q, t); i >= 0 {
		s.queues[t.task.Proc] = slices.Delete(q, i, i+1)
	}
}

// admissible is the one admission gate, for tasks and gangs alike: the
// demand must fit the usable census (equal to the configured census on a
// healthy fabric; resources lost to a fault or stranded behind a failed
// switchbox cannot complete anyone's acquisition until repaired). A demand
// no surviving resource set can cover — including a type this deployment
// simply does not stock, such as any type but 0 on a fabric without Types —
// must be refused now, or the banker defers the task forever and it wedges
// its queue. The refusal is recorded in the observability layer.
func (s *System) admissible(d Demand, who string) error {
	err := d.Shortfall(s.usableResources())
	if err == nil {
		return nil
	}
	s.o.unsat.Inc()
	s.event(evUnsat, 0, int64(d.Total()), "")
	return fmt.Errorf("system: %s: %w", who, err)
}

// resType reports the configured type of a resource.
func (s *System) resType(r int) int {
	if s.cfg.Types == nil {
		return 0
	}
	return s.cfg.Types[r]
}

// headTask returns the task at the head of a processor's queue, or nil.
func (s *System) headTask(p int) *taskState {
	if len(s.queues[p]) == 0 {
		return nil
	}
	return s.queues[p][0]
}

// remaining reports how many more resources a task needs across all types.
func (t *taskState) remaining() int { return t.need - len(t.held) }

// next picks the demand entry the task's next unit is requested against:
// the lowest-numbered type with outstanding demand, so an acquisition is
// deterministic across cycles.
func (t *taskState) next() int {
	for i, d := range t.demand {
		if t.have[i] < d.Count {
			return i
		}
	}
	return 0
}

// reqType is the type of the next unit the task requests.
func (t *taskState) reqType() int { return t.demand[t.next()].Type }

// requestCandidate picks the task a processor requests for this cycle,
// running the banker's admission when tr is non-nil. The queue head is
// always first in line; behind a head the banker defers (or a head still
// gated before its gang's activation), members of ACTIVE gangs may bypass
// it. Activation admitted the gang into the acquiring set — the per-proc
// FIFO governs entry into that set, not ordering within it — and without
// the bypass a deferred head wedges the fabric: the banker's promised
// completion order can require exactly the buried member's grant (see
// TestGangDifferentialTraces' liveness drain). Without gangs the scan
// degenerates to the head-only discipline.
func (s *System) requestCandidate(p int, tr *trial, res *CycleResult) *taskState {
	if s.transmitting[p] != -1 {
		return nil
	}
	for qi, t := range s.queues[p] {
		if t.remaining() <= 0 {
			continue
		}
		if t.gated() {
			continue
		}
		if qi > 0 && !t.activeMember() {
			// Singletons never bypass: their FIFO contract is
			// position-for-position, and holding nothing while queued they
			// cannot wedge anyone. The scan continues past them — an active
			// member may be buried deeper.
			continue
		}
		if tr != nil && !s.admit(tr, t) {
			res.Deferred++
			continue
		}
		return t
	}
	return nil
}

// Cycle runs one scheduling cycle: pending head tasks request one resource
// each, the configured discipline maps them, and granted circuits are
// established (the processors begin transmitting). The result carries the
// cycle's wall time in Elapsed; with Config.Obs set, the cycle is also
// recorded in the registry (count, solve-time histogram, trace event).
func (s *System) Cycle() (*CycleResult, error) {
	start := time.Now()
	res, err := s.cycle()
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	s.cycleCount++
	if s.o.enabled {
		s.o.cycles.Inc()
		s.o.granted.Add(int64(res.Granted))
		s.o.deferred.Add(int64(res.Deferred))
		s.o.cycleMS.Observe(res.Elapsed.Seconds() * 1e3)
		var c core.SolveCounts
		c.Add(&res.Mapping.Solve)
		s.o.warmSolves.Add(c.WarmSolves)
		s.o.coldSolves.Add(c.ColdSolves)
		s.o.arcsTouched.Add(c.ArcsTouched)
		s.o.retractions.Add(c.Retractions)
		s.o.fastPaths.Add(c.FastPaths)
		s.event(evCycle, 0, int64(res.Granted), "")
	}
	return res, nil
}

// cycle is the uninstrumented cycle body.
func (s *System) cycle() (*CycleResult, error) {
	if s.cfg.FaultHook != nil {
		if err := s.cfg.FaultHook(FaultCycle); err != nil {
			return nil, fmt.Errorf("system: cycle: %w", err)
		}
	}
	if s.cfg.HardwareHook != nil {
		for _, op := range s.cfg.HardwareHook(FaultCycle) {
			if _, err := s.ApplyFault(op); err != nil {
				return nil, fmt.Errorf("system: cycle: scripted hardware fault: %w", err)
			}
		}
	}
	res := &CycleResult{Broken: s.broken}
	s.broken = 0
	// Gangs upgrade the shard to banker's grants for as long as any exist:
	// activation promised each active gang a completion order, and a greedy
	// grant (to a singleton or a rival gang's member) could hand away the
	// units that order depends on — two gangs acquiring concurrently would
	// wedge in hold-and-wait exactly like unguarded singletons.
	var tr *trial
	if s.cfg.Avoidance == AvoidanceBankers || len(s.gangs) > 0 {
		tr = s.led.openTrial()
	}
	// Gate check after the hardware hooks: faults applied above may have
	// reset gangs, and newly safe pending gangs join this very cycle.
	res.GangsActivated = s.activateGangs(tr)
	// Per-cycle inputs are assembled in scratch kept on the System (no
	// solver retains reqs or avail past its call): requests in ascending
	// processor order, free resources in ascending resource order.
	reqs, avail, prefs := s.reqs[:0], s.avail[:0], s.prefs[:0]
	taskOf := s.taskOf
	clear(taskOf)
	for p := 0; p < s.net.Procs; p++ {
		t := s.requestCandidate(p, tr, res)
		if t == nil {
			continue
		}
		reqs = append(reqs, core.Request{Proc: p, Priority: effectivePriority(t.task), Type: t.reqType()})
		taskOf[p] = t
		if t.task.Prefs != nil {
			prefs = append(prefs, t)
		}
	}
	if s.cfg.Preempt {
		// Between admission and the solve: a revoked unit joins the offer
		// list below, a refused beneficiary the requests.
		var err error
		if reqs, prefs, err = s.planExchanges(tr, res, reqs, prefs); err != nil {
			return nil, fmt.Errorf("system: cycle: %w", err)
		}
	}
	for r := 0; r < s.net.Ress; r++ {
		if s.resHolder[r] != -1 || s.net.ResourceFaulted(r) {
			continue
		}
		pref := int64(0)
		if s.cfg.Preferences != nil {
			pref = s.cfg.Preferences[r]
		}
		// Per-task preference weights aggregate onto the cycle's global
		// resource preference (Transformation 2 prices each resource once
		// per cycle; see Task.Prefs).
		for _, t := range prefs {
			pref += t.task.Prefs[r]
		}
		avail = append(avail, core.Avail{Res: r, Preference: pref, Type: s.resType(r)})
	}
	s.reqs, s.avail, s.prefs = reqs, avail, prefs
	if len(reqs) == 0 || len(avail) == 0 {
		res.Mapping = &core.Mapping{}
		return res, nil
	}

	m, err := s.solve(reqs, avail)
	if err != nil {
		return nil, fmt.Errorf("system: cycle: %w", err)
	}
	res.Clocks = s.clocks
	if err := m.Apply(s.net); err != nil {
		return nil, fmt.Errorf("system: establishing circuits: %w", err)
	}
	for _, a := range m.Assigned {
		t := taskOf[a.Req.Proc]
		if t == nil {
			return nil, fmt.Errorf("system: allocation for idle processor %d", a.Req.Proc)
		}
		s.acquire(t, a.Res)
		s.transmitting[a.Req.Proc] = t.id
		s.severedProc[a.Req.Proc] = false // a fresh grant supersedes an unacknowledged sever
		t.circuits = append(t.circuits, a.Circuit)
		res.Granted++
	}
	res.Mapping = m
	return res, nil
}

// EndTransmission releases the circuit a processor holds (the task has
// been shipped to its newest resource). The task stays at the queue head
// until it has acquired all Need resources; then it leaves the queue,
// computing until EndService.
func (s *System) EndTransmission(p int) error {
	if p < 0 || p >= s.net.Procs {
		return fmt.Errorf("system: processor %d out of range", p)
	}
	id := s.transmitting[p]
	if id == -1 {
		if s.severedProc[p] {
			s.severedProc[p] = false
			if s.o.enabled {
				// The caller is learning its unit was lost; the retry (the
				// re-queued request) rides the next cycle.
				s.o.severAcks.Inc()
				s.event(evSeverAck, 0, int64(p), "")
			}
			return fmt.Errorf("system: processor %d: %w", p, ErrCircuitSevered)
		}
		return fmt.Errorf("system: processor %d is not transmitting", p)
	}
	if s.cfg.FaultHook != nil {
		if err := s.cfg.FaultHook(FaultEndTransmission); err != nil {
			return fmt.Errorf("system: end transmission: %w", err)
		}
	}
	t := s.tasks[id]
	last := len(t.circuits) - 1
	if err := s.net.Release(t.circuits[last]); err != nil {
		return fmt.Errorf("system: releasing circuit: %w", err)
	}
	t.circuits = t.circuits[:last]
	s.transmitting[p] = -1
	if t.remaining() == 0 {
		// Task fully provisioned; it leaves the queue. Usually the head,
		// but an active gang member may have been granted past a deferred
		// head (see requestCandidate), so remove it by identity.
		s.dequeue(t)
	}
	return nil
}

// Cancel withdraws a task at any point before EndService: it is removed
// from its processor's queue, any in-flight circuit is torn down, and
// every resource it holds returns to the free pool. Unlike EndService it
// does not require the task to be fully provisioned or idle, so a client
// that abandons a queued or partially-provisioned task (a deadline, a
// crashed caller) cannot strand its queue-head slot or leak held units.
func (s *System) Cancel(id TaskID) error {
	if t := s.tasks[id]; t != nil && t.gang != nil {
		return fmt.Errorf("system: task %d belongs to gang %d; use CancelGang (the gang is the unit of withdrawal)", id, t.gang.id)
	}
	return s.cancelTask(id)
}

// cancelTask is the gang-unaware withdrawal body shared by Cancel and
// CancelGang.
func (s *System) cancelTask(id TaskID) error {
	t, ok := s.tasks[id]
	if !ok {
		return fmt.Errorf("system: unknown task %d", id)
	}
	p := t.task.Proc
	for _, c := range t.circuits {
		if err := s.net.Release(c); err != nil {
			return fmt.Errorf("system: canceling task %d: releasing circuit: %w", id, err)
		}
	}
	if s.transmitting[p] == id {
		s.transmitting[p] = -1
	}
	s.severedProc[p] = false // withdrawing the task retires any unacknowledged sever
	s.vacateAll(t)
	s.led.closeRow(&t.row) // a gang member has none; CancelGang closes the gang's
	s.led.owed -= t.remaining()
	s.dequeue(t)
	delete(s.tasks, id)
	return nil
}

// EndService completes a task: all its resources become free and the
// task's bookkeeping is dropped, so a long-running system does not grow
// with its service history. A second EndService on the same ID therefore
// reports the task as unknown.
func (s *System) EndService(id TaskID) error {
	t, ok := s.tasks[id]
	if !ok {
		return fmt.Errorf("system: unknown task %d", id)
	}
	if t.gang != nil {
		return fmt.Errorf("system: task %d belongs to gang %d; use EndGangService (the gang releases together)", id, t.gang.id)
	}
	if t.remaining() != 0 {
		return fmt.Errorf("system: task %d still needs %d resources", id, t.remaining())
	}
	if s.transmitting[t.task.Proc] == id {
		return fmt.Errorf("system: task %d is still transmitting", id)
	}
	s.vacateAll(t)
	s.led.closeRow(&t.row)
	delete(s.tasks, id)
	return nil
}

// Holding reports the resources currently held by a task, in a slice of
// its own.
func (s *System) Holding(id TaskID) []int { return s.AppendHolding(nil, id) }

// AppendHolding is Holding appending to dst, for a caller that keeps the
// answer in storage of its own; an unknown task appends nothing.
func (s *System) AppendHolding(dst []int, id TaskID) []int {
	if t, ok := s.tasks[id]; ok {
		dst = append(dst, t.held...)
	}
	return dst
}

// Remaining reports how many more resources a task must acquire before it
// is fully provisioned (0 means ready to compute / EndService), or -1 if
// the task is unknown or already serviced.
func (s *System) Remaining(id TaskID) int {
	t, ok := s.tasks[id]
	if !ok {
		return -1
	}
	return t.remaining()
}

// Transmitting reports the task currently holding processor p's circuit,
// or -1.
func (s *System) Transmitting(p int) TaskID {
	if p < 0 || p >= len(s.transmitting) {
		return -1
	}
	return s.transmitting[p]
}

// FreeResources counts unheld resources, faulted or not.
func (s *System) FreeResources() int { return s.led.unheld }

// Pending counts unserviced submitted tasks.
func (s *System) Pending() int { return len(s.tasks) }

// Deadlocked reports the hold-and-wait deadlock of §II: no transmission is
// in flight, no fully-provisioned task remains to be serviced, and every
// waiting head task needs a resource type with no free unit left — while
// at least one of those waiters is itself holding resources.
func (s *System) Deadlocked() bool {
	for p := range s.transmitting {
		if s.transmitting[p] != -1 {
			return false // a transmission will complete and free a port
		}
	}
	anyWaitingHolder := false
	for _, t := range s.tasks {
		if t.remaining() == 0 {
			return false // serviceable: progress possible
		}
		if len(t.held) == 0 {
			continue // waiting but holding nothing: not part of a deadlock
		}
		head := s.headTask(t.task.Proc)
		if head != t {
			continue
		}
		// A task makes progress if ANY type it still needs has a free unit.
		for i, d := range t.demand {
			if t.have[i] < d.Count && s.led.free[s.led.typeIndex(d.Type)] > 0 {
				return false // a cycle could grant it (ignoring link blockage)
			}
		}
		anyWaitingHolder = true
	}
	return anyWaitingHolder
}
