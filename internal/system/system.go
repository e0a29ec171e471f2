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
	"iter"
	"math"
	"slices"

	"rsin/internal/core"
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

// ErrCircuitSevered marks work lost to hardware faults. The System itself
// never returns it: ApplyFaults reports each severed task in its returned
// list, and the unit is already re-queued on the surviving fabric. A
// service wraps it when a task or gang has been severed more often than
// its retry budget allows.
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

// FaultOp is the failure or repair of one component. Apply a batch of them,
// one hardware event, with System.ApplyFaults.
type FaultOp struct {
	Repair bool
	Target FaultTarget
	Index  int
}

// TaskID identifies a submitted task. It is opaque: it packs the slot of
// the task's record in the System's task table with the slot's
// generation, so IDs are positive but not sequential (a fresh System
// hands out 1, 2, 3, ... until it reuses a slot), and an ID names one task
// for good: once the task has left the System its ID reads as unknown,
// even after the slot holds another task (DESIGN.md §23).
type TaskID int

// The TaskID packing: ID = gen<<slotBits | slot, plus one so that the
// first task of a fresh System is 1 and no ID is 0 or negative. The shift
// fits every int width Go builds for: the slot takes the low slotBits
// bits and the generation the rest, which on a 32-bit int is maxGen+1 = 127
// generations per slot. A slot that has carried maxGen is not reused, so
// no generation ever wraps and no stale ID can alias a live task.
const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	maxSlots = 1 << slotBits
	maxGen   = math.MaxInt>>slotBits - 1
)

func packID(slot, gen int) TaskID { return TaskID(gen<<slotBits|slot) + 1 }

// Slot reports the slot of the task table an ID names: a dense index, below
// the number of records the System has ever made, that a caller can key
// its own per-task table by. Slots are reused; check the full ID too.
func (id TaskID) Slot() int { return int(id-1) & slotMask }

// Task is one unit of work requiring Need resources (all of type Type),
// acquired sequentially — or, with Needs set, a typed demand vector spanning
// several resource types at once. Both forms are read once, through
// AppendDemand; nothing below Submit sees the difference.
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
	ent      *entity            // the entity the task is a member of: its own, or its first member's
	own      entity             // the entity this task heads; unused by a gang's later members

	// The record's place in the task table: its slot for life, and the
	// generation its next ID will carry. id is 0 while the record is
	// retired, so no ID matches it.
	slot, gen int
	// seq numbers admitted tasks in submission order, which IDs no longer
	// follow: the exchange planner's tie-break (moreUrgent, lessUrgent).
	seq uint64

	// Inline backing for the one-type case, for a first held unit and for
	// a first circuit, so the first record made for a single-unit task
	// needs no slice of its own. A reused record keeps whatever backing
	// its earlier tasks grew (see retire).
	demand1   [1]DemandEntry
	have1     [1]int
	held1     [1]int
	circuits1 [1]topology.Circuit
}

// entity is what the System admits, commits, severs, withdraws and
// releases as one: a task alone, or a gang of k >= 2 member tasks
// (DESIGN.md §18). It lives in its first member's record, so a task alone
// costs nothing beyond its record, and its ID is that member's.
type entity struct {
	members []*taskState // in member order; members[0] carries the entity
	demand  Demand       // summed over members, as its submitter gave it; read-only
	atGate  bool         // a gang waiting at the activation gate; never a task alone
	row     int          // the entity's row among the ledger's committed entities; -1 while it is not committed

	members1 [1]*taskState // inline backing for a task alone
}

// newTaskState makes the record of an admitted task, reusing a retired
// one, and with it the record's slot, when there is one, so a steady
// stream of submissions allocates no records and no slices once its
// largest demand has been seen. A new record takes the next slot of the
// table; the caller has checked there is one (roomFor).
func (s *System) newTaskState(t Task) *taskState {
	var ts *taskState
	if n := len(s.spare); n > 0 {
		ts, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		ts = &taskState{slot: len(s.slots)}
		ts.demand, ts.have, ts.held, ts.circuits = ts.demand1[:0], ts.have1[:0], ts.held1[:0], ts.circuits1[:0]
		ts.own = entity{members: ts.own.members1[:0], row: -1}
		s.slots = append(s.slots, ts)
	}
	ts.task = t
	ts.demand = t.AppendDemand(ts.demand)
	ts.have = append(ts.have, make([]int, len(ts.demand))...)
	ts.need = ts.demand.Total()
	return ts
}

// retire keeps the record of a task that has left the System for the next
// newTaskState: every field reads as a new record's would, and only the
// backing arrays of its five slices survive, emptied, with its slot. Its
// ID goes (id 0 matches no ID), so the task table stops answering to it,
// and the slot's next task gets the next generation. The caller has
// already dropped the task from every other place that names it — its
// queue, its entity's ledger row, the gate's FIFO, its processor's
// transmitter slot — and the cycle scratch that also holds records
// (taskOf, prefs, the exchange plan) is rebuilt before it is read. A slot
// that has carried its last generation leaves the table for good.
// DESIGN.md §23 gives the invariant, TestReusedTaskStateStartsClean and
// TestReusedSlotRejectsStaleID hold it.
func (s *System) retire(t *taskState) {
	gen := t.gen
	if t.id != 0 {
		s.live--
		gen++
	}
	members := t.own.members
	clear(members)
	*t = taskState{demand: t.demand[:0], have: t.have[:0], held: t.held[:0], circuits: t.circuits[:0],
		own: entity{members: members[:0], row: -1}, slot: t.slot, gen: gen}
	if gen > maxGen {
		s.slots[t.slot] = nil
		return
	}
	s.spare = append(s.spare, t)
}

// roomFor reports an error when the task table has no slot left for n
// more tasks.
func (s *System) roomFor(n int) error {
	if len(s.spare)+maxSlots-len(s.slots) < n {
		return fmt.Errorf("system: %d tasks in the System, the most its task table holds", s.live)
	}
	return nil
}

// task returns the live task an ID names, or nil: an ID out of every
// slot's range, of a retired task, or of a slot's earlier generation is
// unknown.
func (s *System) task(id TaskID) *taskState {
	if id <= 0 {
		return nil
	}
	if slot := id.Slot(); slot < len(s.slots) {
		if t := s.slots[slot]; t != nil && t.id == id {
			return t
		}
	}
	return nil
}

// entity returns the live entity an ID addresses: the one whose first
// member it names.
func (s *System) entity(id TaskID) (*entity, error) {
	if t := s.task(id); t != nil && t.ent == &t.own {
		return t.ent, nil
	}
	return nil, fmt.Errorf("system: unknown task %d (an entity is addressed by its first member)", id)
}

// alone is entity for the per-task calls, EndService (and the tests'
// Cancel), which refuse a gang: it is withdrawn and released whole, by its
// GangID.
func (s *System) alone(id TaskID) (*entity, error) {
	e, err := s.entity(id)
	if err == nil && len(e.members) > 1 {
		return nil, fmt.Errorf("system: task %d heads a gang; the gang is withdrawn and released whole", id)
	}
	return e, err
}

// provisioned reports whether every member of an entity holds its full
// set: a resource fault's still-acquiring rule, and the immunity of Preempt
// and of the sever reset.
func (e *entity) provisioned() bool {
	for _, t := range e.members {
		if t.remaining() > 0 {
			return false
		}
	}
	return true
}

// tasks yields every live task in slot order.
func (s *System) tasks() iter.Seq[*taskState] {
	return func(yield func(*taskState) bool) {
		for _, t := range s.slots {
			if t != nil && t.id != 0 && !yield(t) {
				return
			}
		}
	}
}

// CycleResult reports one scheduling cycle. The System reuses it: a
// result is valid until the next Cycle, and a caller that keeps any of it
// longer copies it first.
type CycleResult struct {
	// Mapping is the cycle's solve. Its circuits' links are the planner's
	// and hold until the processor's next grant, which comes only after the
	// circuit is released (EndTransmission, a sever, a withdrawal). A cycle
	// with nothing to solve returns the System's one empty Mapping, which
	// nobody writes.
	Mapping  *core.Mapping
	Granted  int // resources granted this cycle
	Deferred int // requests withheld by the avoidance policy
	Clocks   int // token-architecture clock periods (TokenArch only)

	// GangsActivated counts gangs admitted by the banker's activation gate
	// at the top of this cycle (their members start competing now).
	GangsActivated int

	// Preempted lists the units this cycle's tier exchanges revoked
	// (Config.Preempt), in plan order; nil when it made none.
	Preempted []Exchange
}

// System is the running resource-sharing machine. Not safe for concurrent
// use; callers serialize access as a hardware monitor would.
type System struct {
	cfg    Config
	net    *topology.Network
	queues [][]*taskState // per-processor FIFO of submitted tasks
	// The task table: every record the System has made, by slot (nil for
	// a slot past its last generation). A record is live while its id is
	// set; task looks an ID up, tasks walks the live ones.
	slots []*taskState
	live  int          // live tasks: submitted and not yet serviced or withdrawn
	seq   uint64       // tasks admitted so far: the last taskState.seq given
	spare []*taskState // retired records newTaskState reuses (retire)

	resHolder    []TaskID // per resource: holding task, or -1
	transmitting []TaskID // per processor: task currently holding a circuit, or -1
	led          ledger   // the banker's books, moved wherever a unit moves (ledger.go)

	// Gang bookkeeping (see gang.go): the FIFO of gangs gated before the
	// banker's activation, and the live entities' members beyond their first.
	gangPending []*entity
	joined      int

	census  map[int]int // UsableResources: a fault batch replaces it, never writes it
	changed []FaultOp   // ApplyFaults' report, reused across batches
	severed []TaskID

	planner core.Planner // warm solver state (whole-fabric arena, MinCost basis)
	// solve is the epoch solver New resolved the configuration into, bound
	// to planner and net. A field rather than a method so a test can
	// install a fake and measure cycle's own cost.
	solve  solveFunc
	clocks int // clock periods of the latest solve; only the token solver sets it

	// res is the result every Cycle returns, and noMapping the Mapping of
	// a cycle with nothing to solve.
	res       CycleResult
	noMapping core.Mapping

	sum Demand // SubmitEntity's scratch: a gang's summed demand

	// Cycle input scratch, reused across cycles.
	reqs   []core.Request
	avail  []core.Avail
	taskOf []*taskState // per processor: the task requesting this cycle, or nil
	prefs  []*taskState // requesting tasks that carry Task.Prefs

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
		resHolder:    make([]TaskID, cfg.Net.Ress),
		transmitting: make([]TaskID, cfg.Net.Procs),
		taskOf:       make([]*taskState, cfg.Net.Procs),
		led:          newLedger(cfg.Net.Ress, cfg.Types),
	}
	s.census = s.net.UsableByType(cfg.Types)
	for i := range s.resHolder {
		s.resHolder[i] = -1
	}
	for i := range s.transmitting {
		s.transmitting[i] = -1
	}
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

// solveMaxFlow is max-flow on the planner's whole-fabric arena: its
// structure and memory persist between cycles, its flow does not (see
// core.Planner.ScheduleIncremental).
func (s *System) solveMaxFlow(reqs []core.Request, avail []core.Avail) (*core.Mapping, error) {
	return s.planner.ScheduleIncremental(s.net, reqs, avail)
}

// solveMinCost is certified max-flow first, warm-basis network simplex
// otherwise: a cycle whose every request the max-flow arena grants a
// resource of the top offered preference is optimal without the simplex;
// any other cycle runs the simplex on the previous epoch's basis, falling
// back cold on fault-epoch changes or divergence (see
// core.Planner.ScheduleMinCostIncremental).
func (s *System) solveMinCost(reqs []core.Request, avail []core.Avail) (*core.Mapping, error) {
	return s.planner.ScheduleMinCostIncremental(s.net, reqs, avail)
}

// solveTyped is bound first, search next, LP last, on the planner's
// whole-fabric arena; a mapping is a pure function of this cycle's inputs
// (core.Planner.ScheduleHetero).
func (s *System) solveTyped(reqs []core.Request, avail []core.Avail) (*core.Mapping, error) {
	return s.planner.ScheduleHetero(s.net, reqs, avail, s.cfg.Hetero)
}

// tokenSolver adapts the distributed token simulator, which takes a cycle
// as two masks and reports its clock periods beside the mapping. The masks
// are the adapter's own scratch.
func (s *System) tokenSolver() solveFunc {
	requesting, free := make([]bool, s.net.Procs), make([]bool, s.net.Ress)
	return func(reqs []core.Request, avail []core.Avail) (*core.Mapping, error) {
		clear(requesting)
		clear(free)
		for _, rq := range reqs {
			requesting[rq.Proc] = true
		}
		for _, a := range avail {
			free[a.Res] = true
		}
		tr, err := token.Schedule(s.net, requesting, free, nil)
		if err != nil {
			return nil, err
		}
		s.clocks = tr.Clocks
		return tr.Mapping, nil
	}
}

// Submit queues a task and returns its ID: an entity of one.
func (s *System) Submit(t Task) (TaskID, error) {
	one, id := [1]Task{t}, [1]TaskID{}
	_, err := s.SubmitEntity(one[:], nil, id[:0])
	return id[0], err
}

// SubmitEntity is the one submission body, under Submit and SubmitGang:
// it admits members (ValidateMembers) as one entity whose summed demand
// must fit the usable census, queues each, and appends their IDs to ids in
// member order. The first ID, as a GangID, addresses the entity. sum is
// GangDemand(members), which the System keeps, unwritten, for the
// entity's life; nil stands for the first member's own demand, the sum of
// an entity of one. Any other sum is refused with ErrBadTask: the banker
// charges it and admission tests it, so a wrong one would overdraw the
// entity's ledger row or queue work the fabric can never serve.
func (s *System) SubmitEntity(members []Task, sum Demand, ids []TaskID) ([]TaskID, error) {
	if err := ValidateMembers(members, s.net.Procs, s.net.Ress); err != nil {
		return ids, fmt.Errorf("system: %w", err)
	}
	if err := s.roomFor(len(members)); err != nil {
		return ids, err
	}
	head := s.newTaskState(members[0])
	want := head.demand // a member's own demand is already sorted and summed
	if len(members) > 1 {
		s.sum = AppendGangDemand(s.sum[:0], members)
		want = s.sum
	}
	if sum == nil {
		sum = head.demand
	}
	if !slices.Equal(sum, want) {
		s.retire(head)
		return ids, fmt.Errorf("%w: demand %v is not the members' summed demand %v", ErrBadTask, sum, want)
	}
	if err := s.admissible(sum); err != nil {
		s.retire(head)
		return ids, err
	}
	ids = slices.Grow(ids, len(members))
	e := &head.own
	e.demand, e.members = sum, append(e.members, head)
	for _, t := range members[1:] {
		e.members = append(e.members, s.newTaskState(t))
	}
	for _, t := range e.members {
		t.ent = e
		ids = append(ids, s.enqueue(t))
	}
	// Rule 1 (DESIGN.md §18): a gang waits at the gate; a task alone is
	// committed by its first admitted unit.
	if len(e.members) > 1 {
		e.atGate = true
		s.gangPending = append(s.gangPending, e)
	}
	s.joined += len(e.members) - 1
	return ids, nil
}

// enqueue gives an admitted task its ID, its slot's generation packed
// with the slot, and the tail of its processor's queue.
func (s *System) enqueue(ts *taskState) TaskID {
	ts.id = packID(ts.slot, ts.gen)
	s.live++
	s.seq++
	ts.seq = s.seq
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

// admissible is the one admission gate: an entity's summed demand must
// fit the usable census (equal to the configured census on a healthy
// fabric; resources lost to a fault or stranded behind a failed switchbox
// cannot complete anyone's acquisition until repaired). A demand no
// surviving resource set can cover — including a type this deployment
// simply does not stock, such as any type but 0 on a fabric without Types —
// must be refused now, or the banker defers the task forever and it wedges
// its queue.
func (s *System) admissible(d Demand) error {
	if err := d.Shortfall(s.census); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	return nil
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
// always first in line; behind a head the banker defers (or a head gated
// before its gang's activation), members of ACTIVE gangs may bypass it
// (rule 3, DESIGN.md §18). Activation admitted the gang into the acquiring
// set — the per-proc FIFO governs entry into that set, not ordering within
// it — and without the bypass a deferred head wedges the fabric: the
// banker's promised completion order can require exactly the buried
// member's grant (see TestGangDifferentialTraces' liveness drain). Without
// gangs the scan degenerates to the head-only discipline.
func (s *System) requestCandidate(p int, tr *trial, res *CycleResult) *taskState {
	if s.transmitting[p] != -1 {
		return nil
	}
	for qi, t := range s.queues[p] {
		if t.remaining() <= 0 || t.ent.atGate {
			continue
		}
		if qi > 0 && len(t.ent.members) == 1 {
			// A task alone never bypasses: its FIFO contract is
			// position-for-position, and holding nothing while queued it
			// cannot wedge anyone. The scan continues past it — an active
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
// established (the processors begin transmitting). It reads no clock; the
// caller times it if it wants to.
func (s *System) Cycle() (*CycleResult, error) {
	if s.cfg.FaultHook != nil {
		if err := s.cfg.FaultHook(FaultCycle); err != nil {
			return nil, fmt.Errorf("system: cycle: %w", err)
		}
	}
	res := &s.res
	*res = CycleResult{}
	// Rule 2: gangs upgrade the shard to banker's grants for as long as any
	// is live: activation promised each active gang a completion order, and
	// a greedy grant could hand away the units that order depends on — two
	// gangs acquiring concurrently would wedge in hold-and-wait.
	var tr *trial
	if s.cfg.Avoidance == AvoidanceBankers || s.joined > 0 {
		tr = s.led.openTrial()
	}
	// Gangs a fault reset, and pending gangs now safe, join this very cycle.
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
		res.Mapping = &s.noMapping
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
		return fmt.Errorf("system: processor %d is not transmitting", p)
	}
	if s.cfg.FaultHook != nil {
		if err := s.cfg.FaultHook(FaultEndTransmission); err != nil {
			return fmt.Errorf("system: end transmission: %w", err)
		}
	}
	t := s.task(id)
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

// withdraw is the one withdrawal body, under CancelGang (err is the entity
// lookup's): every member leaves its queue, in-flight circuits are torn
// down and held units return to the pool.
func (s *System) withdraw(e *entity, err error) error {
	if err != nil {
		return err
	}
	for _, t := range e.members {
		for _, c := range t.circuits {
			if err := s.net.Release(c); err != nil {
				return fmt.Errorf("system: withdrawing task %d: releasing circuit: %w", t.id, err)
			}
		}
		if p := t.task.Proc; s.transmitting[p] == t.id {
			s.transmitting[p] = -1
		}
		s.vacateAll(t)
		s.led.owed -= t.remaining()
		s.dequeue(t)
	}
	s.leave(e)
	return nil
}

// EndService completes a task: all its resources become free and the
// task's bookkeeping is dropped, so a long-running system does not grow
// with its service history. A second EndService on the same ID therefore
// reports the task as unknown.
func (s *System) EndService(id TaskID) error { return s.release(s.alone(id)) }

// release is the one release body, under EndService and EndGangService
// (err is the entity lookup's): every member must be fully provisioned and
// idle, and all their resources return to the pool together.
func (s *System) release(e *entity, err error) error {
	if err != nil {
		return err
	}
	for _, t := range e.members {
		if t.remaining() != 0 {
			return fmt.Errorf("system: task %d still needs %d resources", t.id, t.remaining())
		}
		if s.transmitting[t.task.Proc] == t.id {
			return fmt.Errorf("system: task %d is still transmitting", t.id)
		}
	}
	for _, t := range e.members {
		s.vacateAll(t)
	}
	s.leave(e)
	return nil
}

// leave drops an entity that holds nothing any more: its ledger row
// closes, a gated one leaves the gate's FIFO, and its records retire — the
// first, which carries the entity, last.
func (s *System) leave(e *entity) {
	s.led.closeRow(&e.row)
	if e.atGate {
		s.gangPending = slices.DeleteFunc(s.gangPending, func(g *entity) bool { return g == e })
	}
	s.joined -= len(e.members) - 1
	for i := len(e.members) - 1; i >= 0; i-- {
		s.retire(e.members[i])
	}
}

// Holding reports the resources currently held by a task, in a slice of
// its own.
func (s *System) Holding(id TaskID) []int { return s.AppendHolding(nil, id) }

// AppendHolding is Holding appending to dst, for a caller that keeps the
// answer in storage of its own; an unknown task appends nothing.
func (s *System) AppendHolding(dst []int, id TaskID) []int {
	if t := s.task(id); t != nil {
		dst = append(dst, t.held...)
	}
	return dst
}

// Remaining reports how many more resources a task must acquire before it
// is fully provisioned (0 means ready to compute / EndService), or -1 if
// the task is unknown or already serviced.
func (s *System) Remaining(id TaskID) int {
	t := s.task(id)
	if t == nil {
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
func (s *System) Pending() int { return s.live }

// Deadlocked reports the hold-and-wait deadlock of §II: no transmission is
// in flight, no fully-provisioned task remains to be serviced, and every
// waiting head task needs a resource type with no free unit left — while
// at least one of those waiters is itself holding resources. It walks the
// tasks in slot order, so its answer is a function of the System's state.
func (s *System) Deadlocked() bool {
	for p := range s.transmitting {
		if s.transmitting[p] != -1 {
			return false // a transmission will complete and free a port
		}
	}
	anyWaitingHolder := false
	for t := range s.tasks() {
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
