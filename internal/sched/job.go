package sched

import (
	"context"
	"sync"

	"rsin/internal/system"
)

// job is the one kind of tracked work: a set of member tasks on one shard
// that is admitted, provisioned, severed, withdrawn and released as a
// unit — one System entity. A singleton task is the one-member case; a
// gang has k >= 2 members. Handle and GangHandle are typed views of the
// same job; below the Submit boundary only the reporting tells the two
// apart (count, jobEvent, chargeSever, observeGrant).
type job struct {
	shard  int
	gen    int             // shard restart generation the job was admitted under
	label  string          // GangSpec.Label: the Result of the gang's submit trace event
	ids    []system.TaskID // member task IDs in member order, set at admission; the first is the entity's
	demand system.Demand   // summed over members, for admission and degraded-capacity rechecks
	tier   int             // most urgent member tier, for the per-tier instruments
	severs int             // sever events charged; bounded by Config.SeverRetries
	done   chan struct{}
	stop   func() bool // ends the context watch; deliver calls it as Done fires
	res    [][]int     // per member; written by the epoch before done closes
	held   []int       // the one backing array res's slices share
	err    error       // terminal error; written before done closes

	// The release's reply travels on the job, not on one made per call:
	// end holds endMu across its post and wait, so racing releases of one
	// handle queue behind one another on the one reply.
	endMu sync.Mutex
	ended reply

	// Observability bookkeeping, touched only when Config.Obs is set.
	submitNano int64 // Submit wall-clock, for the submit-to-grant histograms
	grantNano  int64 // provisioning wall-clock, for grant-to-release
	// finished marks the job's terminal counters as recorded, so repeated
	// releases against lost grants (shard restart, dead shard) cannot
	// double-count Failed. Written only by an epoch.
	finished bool

	// Inline backing for a singleton: it costs one struct and one channel,
	// whatever it is a view of, and a demand of up to inlineTypes types and
	// a grant of up to inlineUnits units are recorded without a slice of
	// their own.
	id1      [1]system.TaskID
	res1     [1][]int
	heldIn   [inlineUnits]int
	demandIn [inlineTypes]system.DemandEntry
}

// The inline capacities of a singleton's demand and grant: a typed task on
// a three-type pool names at most three types, and a grant of four units
// covers nearly every vector it asks for.
const (
	inlineTypes = 3
	inlineUnits = 4
)

// storage is where a job's ids, demand or grant is written: what the job
// kept from an earlier submission (reuse), emptied, or else its inline
// array.
func storage[T any](kept, inline []T) []T {
	if cap(kept) > 0 {
		return kept[:0]
	}
	return inline
}

// reuse readies a released job for its next submission, and only
// RunCollective reuses one, between phases. Every field starts from zero —
// the sever budget, the terminal marks, the label and the release's reply
// among them — while the ids, demand and grant storage keep their
// capacity, so the next phase grows into them instead of allocating. It is
// valid once EndGang has returned nil for a submission whose context had
// not ended: the release retired the entity and its demand in the System,
// so no shard list, trace event or System record refers to the job, and
// the context watch was stopped before it could post a cancel addressed to
// it.
func (j *job) reuse() {
	*j = job{ids: j.ids[:0], demand: j.demand[:0], res: j.res[:0], held: j.held[:0]}
}

// Done is closed once every member is fully provisioned (or the job has
// failed — check Err). There is no intermediate state: before Done fires
// no grant is visible, after it either all members hold their complete
// sets or Err is non-nil.
func (j *job) Done() <-chan struct{} { return j.done }

// Err reports the terminal error. Valid after Done is closed.
func (j *job) Err() error { return j.err }

// describe records what a validated submission is: its summed demand —
// which the System keeps as the entity's — and its most urgent member's
// tier: a job is as urgent as that.
func (j *job) describe(members []system.Task) {
	j.demand, j.tier = system.AppendGangDemand(storage(j.demand, j.demandIn[:0]), members), members[0].Tier
	for _, m := range members[1:] {
		j.tier = min(j.tier, m.Tier)
	}
}

// entity is the System's ID of the job's entity: its first member's.
func (j *job) entity() system.GangID { return system.GangID(j.ids[0]) }

// units is the job's total unit demand, the Val of its trace events.
func (j *job) units() int64 { return int64(j.demand.Total()) }

// Handle tracks one submitted task. Wait on Done(), then check Err() and
// read Resources(); pass the handle to EndService when the task finishes
// computing.
type Handle struct{ job }

// Resources lists the resources granted to the task. Valid after Done is
// closed. The slice is the grant the shard recorded, not a copy: it
// belongs to the handle, nothing writes it once Done has fired (EndService
// included), and a caller only reads it.
func (h *Handle) Resources() []int {
	if len(h.res) == 0 {
		return nil
	}
	return h.res[0]
}

// GangHandle tracks one submitted gang. Wait on Done(), then check Err()
// and read Resources(); pass the handle to EndGang when the gang finishes
// computing.
type GangHandle struct{ job }

// Resources lists the resources granted per member, in GangSpec.Members
// order. Valid after Done is closed with a nil Err. Like Handle.Resources
// it is the recorded grant, which belongs to the handle and which a caller
// only reads: the members' slices share one backing array.
func (h *GangHandle) Resources() [][]int { return h.res }

type opKind int

const (
	opSubmit opKind = iota
	opEnd
	opCancel
	opFault
)

type op struct {
	kind    opKind
	j       *job
	one     [1]system.Task   // opSubmit of a singleton: its task, inline (no slice to allocate)
	members []system.Task    // opSubmit of a gang: the validated member tasks
	ctx     context.Context  // opSubmit: watched for its end once the job is tracked
	reply   *reply           // opEnd, opFault: where deliver answers err (opEnd's is its job's)
	err     error            // opEnd, opFault: the outcome, recorded by apply for deliver
	cause   error            // opCancel: the context's Err at cancellation
	faults  []system.FaultOp // opFault: one correlated hardware event (one sever charge)
}

// reply is where a blocked caller waits for its op's outcome: deliver
// records err, then marks wg done. Every op whose caller blocks on it, a
// release or a fault batch, carries one.
type reply struct {
	wg  sync.WaitGroup
	err error
}

func (r *reply) wait() error {
	r.wg.Wait()
	return r.err
}

// tasks is an opSubmit's members: a gang's, or the singleton's one.
func (o *op) tasks() []system.Task {
	if o.members != nil {
		return o.members
	}
	return o.one[:]
}

// outcome classes a job's entry into or exit from the terminal accounting
// (see Stats).
type outcome int

const (
	submitted outcome = iota
	serviced
	canceled
	failed
)

// count charges an outcome to the shard's running totals: member-wise in the task
// counters — a gang of k contributes k to Submitted and k to exactly one
// of Serviced/Canceled/Failed, so the terminal identity holds with gangs
// in the mix — plus one in the matching Gangs* counter.
func (j *job) count(tot *Stats, o outcome) {
	tasks, gangs := &tot.Submitted, &tot.GangsSubmitted
	switch o {
	case serviced:
		tasks, gangs = &tot.Serviced, &tot.GangsServiced
	case canceled:
		tasks, gangs = &tot.Canceled, &tot.GangsCanceled
	case failed:
		tasks, gangs = &tot.Failed, &tot.GangsFailed
	}
	*tasks += int64(len(j.ids))
	if len(j.ids) > 1 {
		*gangs++
	}
}

// evPair is one life-cycle event's trace kind for a singleton and for a
// gang; both carry the entity's ID, a singleton's task ID.
type evPair struct{ task, gang string }

var (
	kSubmit  = evPair{evSubmit, evGangSubmit}
	kGrant   = evPair{evGrant, evGangGrant}
	kService = evPair{evService, evGangService}
	kCancel  = evPair{evCancel, evGangCancel}
	kFailed  = evPair{evFailed, evGangFailed}
)

// jobEvent records a life-cycle trace event for an admitted job.
func (s *Scheduler) jobEvent(sh *shard, j *job, k evPair, val int64, result string) {
	if s.o.trace == nil {
		return
	}
	kind := k.task
	if len(j.ids) > 1 {
		kind = k.gang
	}
	s.event(sh, kind, int64(j.ids[0]), val, result)
}
