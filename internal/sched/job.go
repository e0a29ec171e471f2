package sched

import (
	"sync"

	"rsin/internal/system"
)

// job is the one kind of tracked work: a set of member tasks on one shard
// that is admitted, provisioned, severed, withdrawn and released as a
// unit. A singleton task is the one-member case; a gang has k >= 2
// members and a System gang ID. Handle and GangHandle are typed views of
// the same job — below the Submit boundary nothing else tells the two
// apart except the few methods at the bottom of this file.
type job struct {
	shard  int
	gen    int             // shard restart generation the job was admitted under
	gang   system.GangID   // the System's gang ID, set at admission; 0 for a singleton
	label  string          // GangSpec.Label: the Result of the gang's submit trace event
	ids    []system.TaskID // member task IDs in member order, set at admission
	demand system.Demand   // summed over members, for degraded-capacity rechecks
	tier   int             // most urgent member tier, for the per-tier instruments
	severs int             // sever events charged; bounded by Config.SeverRetries
	done   chan struct{}
	res    [][]int // per member; written by the shard goroutine before done closes
	err    error   // terminal error; written before done closes

	// The release's reply travels on the job, not on a channel made per
	// call: end holds endMu across its send and wait, so racing calls queue
	// behind one another, and the shard writes endErr before it marks ended
	// done.
	endMu  sync.Mutex
	ended  sync.WaitGroup
	endErr error

	// Observability bookkeeping, touched only when Config.Obs is set.
	submitNano int64 // Submit wall-clock, for the submit-to-grant histograms
	grantNano  int64 // provisioning wall-clock, for grant-to-release
	// finished marks the job's terminal counters as recorded, so repeated
	// releases against lost grants (shard restart, dead shard) cannot
	// double-count Failed. Written only by the shard goroutine.
	finished bool

	// Inline backing for the one-member, one-type case: a singleton costs
	// one struct and one channel, whatever it is a view of, and a one-unit
	// grant is recorded without a slice of its own.
	id1     [1]system.TaskID
	res1    [1][]int
	held1   [1]int
	demand1 [1]system.DemandEntry
}

// Done is closed once every member is fully provisioned (or the job has
// failed — check Err). There is no intermediate state: before Done fires
// no grant is visible, after it either all members hold their complete
// sets or Err is non-nil.
func (j *job) Done() <-chan struct{} { return j.done }

// Err reports the terminal error. Valid after Done is closed.
func (j *job) Err() error { return j.err }

// Shard reports the shard the work was routed to.
func (j *job) Shard() int { return j.shard }

// describe records what a validated submission is (members nil means the
// singleton t): its summed demand and its most urgent member's tier — a
// job is as urgent as that.
func (j *job) describe(t system.Task, members []system.Task) {
	if members == nil {
		j.demand, j.tier = t.AppendDemand(j.demand1[:0]), t.Tier
		return
	}
	j.demand, j.tier = system.GangDemand(members), members[0].Tier
	for _, m := range members[1:] {
		j.tier = min(j.tier, m.Tier)
	}
}

// units is the job's total unit demand, the Val of its trace events.
func (j *job) units() int64 { return int64(j.demand.Total()) }

// Handle tracks one submitted task. Wait on Done(), then check Err() and
// read Resources(); pass the handle to EndService when the task finishes
// computing.
type Handle struct{ job }

// Resources lists the resources granted to the task. Valid after Done is
// closed and until EndService.
func (h *Handle) Resources() []int {
	if len(h.res) == 0 {
		return nil
	}
	return append([]int(nil), h.res[0]...)
}

// GangHandle tracks one submitted gang. Wait on Done(), then check Err()
// and read Resources(); pass the handle to EndGang when the gang finishes
// computing.
type GangHandle struct{ job }

// Resources lists the resources granted per member, in GangSpec.Members
// order. Valid after Done is closed with a nil Err, until EndGang.
func (h *GangHandle) Resources() [][]int {
	out := make([][]int, len(h.res))
	for i, r := range h.res {
		out[i] = append([]int(nil), r...)
	}
	return out
}

// Size reports the gang's member count (0 until a shard has admitted it).
func (h *GangHandle) Size() int { return len(h.ids) }

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
	task    system.Task      // opSubmit of a singleton (inline: no slice to allocate)
	members []system.Task    // opSubmit of a gang: the validated member tasks
	reply   chan error       // opFault: the outcome of the System call (opEnd replies on its job)
	cause   error            // opCancel: the context's Err at cancellation
	faults  []system.FaultOp // opFault: one correlated hardware event (one sever charge)
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
	if j.gang != 0 {
		*gangs++
	}
}

// evPair is one life-cycle event's trace kind for a singleton and for a
// gang; a gang's events carry its gang ID, a singleton's its task ID.
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
	if j.gang != 0 {
		s.event(sh, k.gang, int64(j.gang), val, result)
		return
	}
	s.event(sh, k.task, int64(j.ids[0]), val, result)
}

// The four System calls that differ between a singleton and a gang — in
// contract, not only in history: the gang calls move every member
// together (see DESIGN.md §18 for why system keeps two entry points).

// submitTo admits the job to a System and records the IDs it was given.
func (j *job) submitTo(sys *system.System, o *op) error {
	if o.members == nil {
		id, err := sys.Submit(o.task)
		if err == nil {
			j.id1[0] = id
			j.ids = j.id1[:]
		}
		return err
	}
	gid, ids, err := sys.SubmitGang(o.members)
	j.gang, j.ids = gid, ids // zero on error
	return err
}

// endIn releases everything the provisioned job holds.
func (j *job) endIn(sys *system.System) error {
	if j.gang != 0 {
		return sys.EndGangService(j.gang)
	}
	return sys.EndService(j.ids[0])
}

// withdrawFrom removes the job from a System at any point before release.
func (j *job) withdrawFrom(sys *system.System) error {
	if j.gang != 0 {
		return sys.CancelGang(j.gang)
	}
	return sys.Cancel(j.ids[0])
}

// provisionedIn reports whether every member holds its full set.
func (j *job) provisionedIn(sys *system.System) bool {
	if j.gang != 0 {
		return sys.GangProvisioned(j.gang)
	}
	return sys.Remaining(j.ids[0]) == 0
}
