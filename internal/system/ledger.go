package system

import "slices"

// The banker's ledger (DESIGN.md §22). The banker's condition is a question
// about three things: how many healthy units of each type nobody holds, who
// is committed — every entity (a task alone, or a gang as ONE composite,
// because its members release nothing until all of them are provisioned)
// from its first unit or its activation on — and what each of those still
// needs and already holds. None of it changes except where a unit moves, a
// gang passes or re-enters the activation gate, or an unheld resource
// fails or heals, so
// it is kept current at exactly those sites instead of being rebuilt from a
// walk over every task on every cycle: the §IV status bus is state every
// server keeps current and the scheduler only reads.
//
// A cycle's sequential admission is hypothetical — a request the banker
// admits may still be blocked in the network — so it works on a trial copy
// of the books (three copies into reused slices) and only the grant loop
// moves the ledger itself.

// ledger is the live books.
type ledger struct {
	types []int // the fabric's resource types, ascending; a type's position indexes every per-type vector
	resTy []int // per resource: the position of its type

	free   []int // per type: resources no task holds and no fault has taken
	unheld int   // resources no task holds, faulted or not (FreeResources)
	owed   int   // units admitted tasks have yet to acquire, summed over all of them

	// The committed entities, one row of len(types) counts each: rem is
	// what the entity still has to acquire, held what finishing it would
	// release. owner[e] is where row e's entity keeps the row's number, so
	// closing a row can move the last one into its place and tell that
	// one's entity.
	rem, held []int
	owner     []*int

	trial trial
}

func newLedger(ress int, types []int) ledger {
	l := ledger{resTy: make([]int, ress), unheld: ress}
	if types == nil {
		l.types = []int{0}
	} else {
		l.types = slices.Clone(types)
		slices.Sort(l.types)
		l.types = slices.Compact(l.types)
	}
	l.free = make([]int, len(l.types))
	for r := range l.resTy {
		if types != nil {
			l.resTy[r] = l.typeIndex(types[r])
		}
		l.free[l.resTy[r]]++
	}
	return l
}

// typeIndex is a resource type's position in the per-type vectors. Every
// type an admitted task names is stocked (admissible refuses the others),
// so the search always finds it.
func (l *ledger) typeIndex(ty int) int {
	if len(l.types) == 1 {
		return 0
	}
	i, _ := slices.BinarySearch(l.types, ty)
	return i
}

// openRow commits an entity holding nothing yet against its demand. The
// row's number is written through owner, now and whenever closeRow moves
// the row.
func (l *ledger) openRow(owner *int, demand Demand) {
	*owner = len(l.owner)
	l.owner = append(l.owner, owner)
	l.rem, l.held = l.appendRow(l.rem, l.held, demand)
}

// closeRow drops the row *owner names (no-op at -1): the last row takes its
// place.
func (l *ledger) closeRow(owner *int) {
	e := *owner
	if e < 0 {
		return
	}
	n, last := len(l.types), len(l.owner)-1
	if e != last {
		copy(l.rem[e*n:(e+1)*n], l.rem[last*n:])
		copy(l.held[e*n:(e+1)*n], l.held[last*n:])
		l.owner[e] = l.owner[last]
		*l.owner[e] = e
	}
	l.rem, l.held, l.owner = l.rem[:last*n], l.held[:last*n], l.owner[:last]
	*owner = -1
}

// appendRow appends the row of an entity holding nothing to a rem/held
// pair: per demanded type, what it has to acquire.
func (l *ledger) appendRow(rem, held []int, demand Demand) ([]int, []int) {
	base := len(rem)
	for range l.types {
		rem, held = append(rem, 0), append(held, 0)
	}
	for _, d := range demand {
		rem[base+l.typeIndex(d.Type)] = d.Count
	}
	return rem, held
}

// cell is where, in rem and held, a task's entity keeps its count of
// resource r's type. An entity not committed yet — a task alone, on its
// first unit; an active gang is committed from activation on — holds
// nothing, and its row opens here.
func (s *System) cell(t *taskState, r int) int {
	e := t.ent
	if e.row < 0 {
		s.led.openRow(&e.row, e.demand)
	}
	return e.row*len(s.led.types) + s.led.resTy[r]
}

// acquire books a granted resource to a task: the one place a unit is
// gained. It is charged to the demand entry the task requested this cycle.
func (s *System) acquire(t *taskState, r int) {
	l := &s.led
	i := s.cell(t, r)
	l.rem[i]--
	l.held[i]++
	l.free[l.resTy[r]]-- // a granted resource was on offer: unheld and healthy
	l.unheld--
	l.owed--
	t.have[t.next()]++
	t.held = append(t.held, r)
	s.resHolder[r] = t.id
}

// vacate returns a resource to the unheld pool, and to the free count
// unless a fault has taken it meanwhile (a latent-faulted unit a
// provisioned holder kept stays out until repaired).
func (s *System) vacate(r int) {
	s.resHolder[r] = -1
	s.led.unheld++
	if !s.net.ResourceFaulted(r) {
		s.led.free[s.led.resTy[r]]++
	}
}

// vacateAll returns every resource a departing or reset task holds. The
// entity row is the caller's to close.
func (s *System) vacateAll(t *taskState) {
	for _, r := range t.held {
		if s.resHolder[r] == t.id {
			s.vacate(r)
		}
	}
}

// Quiescent reports that no cycle can grant anything until an operation
// changes the state: no admitted task still wants a unit, or no healthy
// resource is unheld. Two ledger reads — a layered service asks after a
// granting cycle instead of running another cycle to find out.
func (s *System) Quiescent() bool {
	if s.led.owed == 0 {
		return true
	}
	for _, n := range s.led.free {
		if n > 0 {
			return false
		}
	}
	return true
}

// trial is one cycle's hypothetical copy of the books. The gang gate tries
// its candidate on it and sequential admission its tentative grants; what
// the solver then actually grants reaches the ledger through acquire.
type trial struct {
	n               int // types
	rows            int // entities: the ledger's, then the cycle's first-contact singletons
	free, rem, held []int
	work            []int  // safe's running free vector
	done            []bool // safe's finished marks
	// ready is, per type, what the entities that need nothing more — the
	// provisioned ones — release by finishing; summed on first use in a
	// cycle (readyOK). Tentative grants only ever add to the true figure.
	ready   []int
	readyOK bool
	// refused is this cycle's refusals, n+1 counts each: the entity's rem row
	// before the tentative grant, then the type requested. A refusal
	// outlives the cycle's later admissions (they only move more units out
	// of the free pool) and covers every entity asking for the same type
	// that needs no less of any — so one scan answers for a gang's other
	// members and for every gang behind it.
	refused []int
	// base remembers whether the state every tentative grant so far left
	// behind is safe: 0 not asked yet, 1 yes, -1 no. An admitted grant keeps
	// it safe and a refused one is rolled back, so it is asked at most once
	// a cycle.
	base int8
}

// openTrial copies the books for one cycle.
func (l *ledger) openTrial() *trial {
	tr := &l.trial
	tr.n, tr.rows, tr.base, tr.readyOK, tr.refused = len(l.types), len(l.owner), 0, false, tr.refused[:0]
	tr.free = append(tr.free[:0], l.free...)
	tr.rem = append(tr.rem[:0], l.rem...)
	tr.held = append(tr.held[:0], l.held...)
	return tr
}

// push appends the row of an entity holding nothing (see
// ledger.appendRow) and returns its number.
func (tr *trial) push(l *ledger, demand Demand) int {
	tr.rem, tr.held = l.appendRow(tr.rem, tr.held, demand)
	tr.rows++
	return tr.rows - 1
}

// pop drops the last row.
func (tr *trial) pop() {
	tr.rows--
	tr.rem, tr.held = tr.rem[:tr.rows*tr.n], tr.held[:tr.rows*tr.n]
}

// revoke moves one unit of type ty from committed entity e back to the free
// pool: a planned exchange's victim. An entity left holding nothing is no
// longer committed (revokeUnit closes its row); its row stays, zeroed,
// needing and releasing nothing. A revoke adds to the pool, which breaks
// the premise of refused and ready — admissions only ever take from it — so
// both are reset, and an unsafe base is asked again.
func (tr *trial) revoke(e, ty int) {
	tr.free[ty]++
	rem, held := tr.row(tr.rem, e), tr.row(tr.held, e)
	rem[ty]++
	held[ty]--
	if allZero(held) {
		clear(rem)
	}
	tr.refused, tr.readyOK = tr.refused[:0], false
	if tr.base < 0 {
		tr.base = 0
	}
}

// unrevoke undoes revoke, given the base verdict from before it. A zeroed
// row held one unit and no tentative grant, so its rem is the ledger's.
func (tr *trial) unrevoke(l *ledger, e, ty int, base int8) {
	tr.free[ty]--
	rem, held := tr.row(tr.rem, e), tr.row(tr.held, e)
	if allZero(held) {
		copy(rem, tr.row(l.rem, e))
	} else {
		rem[ty]--
	}
	held[ty]++
	tr.refused, tr.readyOK, tr.base = tr.refused[:0], false, base
}

// row is entity e's slice of a flat per-entity vector.
func (tr *trial) row(v []int, e int) []int { return v[e*tr.n : (e+1)*tr.n] }

// safe checks the banker's condition: some completion order lets every
// committed entity finish. The greedy scan is exact — finishing an entity
// only ever grows the free vector, so if any safe order exists there is one
// that starts with any currently-finishable entity (held to a brute-force
// permutation oracle in gang_differential_test.go).
func (tr *trial) safe() bool {
	n, rem, held := tr.n, tr.rem, tr.held
	work := append(tr.work[:0], tr.free...)
	tr.work = work
	if cap(tr.done) < tr.rows {
		tr.done = make([]bool, tr.rows)
	}
	done := tr.done[:tr.rows]
	clear(done)
	finished := 0
	for progress := true; progress && finished < len(done); {
		progress = false
	entities:
		for e := range done {
			if done[e] {
				continue
			}
			for ty, need := range rem[e*n : (e+1)*n] {
				if need > work[ty] {
					continue entities
				}
			}
			for ty, h := range held[e*n : (e+1)*n] {
				work[ty] += h // finishing releases everything it holds
			}
			done[e] = true
			finished++
			progress = true
		}
	}
	return finished == len(done)
}

// baseSafe asks, once a cycle, whether the state admission starts from is
// safe. It usually is — every grant came through admit — but a fault that
// takes a free unit, or a gang arriving on a greedy shard whose singletons
// already hold-and-wait, can leave it unsafe, and then every admission must
// fail: moving a unit from the free pool to an entity never lets the scan
// finish an entity it could not finish before.
func (tr *trial) baseSafe() bool {
	if tr.base == 0 {
		tr.base = -1
		if tr.safe() {
			tr.base = 1
		}
	}
	return tr.base > 0
}

// fitsReady reports whether rem fits the free vector once every entity that
// needs nothing more has finished.
func (tr *trial) fitsReady(rem []int) bool {
	if !tr.readyOK {
		tr.readyOK = true
		tr.ready = tr.ready[:0]
		for range tr.n {
			tr.ready = append(tr.ready, 0)
		}
		for e := range tr.rows {
			if allZero(tr.row(tr.rem, e)) {
				for ty, h := range tr.row(tr.held, e) {
					tr.ready[ty] += h
				}
			}
		}
	}
	for ty, need := range rem {
		if need > tr.free[ty]+tr.ready[ty] {
			return false
		}
	}
	return true
}

// wasRefused reports whether a refusal already recorded this cycle covers a
// request for type ty by an entity with this rem row.
func (tr *trial) wasRefused(ty int, rem []int) bool {
	n := tr.n
next:
	for sig := tr.refused; len(sig) > 0; sig = sig[n+1:] {
		if sig[n] != ty {
			continue
		}
		for i, need := range sig[:n] {
			if need > rem[i] {
				continue next
			}
		}
		return true
	}
	return false
}

// admit tentatively grants one unit of the type the task requests; if the
// result is unsafe the grant is rolled back and admit reports false.
// Sequential admission makes the cycle's combined grant set safe even if
// the solver later grants only a subset (a grant not made only returns a
// unit to the free pool). A typed task is committed at its FULL demand
// vector on first contact: granting its type-a unit while ignoring its
// type-b demand is the classic unsafe shortcut — the banker would promise a
// completion order the other types cannot honor.
//
// Most verdicts need no scan (DESIGN.md §22 has the proofs). No free unit of
// the type: refuse. No better placed than a request already refused this
// cycle: refuse (trial.refused). And, from a safe state, a grant after which
// its entity can finish ahead of everyone still acquiring — it needs
// nothing more, or no more than is free once the provisioned entities have
// finished — is safe: finishing it returns the unit with everything else it
// holds, so whoever could finish before still can.
func (s *System) admit(tr *trial, t *taskState) bool {
	ty := s.led.typeIndex(t.reqType())
	if tr.free[ty] == 0 || !tr.baseSafe() {
		return false
	}
	e, fresh := t.ent.row, false
	if e < 0 {
		// First contact with an uncommitted task alone (an active gang is
		// committed from activation on).
		e, fresh = tr.push(&s.led, t.ent.demand), true
	}
	rem, held := tr.row(tr.rem, e), tr.row(tr.held, e)
	if !tr.wasRefused(ty, rem) {
		tr.free[ty]--
		rem[ty]--
		held[ty]++
		if allZero(rem) || tr.fitsReady(rem) || tr.safe() {
			return true
		}
		tr.free[ty]++
		rem[ty]++
		held[ty]--
		tr.refused = append(append(tr.refused, rem...), ty)
	}
	if fresh {
		tr.pop()
	}
	return false
}

func allZero(v []int) bool {
	for _, n := range v {
		if n != 0 {
			return false
		}
	}
	return true
}
