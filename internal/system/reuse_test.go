package system

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rsin/internal/topology"
)

// taskView is everything a task record shows but its ID: what Holding and
// Remaining report, the normalised demand and the per-entry counts held
// against it, the circuits it keeps, and its entity — how many members,
// whether this record carries it, whether it waits at the gate, its summed
// demand and its ledger row (nil while it has none).
type taskView struct {
	Holding   []int
	Remaining int
	Demand    Demand
	Have      []int
	Circuits  int
	Members   int
	Head      bool
	AtGate    bool
	Sum       Demand
	Rem, Held []int
}

func viewOf(s *System, id TaskID) taskView {
	t := s.task(id)
	e := t.ent
	v := taskView{
		Holding:   s.Holding(id),
		Remaining: s.Remaining(id),
		Demand:    slices.Clone(t.demand),
		Have:      slices.Clone(t.have),
		Circuits:  len(t.circuits),
		Members:   len(e.members),
		Head:      e == &t.own,
		AtGate:    e.atGate,
		Sum:       slices.Clone(e.demand),
	}
	if e.row >= 0 {
		n := len(s.led.types)
		v.Rem = slices.Clone(s.led.rem[e.row*n : (e.row+1)*n])
		v.Held = slices.Clone(s.led.held[e.row*n : (e.row+1)*n])
	}
	return v
}

// probeViews submits the probe — one task alone, or a gang — to an otherwise
// empty System, grants it to completion one round at a time and ends its
// service, viewing every member's record after the submit, after every
// cycle and after every round's transmissions.
func probeViews(t *testing.T, s audited, probe []Task) [][]taskView {
	t.Helper()
	var ids []TaskID
	var gid GangID
	if len(probe) == 1 {
		ids = []TaskID{submit(t, s, probe[0])}
		gid = GangID(ids[0])
	} else {
		var err error
		if gid, ids, err = s.SubmitGang(probe); err != nil {
			t.Fatal(err)
		}
	}
	view := func() []taskView {
		var vs []taskView
		for _, id := range ids {
			vs = append(vs, viewOf(s.System, id))
		}
		return vs
	}
	views := [][]taskView{view()}
	for round := 0; !s.GangProvisioned(gid); round++ {
		if round == 8 {
			t.Fatalf("probe %v not provisioned after %d rounds", ids, round)
		}
		r, err := s.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, view())
		for _, a := range r.Mapping.Assigned {
			if err := s.EndTransmission(a.Req.Proc); err != nil {
				t.Fatal(err)
			}
		}
		views = append(views, view())
	}
	end := s.EndService
	if len(ids) > 1 {
		end = func(TaskID) error { return s.EndGangService(gid) }
	}
	if err := end(ids[0]); err != nil {
		t.Fatal(err)
	}
	return views
}

// TestReusedTaskStateStartsClean holds the reuse invariant of DESIGN.md
// §23: a task record retired by any path — EndService, Cancel, CancelGang
// past the gate and at it, EndGangService, the withdrawal of a gang a fault
// reset and of a task a tier exchange took a unit from — is reused by the
// next submission, which then reads exactly as the same submission does on
// a fresh System, at every step from its submit to its release. Each path
// is probed with a task alone and with a gang, so a record changes kind —
// a gang's first member, which carries the gang, becomes a task alone, and
// a task alone becomes a gang's first member — as well as keeping it.
func TestReusedTaskStateStartsClean(t *testing.T) {
	typedNet := func() Config {
		net := topology.Omega(8)
		types := make([]int, net.Ress)
		for r := range types {
			types[r] = r % 3
		}
		return Config{Net: net, Discipline: Hetero, Types: types, Avoidance: AvoidanceBankers}
	}
	exchangeNet := func() Config {
		return Config{Net: topology.Crossbar(3, 3), Discipline: MinCost, Preempt: true}
	}
	typedProbe := Task{Proc: 6, Needs: map[int]int{1: 2, 2: 1}}
	typedProbes := [][]Task{{typedProbe}, {typedProbe, {Proc: 7, Needs: map[int]int{0: 1}}}}
	exchangeProbes := [][]Task{{{Proc: 0, Need: 2}}, {{Proc: 0, Need: 2}, {Proc: 1}}}
	cycleOnly := func(t *testing.T, s audited) {
		t.Helper()
		if _, err := s.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	gang := func(t *testing.T, s audited) (GangID, []TaskID) {
		t.Helper()
		gid, ids, err := s.SubmitGang([]Task{
			{Proc: 0, Needs: map[int]int{0: 2, 1: 1}},
			{Proc: 3, Needs: map[int]int{0: 1, 2: 2}},
		})
		must(t, err)
		return gid, ids
	}
	cases := []struct {
		name   string
		cfg    func() Config
		probes [][]Task
		retire func(t *testing.T, s audited) // leaves s empty, its last retirement the path under test
	}{
		{"EndService", typedNet, typedProbes, func(t *testing.T, s audited) {
			id := submit(t, s, Task{Proc: 2, Needs: map[int]int{0: 2, 1: 1, 2: 1}})
			for s.Remaining(id) > 0 {
				grantRound(t, s)
			}
			must(t, s.EndService(id))
		}},
		{"Cancel of a partly held typed task with an established circuit", typedNet, typedProbes, func(t *testing.T, s audited) {
			id := submit(t, s, Task{Proc: 2, Needs: map[int]int{0: 2, 1: 1, 2: 1}})
			grantRound(t, s)
			cycleOnly(t, s)
			if len(s.Holding(id)) != 2 || s.Transmitting(2) != id {
				t.Fatalf("set-up: task holds %v, processor 2 transmits for %d; want two units and the task", s.Holding(id), s.Transmitting(2))
			}
			must(t, s.Cancel(id))
		}},
		{"CancelGang", typedNet, typedProbes, func(t *testing.T, s audited) {
			gid, ids := gang(t, s)
			grantRound(t, s)
			if len(s.Holding(ids[1])) != 1 {
				t.Fatalf("set-up: member holds %v, want one unit", s.Holding(ids[1]))
			}
			must(t, s.CancelGang(gid))
		}},
		{"CancelGang at the gate", typedNet, typedProbes, func(t *testing.T, s audited) {
			gid, _ := gang(t, s)
			if s.GangActive(gid) || s.PendingGangs() != 1 {
				t.Fatalf("set-up: gang active=%v with %d pending; want it gated", s.GangActive(gid), s.PendingGangs())
			}
			must(t, s.CancelGang(gid))
		}},
		{"EndGangService", typedNet, typedProbes, func(t *testing.T, s audited) {
			gid, _ := gang(t, s)
			for !s.GangProvisioned(gid) {
				grantRound(t, s)
			}
			must(t, s.EndGangService(gid))
		}},
		{"fault-reset gang", typedNet, typedProbes, func(t *testing.T, s audited) {
			gid, ids := gang(t, s)
			cycleOnly(t, s)
			link := s.task(ids[0]).circuits[0].Links[0]
			severed, err := s.fail(FaultTargetLink, link)
			must(t, err)
			if !slices.Contains(severed, ids[1]) || s.GangActive(gid) {
				t.Fatalf("set-up: link %d severed %v and left the gang active=%v; want a reset of both members", link, severed, s.GangActive(gid))
			}
			must(t, s.repair(FaultTargetLink, link))
			cycleOnly(t, s)
			must(t, s.CancelGang(gid))
		}},
		{"preemption withdrawal", exchangeNet, exchangeProbes, func(t *testing.T, s audited) {
			v := submit(t, s, Task{Proc: 0, Tier: 2, Need: 3})
			grantRound(t, s)
			grantRound(t, s)
			h := submit(t, s, Task{Proc: 2, Tier: 0})
			grantRound(t, s)
			b := submit(t, s, Task{Proc: 1, Tier: 0})
			if r := grantRound(t, s); len(r.Preempted) != 1 || r.Preempted[0].Victim != v {
				t.Fatalf("set-up: exchanges %+v, want one taking a unit of task %d", r.Preempted, v)
			}
			if len(s.Holding(v)) != 1 {
				t.Fatalf("set-up: victim holds %v, want one unit", s.Holding(v))
			}
			must(t, s.EndService(b))
			must(t, s.EndService(h))
			must(t, s.Cancel(v))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, probe := range c.probes {
				t.Run(fmt.Sprintf("probe of %d", len(probe)), func(t *testing.T) {
					raw, err := New(c.cfg())
					must(t, err)
					s := audit(t, raw)
					c.retire(t, s)
					if s.Pending() != 0 || len(s.spare) == 0 {
						t.Fatalf("set-up left %d tasks pending and %d records retired", s.Pending(), len(s.spare))
					}
					reused := s.spare[len(s.spare)-1]
					got := probeViews(t, s, probe)
					if s.spare[len(s.spare)-1] != reused {
						t.Fatal("the probe's first member was not given the last retired record")
					}
					fresh, err := New(c.cfg())
					must(t, err)
					want := probeViews(t, audit(t, fresh), probe)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("a reused record reads\n%+v\nthe same submission on a fresh System\n%+v", got, want)
					}
				})
			}
		})
	}
}

// TestReusedSlotRejectsStaleID holds the task table's other promise
// (DESIGN.md §23): once a retired task's slot holds another task, the old
// ID reads as unknown to every call that takes one — EndService, Cancel,
// Remaining, Holding and Preempt — and none of those calls touches the
// slot's new task. Each retirement path leaves the record on the free
// list, the next submission takes it, and its ID names the same slot in
// the next generation.
func TestReusedSlotRejectsStaleID(t *testing.T) {
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		retire func(t *testing.T, s audited) []TaskID // the IDs it retired
	}{
		{"EndService", func(t *testing.T, s audited) []TaskID {
			id := submit(t, s, Task{Proc: 0})
			grantRound(t, s)
			must(t, s.EndService(id))
			return []TaskID{id}
		}},
		{"Cancel", func(t *testing.T, s audited) []TaskID {
			id := submit(t, s, Task{Proc: 0, Need: 2})
			grantRound(t, s)
			must(t, s.Cancel(id))
			return []TaskID{id}
		}},
		{"EndGangService", func(t *testing.T, s audited) []TaskID {
			gid, ids, err := s.SubmitGang([]Task{{Proc: 0}, {Proc: 2}})
			must(t, err)
			for !s.GangProvisioned(gid) {
				grantRound(t, s)
			}
			must(t, s.EndGangService(gid))
			return ids
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw, err := New(Config{Net: topology.Crossbar(3, 3), Discipline: MinCost, Preempt: true})
			must(t, err)
			s := audit(t, raw)
			retired := c.retire(t, s)
			cur := submit(t, s, Task{Proc: 1, Tier: 2, Need: 2})
			i := slices.IndexFunc(retired, func(id TaskID) bool { return id.Slot() == cur.Slot() })
			if i < 0 || slices.Contains(retired, cur) {
				t.Fatalf("task %d (slot %d) reuses no retired slot, or an ID, of %v", cur, cur.Slot(), retired)
			}
			stale := retired[i]
			grantRound(t, s)
			held := s.Holding(cur)
			if len(held) != 1 || s.Remaining(cur) != 1 {
				t.Fatalf("set-up: task %d holds %v and still needs %d; want one unit and one more", cur, held, s.Remaining(cur))
			}
			before := viewOf(s.System, cur)
			for name, err := range map[string]error{
				"EndService": s.EndService(stale),
				"Cancel":     s.Cancel(stale),
				"Preempt":    s.Preempt(stale, held[0]),
			} {
				if err == nil || !strings.Contains(err.Error(), "unknown task") {
					t.Errorf("%s(stale %d) = %v, want an unknown-task error", name, stale, err)
				}
			}
			if r := s.Remaining(stale); r != -1 {
				t.Errorf("Remaining(stale %d) = %d, want -1", stale, r)
			}
			if h := s.Holding(stale); len(h) != 0 {
				t.Errorf("Holding(stale %d) = %v, want nothing", stale, h)
			}
			if after := viewOf(s.System, cur); !reflect.DeepEqual(after, before) {
				t.Fatalf("the stale calls moved task %d:\n%+v\nwas\n%+v", cur, after, before)
			}
		})
	}
}

// TestLastGenerationRetiresSlot: a slot whose record has carried the last
// generation an ID can pack leaves the table instead of wrapping, so its
// IDs stay positive and no later task can alias them.
func TestLastGenerationRetiresSlot(t *testing.T) {
	s, err := New(Config{Net: topology.Crossbar(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Submit(Task{Proc: 0})
	if err != nil {
		t.Fatal(err)
	}
	if packID(a.Slot(), maxGen) <= 0 || packID(slotMask, maxGen) <= 0 {
		t.Fatalf("the last generation packs to %d (slot %d), %d (last slot); want positive IDs",
			packID(a.Slot(), maxGen), a.Slot(), packID(slotMask, maxGen))
	}
	rec := s.task(a) // as if the slot had been reused maxGen times
	rec.gen, rec.id = maxGen, packID(a.Slot(), maxGen)
	a = rec.id
	if err := s.Cancel(a); err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(Task{Proc: 0})
	if err != nil {
		t.Fatal(err)
	}
	if b.Slot() == a.Slot() || s.slots[a.Slot()] != nil || s.Remaining(a) != -1 {
		t.Fatalf("after its last generation slot %d holds %v, and task %d took slot %d; want the slot gone", a.Slot(), s.slots[a.Slot()], b, b.Slot())
	}
}
