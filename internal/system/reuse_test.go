package system

import (
	"reflect"
	"slices"
	"testing"

	"rsin/internal/topology"
)

// taskView is everything a task record shows but its ID: what Holding and
// Remaining report, the normalised demand and the per-entry counts held
// against it, the circuits it keeps, its gang, and its ledger row (nil
// while it has none).
type taskView struct {
	Holding   []int
	Remaining int
	Demand    Demand
	Have      []int
	Circuits  int
	Gang      bool
	Rem, Held []int
}

func viewOf(s *System, id TaskID) taskView {
	t := s.tasks[id]
	v := taskView{
		Holding:   s.Holding(id),
		Remaining: s.Remaining(id),
		Demand:    slices.Clone(t.demand),
		Have:      slices.Clone(t.have),
		Circuits:  len(t.circuits),
		Gang:      t.gang != nil,
	}
	if t.row >= 0 {
		n := len(s.led.types)
		v.Rem = slices.Clone(s.led.rem[t.row*n : (t.row+1)*n])
		v.Held = slices.Clone(s.led.held[t.row*n : (t.row+1)*n])
	}
	return v
}

// probeViews submits the probe task to an otherwise empty System, grants it
// to completion one round at a time and ends its service, viewing its record
// after the submit, after every cycle and after every round's transmissions.
func probeViews(t *testing.T, s audited, probe Task) []taskView {
	t.Helper()
	id := submit(t, s, probe)
	views := []taskView{viewOf(s.System, id)}
	for round := 0; s.Remaining(id) > 0; round++ {
		if round == 8 {
			t.Fatalf("probe still needs %d after %d rounds", s.Remaining(id), round)
		}
		r, err := s.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, viewOf(s.System, id))
		for _, a := range r.Mapping.Assigned {
			if err := s.EndTransmission(a.Req.Proc); err != nil {
				t.Fatal(err)
			}
		}
		views = append(views, viewOf(s.System, id))
	}
	if err := s.EndService(id); err != nil {
		t.Fatal(err)
	}
	return views
}

// TestReusedTaskStateStartsClean holds the reuse invariant of DESIGN.md
// §23: a task record retired by any path — EndService, Cancel, CancelGang,
// EndGangService, the withdrawal of a gang a fault reset and of a task a
// tier exchange took a unit from — is reused by the next submission, which
// then reads exactly as the same submission does on a fresh System, at
// every step from its submit to its release.
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
		probe  Task
		retire func(t *testing.T, s audited) // leaves s empty, its last retirement the path under test
	}{
		{"EndService", typedNet, typedProbe, func(t *testing.T, s audited) {
			id := submit(t, s, Task{Proc: 2, Needs: map[int]int{0: 2, 1: 1, 2: 1}})
			for s.Remaining(id) > 0 {
				grantRound(t, s)
			}
			must(t, s.EndService(id))
		}},
		{"Cancel of a partly held typed task with an established circuit", typedNet, typedProbe, func(t *testing.T, s audited) {
			id := submit(t, s, Task{Proc: 2, Needs: map[int]int{0: 2, 1: 1, 2: 1}})
			grantRound(t, s)
			cycleOnly(t, s)
			if len(s.Holding(id)) != 2 || s.Transmitting(2) != id {
				t.Fatalf("set-up: task holds %v, processor 2 transmits for %d; want two units and the task", s.Holding(id), s.Transmitting(2))
			}
			must(t, s.Cancel(id))
		}},
		{"CancelGang", typedNet, typedProbe, func(t *testing.T, s audited) {
			gid, ids := gang(t, s)
			grantRound(t, s)
			if len(s.Holding(ids[1])) != 1 {
				t.Fatalf("set-up: member holds %v, want one unit", s.Holding(ids[1]))
			}
			must(t, s.CancelGang(gid))
		}},
		{"EndGangService", typedNet, typedProbe, func(t *testing.T, s audited) {
			gid, _ := gang(t, s)
			for !s.GangProvisioned(gid) {
				grantRound(t, s)
			}
			must(t, s.EndGangService(gid))
		}},
		{"fault-reset gang", typedNet, typedProbe, func(t *testing.T, s audited) {
			gid, ids := gang(t, s)
			cycleOnly(t, s)
			link := s.tasks[ids[0]].circuits[0].Links[0]
			severed, err := s.FailLink(link)
			must(t, err)
			if !slices.Contains(severed, ids[1]) || s.GangActive(gid) {
				t.Fatalf("set-up: link %d severed %v and left the gang active=%v; want a reset of both members", link, severed, s.GangActive(gid))
			}
			must(t, s.RepairLink(link))
			cycleOnly(t, s)
			must(t, s.CancelGang(gid))
		}},
		{"preemption withdrawal", exchangeNet, Task{Proc: 0, Need: 2}, func(t *testing.T, s audited) {
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
			raw, err := New(c.cfg())
			must(t, err)
			s := audit(t, raw)
			c.retire(t, s)
			if s.Pending() != 0 || len(s.spare) == 0 {
				t.Fatalf("set-up left %d tasks pending and %d records retired", s.Pending(), len(s.spare))
			}
			reused := s.spare[len(s.spare)-1]
			got := probeViews(t, s, c.probe)
			if s.spare[len(s.spare)-1] != reused {
				t.Fatal("the probe was not given the last retired record")
			}
			fresh, err := New(c.cfg())
			must(t, err)
			want := probeViews(t, audit(t, fresh), c.probe)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("a reused record reads\n%+v\nthe same submission on a fresh System\n%+v", got, want)
			}
		})
	}
}
