package system

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"rsin/internal/topology"
)

// books is the part of the ledger a row of TestLedgerUpdateSites pins: the
// per-type free counts, the unheld and owed totals, the number of committed
// entities. (That the rows' contents are right is the differential's job —
// every operation below goes through audited.)
type books struct {
	free   []int
	unheld int
	owed   int
	rows   int
}

func wantBooks(t *testing.T, s audited, when string, want books) {
	t.Helper()
	got := books{slices.Clone(s.led.free), s.led.unheld, s.led.owed, len(s.led.owner)}
	if !slices.Equal(got.free, want.free) || got.unheld != want.unheld || got.owed != want.owed || got.rows != want.rows {
		t.Fatalf("%s: ledger reads %+v, want %+v", when, got, want)
	}
}

// submit is an audited Submit that must succeed.
func submit(t *testing.T, s audited, task Task) TaskID {
	t.Helper()
	id, err := s.Submit(task)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// grantRound runs one audited cycle and ends its transmissions.
func grantRound(t *testing.T, s audited) *CycleResult {
	t.Helper()
	r, err := s.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r.Mapping.Assigned {
		if err := s.EndTransmission(a.Req.Proc); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestLedgerUpdateSites walks the mutation sites that are easy to miss —
// the ones no unit moves through in an ordinary submit/grant/release round
// trip — one per row, with the ledger differential after every operation
// and the totals that site must move (and the ones it must not) spelled
// out. DESIGN.md §22's table of update sites names these rows.
func TestLedgerUpdateSites(t *testing.T) {
	omega4 := func(t *testing.T, cfg Config) audited {
		t.Helper()
		cfg.Net = topology.Omega(4)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return audit(t, s)
	}
	t.Run("fail and repair of a free resource, twice each", func(t *testing.T) {
		s := omega4(t, Config{})
		for i := 0; i < 2; i++ { // the topology's Fail is idempotent: the second moves nothing
			if _, err := s.fail(FaultTargetResource, 2); err != nil {
				t.Fatal(err)
			}
			wantBooks(t, s, "after FailResource", books{free: []int{3}, unheld: 4})
		}
		for i := 0; i < 2; i++ {
			if err := s.repair(FaultTargetResource, 2); err != nil {
				t.Fatal(err)
			}
			wantBooks(t, s, "after RepairResource", books{free: []int{4}, unheld: 4})
		}
	})

	t.Run("release of a latent-faulted unit", func(t *testing.T) {
		s := omega4(t, Config{})
		id := submit(t, s, Task{Proc: 1})
		grantRound(t, s)
		r := s.Holding(id)[0]
		// A provisioned holder keeps a failed unit; the fault is latent.
		if severed, err := s.fail(FaultTargetResource, r); err != nil || len(severed) != 0 {
			t.Fatalf("FailResource under a provisioned holder: severed %v, err %v", severed, err)
		}
		wantBooks(t, s, "after the latent fault", books{free: []int{3}, unheld: 3, rows: 1})
		if err := s.EndService(id); err != nil {
			t.Fatal(err)
		}
		wantBooks(t, s, "after EndService", books{free: []int{3}, unheld: 4}) // unheld again, not free
		if err := s.repair(FaultTargetResource, r); err != nil {
			t.Fatal(err)
		}
		wantBooks(t, s, "after the repair", books{free: []int{4}, unheld: 4})
	})

	t.Run("repair under a holder, then release", func(t *testing.T) {
		s := omega4(t, Config{})
		id := submit(t, s, Task{Proc: 1})
		grantRound(t, s)
		r := s.Holding(id)[0]
		if _, err := s.fail(FaultTargetResource, r); err != nil {
			t.Fatal(err)
		}
		if err := s.repair(FaultTargetResource, r); err != nil {
			t.Fatal(err)
		}
		wantBooks(t, s, "healed while held", books{free: []int{3}, unheld: 3, rows: 1})
		if err := s.EndService(id); err != nil {
			t.Fatal(err)
		}
		wantBooks(t, s, "after EndService", books{free: []int{4}, unheld: 4})
	})

	t.Run("Preempt", func(t *testing.T) {
		s := omega4(t, Config{Discipline: MinCost})
		id := submit(t, s, Task{Proc: 0, Need: 3, Tier: 5})
		grantRound(t, s)
		grantRound(t, s)
		wantBooks(t, s, "two of three held", books{free: []int{2}, unheld: 2, owed: 1, rows: 1})
		for _, left := range []int{1, 0} {
			if err := s.Preempt(id, s.Holding(id)[0]); err != nil {
				t.Fatal(err)
			}
			// The unit is free and owed again; the row closes with the last one.
			wantBooks(t, s, "after Preempt", books{free: []int{4 - left}, unheld: 4 - left, owed: 3 - left, rows: left})
		}
	})

	t.Run("Cancel of a partial holder", func(t *testing.T) {
		s := omega4(t, Config{})
		id := submit(t, s, Task{Proc: 2, Need: 3})
		other := submit(t, s, Task{Proc: 3})
		grantRound(t, s)
		wantBooks(t, s, "one of three held", books{free: []int{2}, unheld: 2, owed: 2, rows: 2})
		if err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
		// What it still owed is written off; the other row moved into its place.
		wantBooks(t, s, "after Cancel", books{free: []int{3}, unheld: 3, rows: 1})
		if err := s.EndService(other); err != nil {
			t.Fatal(err)
		}
		wantBooks(t, s, "drained", books{free: []int{4}, unheld: 4})
	})

	t.Run("resetGang of a half-provisioned gang", func(t *testing.T) {
		s := omega4(t, Config{})
		gid, ids, err := s.SubmitGang([]Task{{Proc: 0, Need: 2}, {Proc: 1, Need: 1}})
		if err != nil {
			t.Fatal(err)
		}
		wantBooks(t, s, "gated", books{free: []int{4}, unheld: 4, owed: 3}) // a gated gang is not committed
		grantRound(t, s)
		if !s.GangActive(gid) || s.GangProvisioned(gid) {
			t.Fatalf("want the gang active and half provisioned: active %v provisioned %v", s.GangActive(gid), s.GangProvisioned(gid))
		}
		wantBooks(t, s, "one unit per member", books{free: []int{2}, unheld: 2, owed: 1, rows: 1})
		// Losing one member's unit resets the whole gang: both units leave,
		// the failed one to no free count, and the composite's row closes.
		lost := s.Holding(ids[1])[0]
		if _, err := s.fail(FaultTargetResource, lost); err != nil {
			t.Fatal(err)
		}
		if s.GangActive(gid) || s.PendingGangs() != 1 {
			t.Fatalf("gang not back behind the gate: active %v, pending %d", s.GangActive(gid), s.PendingGangs())
		}
		wantBooks(t, s, "after the reset", books{free: []int{3}, unheld: 4, owed: 3})
		// Re-planned on the surviving three.
		for !s.GangProvisioned(gid) {
			if grantRound(t, s).Granted == 0 {
				t.Fatal("the reset gang never reacquires")
			}
		}
		wantBooks(t, s, "provisioned again", books{free: []int{0}, unheld: 1, rows: 1})
		if err := s.EndGangService(gid); err != nil {
			t.Fatal(err)
		}
		wantBooks(t, s, "released", books{free: []int{3}, unheld: 4})
	})

	t.Run("typed task revoked on its second type", func(t *testing.T) {
		s := omega4(t, Config{Discipline: Hetero, Types: []int{7, 9, 7, 9}})
		id := submit(t, s, Task{Proc: 0, Needs: map[int]int{7: 1, 9: 2}})
		grantRound(t, s) // type 7 first: lowest type with demand outstanding
		grantRound(t, s)
		held := s.Holding(id)
		if len(held) != 2 || held[1]%2 != 1 {
			t.Fatalf("want one unit of each type, the type-9 one second: holding %v", held)
		}
		wantBooks(t, s, "one of each type held", books{free: []int{1, 1}, unheld: 2, owed: 1, rows: 1})
		if severed, err := s.fail(FaultTargetResource, held[1]); err != nil || !slices.Equal(severed, []TaskID{id}) {
			t.Fatalf("FailResource(%d): severed %v, err %v", held[1], severed, err)
		}
		// The type-9 column moves, the type-7 unit stays booked.
		wantBooks(t, s, "after the revoke", books{free: []int{1, 1}, unheld: 3, owed: 2, rows: 1})
		if got := s.led.held; !slices.Equal(got, []int{1, 0}) {
			t.Fatalf("row holds %v by type, want the type-7 unit only", got)
		}
	})

	t.Run("an unsafe base refuses even a completing grant", func(t *testing.T) {
		// A gang admitted at four usable units holds two of its four when a
		// free unit fails: it can no longer finish, the state is unsafe
		// until a repair. The from-scratch banker then refuses every
		// request — its scan never finishes — and so must the ledger's,
		// which would otherwise wave a Need-1 singleton through on the
		// completing-grant rule (a fuzz input found exactly that).
		raw, err := New(Config{Net: topology.Crossbar(4, 4)})
		if err != nil {
			t.Fatal(err)
		}
		s := audit(t, raw)
		gid, _, err := s.SubmitGang([]Task{{Proc: 0, Need: 2}, {Proc: 1, Need: 2}})
		if err != nil {
			t.Fatal(err)
		}
		grantRound(t, s)
		wantBooks(t, s, "one unit per member", books{free: []int{2}, unheld: 2, owed: 2, rows: 1})
		if _, err := s.fail(FaultTargetResource, slices.Index(s.resHolder, -1)); err != nil {
			t.Fatal(err)
		}
		if !s.GangActive(gid) || s.led.openTrial().safe() {
			t.Fatalf("want the gang still active and the state unsafe: active %v", s.GangActive(gid))
		}
		single := submit(t, s, Task{Proc: 2})
		r := grantRound(t, s)
		if r.Granted != 0 || r.Deferred != 3 || len(s.Holding(single)) != 0 {
			t.Fatalf("from an unsafe state the cycle granted %d and deferred %d (singleton holds %v), want all three requests refused",
				r.Granted, r.Deferred, s.Holding(single))
		}
	})
}

// TestTypedLedgerDifferentialTraces drives the rules that only bite with
// several types in play — rows with more than one column, the readiness and
// refusal shortcuts comparing vectors, gangs whose members name different
// types — through randomized traces on Omega-8 x 3 types under the banker:
// typed singletons and typed gangs arriving, releases, cancels and resource
// faults, every operation audited and every cycle held to the from-scratch
// banker's prediction. The fuzz targets cover the same surface on Omega-4 x
// 2 types; this is the wider fabric they cannot afford.
func TestTypedLedgerDifferentialTraces(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 20
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(9100 + seed))
		net := topology.Omega(8)
		types := make([]int, net.Ress)
		for r := range types {
			types[r] = []int{2, 5, 11}[r%3]
		}
		raw, err := New(Config{Net: net, Discipline: Hetero, Types: types, Avoidance: AvoidanceBankers})
		if err != nil {
			t.Fatal(err)
		}
		s := audit(t, raw)
		vector := func() map[int]int {
			needs := map[int]int{types[rng.Intn(3)]: 1 + rng.Intn(2)}
			if rng.Intn(2) == 0 {
				needs[types[rng.Intn(3)]] = 1
			}
			return needs
		}
		singles, gangs, failed := map[TaskID]bool{}, map[GangID]bool{}, map[int]bool{}
		deferred, scannedRefusals := 0, 0
		for step := 0; step < steps; step++ {
			for p := 0; p < net.Procs; p++ {
				if rng.Float64() < 0.3 {
					if id, err := s.Submit(Task{Proc: p, Needs: vector()}); err == nil {
						singles[id] = true
					} else if !errors.Is(err, ErrUnsatisfiable) {
						t.Fatalf("seed %d step %d: submit: %v", seed, step, err)
					}
				}
			}
			if rng.Float64() < 0.3 {
				procs := rng.Perm(net.Procs)[:2+rng.Intn(2)]
				members := make([]Task, len(procs))
				for i, p := range procs {
					members[i] = Task{Proc: p, Needs: vector()}
				}
				if gid, _, err := s.SubmitGang(members); err == nil {
					gangs[gid] = true
				} else if !errors.Is(err, ErrUnsatisfiable) {
					t.Fatalf("seed %d step %d: submit gang: %v", seed, step, err)
				}
			}
			// Sorted, so a seed draws the same numbers on every run.
			for _, id := range slices.Sorted(maps.Keys(singles)) {
				switch {
				case s.Remaining(id) == 0 && rng.Float64() < 0.5:
					if err := s.EndService(id); err != nil {
						t.Fatalf("seed %d step %d: end service: %v", seed, step, err)
					}
					delete(singles, id)
				case rng.Float64() < 0.05:
					if err := s.Cancel(id); err != nil {
						t.Fatalf("seed %d step %d: cancel: %v", seed, step, err)
					}
					delete(singles, id)
				}
			}
			for _, gid := range slices.Sorted(maps.Keys(gangs)) {
				switch {
				case s.GangProvisioned(gid) && rng.Float64() < 0.5:
					if err := s.EndGangService(gid); err != nil {
						t.Fatalf("seed %d step %d: end gang: %v", seed, step, err)
					}
					delete(gangs, gid)
				case rng.Float64() < 0.05:
					if err := s.CancelGang(gid); err != nil {
						t.Fatalf("seed %d step %d: cancel gang: %v", seed, step, err)
					}
					delete(gangs, gid)
				}
			}
			if rng.Float64() < 0.2 {
				if r := rng.Intn(net.Ress); failed[r] {
					if err := s.repair(FaultTargetResource, r); err != nil {
						t.Fatal(err)
					}
					delete(failed, r)
				} else if len(failed) < 2 {
					if _, err := s.fail(FaultTargetResource, r); err != nil {
						t.Fatal(err)
					}
					failed[r] = true
				}
			}
			for {
				r := grantRound(t, s)
				deferred += r.Deferred
				scannedRefusals += len(s.led.trial.refused)
				if r.Granted == 0 {
					break
				}
			}
		}
		if deferred == 0 || scannedRefusals == 0 {
			t.Errorf("seed %d did not exercise the banker: %d deferrals, %d scanned refusals", seed, deferred, scannedRefusals)
		}
	}
}

// TestRefusalCoversSameTypeOnly pins the one condition of the refusal memo
// (trial.refused) that is not redundant: a refusal covers later requests
// for the same type only. With one unit of each of two types free, a
// holder waiting on a second type-b unit and a provisioned type-a holder,
// a fresh Needs{b:2} is unsafe to start; a fresh Needs{a:1, b:2} — needier
// in every type — asks for type a first, which leaves the b unit to the
// waiting holder, and is safe. The audited cycle holds both decisions to
// the from-scratch banker.
func TestRefusalCoversSameTypeOnly(t *testing.T) {
	const a, b = 3, 8
	raw, err := New(Config{Net: topology.Crossbar(4, 4), Discipline: Hetero, Types: []int{a, b, a, b}, Avoidance: AvoidanceBankers})
	if err != nil {
		t.Fatal(err)
	}
	s := audit(t, raw)
	waiting := submit(t, s, Task{Proc: 2, Needs: map[int]int{b: 2}})
	submit(t, s, Task{Proc: 3, Needs: map[int]int{a: 1}})
	grantRound(t, s)
	wantBooks(t, s, "one unit of each type held", books{free: []int{1, 1}, unheld: 2, owed: 1, rows: 2})
	refused := submit(t, s, Task{Proc: 0, Needs: map[int]int{b: 2}})
	needier := submit(t, s, Task{Proc: 1, Needs: map[int]int{a: 1, b: 2}})
	r := grantRound(t, s)
	if len(s.Holding(refused)) != 0 || len(s.Holding(needier)) != 1 || s.Remaining(waiting) != 0 || r.Deferred != 1 {
		t.Fatalf("refused holds %v, needier %v, the waiting holder still needs %d, %d deferred; want nothing, its type-a unit, 0 and 1",
			s.Holding(refused), s.Holding(needier), s.Remaining(waiting), r.Deferred)
	}
	if got := s.led.trial.refused; !slices.Equal(got, []int{0, 2, 1}) {
		t.Fatalf("the cycle's refusals read %v, want the one for type b at rem (0, 2)", got)
	}
}
