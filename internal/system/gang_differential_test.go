package system

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rsin/internal/topology"
)

// TestGangDifferentialTraces is the differential suite for gang
// scheduling: randomized mixed singleton/gang traces with hardware churn,
// holding four oracles:
//
//  0. Ledger differential — after every operation the banker's ledger is
//     recomputed from scratch and compared, and every cycle's decisions
//     (gangs activated, request per processor, deferrals) are held to the
//     from-scratch banker's prediction (audited, ledger_reference_test.go).
//  1. Safety differential — the banker's greedy safety scan, the ledger's
//     and the reference's alike, must agree with a brute-force search over
//     every completion permutation of the committed entities. An unsafe
//     state safe() misses would let gangs deadlock; a safe state it rejects
//     would starve them.
//  2. All-or-nothing observables — a gated (inactive) gang's members hold
//     nothing; a provisioned gang's members each hold their full set; a
//     fault reset is total (no member of a reset gang keeps a unit).
//  3. Liveness drain — after the trace, on the healed fabric, every
//     admitted gang must fully provision and release. A gang the banker
//     admitted but the cycle loop can never finish is the bug class this
//     oracle exists to catch (e.g. a reset member stranded outside its
//     processor queue).
func TestGangDifferentialTraces(t *testing.T) {
	for _, av := range []Avoidance{AvoidanceNone, AvoidanceBankers} {
		av := av
		t.Run(fmt.Sprintf("avoid=%d", av), func(t *testing.T) {
			runGangDifferential(t, rand.New(rand.NewSource(7321+int64(av)*13)), av)
		})
	}
}

func runGangDifferential(t *testing.T, rng *rand.Rand, av Avoidance) {
	nets := []*topology.Network{
		topology.Omega(4),
		topology.Benes(4),
		topology.Clos(2, 2, 2),
	}
	steps := 40
	if testing.Short() {
		steps = 12
	}
	for _, net := range nets {
		raw, err := New(Config{Net: net, Discipline: MinCost, Avoidance: av})
		if err != nil {
			t.Fatal(err)
		}
		sys := audit(t, raw)
		singles := map[TaskID]bool{}
		gangs := map[GangID][]TaskID{}
		failedLinks := map[int]bool{}
		failedRes := map[int]bool{}
		for step := 0; step < steps; step++ {
			// Arrivals: a gang on two or three distinct processors, or
			// singletons on random processors.
			if rng.Float64() < 0.4 {
				k := 2 + rng.Intn(2)
				if k <= net.Procs {
					procs := rng.Perm(net.Procs)[:k]
					members := make([]Task, k)
					for i, p := range procs {
						members[i] = Task{Proc: p}
					}
					gid, _, err := sys.SubmitGang(members)
					if err != nil && !errors.Is(err, ErrUnsatisfiable) {
						t.Fatalf("%s step %d: submit gang: %v", net.Name, step, err)
					}
					if err == nil {
						gangs[gid] = sys.GangMembers(gid)
					}
				}
			}
			for p := 0; p < net.Procs; p++ {
				if rng.Float64() > 0.35 {
					continue
				}
				id, err := sys.Submit(Task{Proc: p})
				if err != nil {
					if errors.Is(err, ErrUnsatisfiable) {
						continue
					}
					t.Fatalf("%s step %d: submit: %v", net.Name, step, err)
				}
				singles[id] = true
			}
			// Releases.
			for id := range singles {
				if sys.Remaining(id) == 0 && rng.Float64() < 0.5 {
					if err := sys.EndService(id); err != nil {
						t.Fatalf("%s step %d: end service %d: %v", net.Name, step, id, err)
					}
					delete(singles, id)
				}
			}
			for gid := range gangs {
				if sys.GangProvisioned(gid) && rng.Float64() < 0.5 {
					if err := sys.EndGangService(gid); err != nil {
						t.Fatalf("%s step %d: end gang %d: %v", net.Name, step, gid, err)
					}
					delete(gangs, gid)
				}
			}
			// Hardware churn, then the atomicity invariants it must preserve.
			if rng.Float64() < 0.3 {
				applyRandomFault(t, rng, sys, net, failedLinks, failedRes)
				checkGangAtomicity(t, sys, gangs, net.Name, step)
			}
			// Cycle to quiescence; every hypothetical state's safety verdict
			// is held to the brute-force permutation oracle.
			for {
				h := sys.hypothetical(nil)
				want := bruteForceSafe(h)
				if got, ref := sys.led.openTrial().safe(), h.safe(); got != want || ref != want {
					t.Fatalf("%s step %d: ledger safe()=%v, reference safe()=%v, brute force says %v (free %v, committed %d)",
						net.Name, step, got, ref, want, h.freeByType, len(h.entities))
				}
				r, err := sys.Cycle()
				if err != nil {
					t.Fatalf("%s step %d: cycle: %v", net.Name, step, err)
				}
				for _, a := range r.Mapping.Assigned {
					if err := sys.EndTransmission(a.Req.Proc); err != nil {
						t.Fatalf("%s step %d: end transmission %d: %v", net.Name, step, a.Req.Proc, err)
					}
				}
				checkGangAtomicity(t, sys, gangs, net.Name, step)
				if r.Granted == 0 {
					break
				}
			}
		}
		// Liveness drain: heal the fabric, then every admitted gang and
		// singleton must complete. Progress is bounded — if an iteration
		// neither provisions nor releases anything, the system is wedged.
		for l := range failedLinks {
			if err := sys.repair(FaultTargetLink, l); err != nil {
				t.Fatal(err)
			}
		}
		for r := range failedRes {
			if err := sys.repair(FaultTargetResource, r); err != nil {
				t.Fatal(err)
			}
		}
		for iter := 0; len(gangs) > 0 || len(singles) > 0; iter++ {
			if iter > 10000 {
				t.Fatalf("%s: drain wedged with %d gangs, %d singles left (pending gangs %d)",
					net.Name, len(gangs), len(singles), sys.PendingGangs())
			}
			r, err := sys.Cycle()
			if err != nil {
				t.Fatalf("%s: drain cycle: %v", net.Name, err)
			}
			for _, a := range r.Mapping.Assigned {
				if err := sys.EndTransmission(a.Req.Proc); err != nil {
					t.Fatalf("%s: drain end transmission: %v", net.Name, err)
				}
			}
			for id := range singles {
				if sys.Remaining(id) == 0 {
					if err := sys.EndService(id); err != nil {
						t.Fatalf("%s: drain end service %d: %v", net.Name, id, err)
					}
					delete(singles, id)
				}
			}
			for gid := range gangs {
				if sys.GangProvisioned(gid) {
					if err := sys.EndGangService(gid); err != nil {
						t.Fatalf("%s: drain end gang %d: %v", net.Name, gid, err)
					}
					delete(gangs, gid)
				}
			}
		}
		if free := sys.FreeResources(); free != net.Ress {
			t.Fatalf("%s: drained fabric has %d free of %d", net.Name, free, net.Ress)
		}
	}
}

// checkGangAtomicity asserts the observable all-or-nothing contract: a
// gang that has not passed (or was reset behind) the activation gate holds
// nothing on any member, and a provisioned gang holds everything.
func checkGangAtomicity(t *testing.T, sys audited, gangs map[GangID][]TaskID, name string, step int) {
	t.Helper()
	for gid, members := range gangs {
		if !sys.GangActive(gid) {
			for _, id := range members {
				if held := sys.Holding(id); len(held) != 0 {
					t.Fatalf("%s step %d: gated gang %d member %d holds %v",
						name, step, gid, id, held)
				}
			}
		}
		if sys.GangProvisioned(gid) {
			for _, id := range members {
				if sys.Remaining(id) != 0 {
					t.Fatalf("%s step %d: provisioned gang %d member %d still needs %d",
						name, step, gid, id, sys.Remaining(id))
				}
			}
		}
	}
}

// bruteForceSafe decides the banker's condition exactly: search every
// completion order of the committed entities for one that finishes them
// all, with full demand/holding vectors (a gang entity couples types that
// a per-type decomposition would treat as independent). Exponential, so
// traces keep committed sets small.
func bruteForceSafe(h *hypoState) bool {
	free := make(map[int]int, len(h.freeByType))
	for typ, n := range h.freeByType {
		free[typ] = n
	}
	return permutationFinishes(h.entities, free, map[int]bool{})
}

func permutationFinishes(ents []*hypoEntity, free map[int]int, done map[int]bool) bool {
	if len(done) == len(ents) {
		return true
	}
	for i, e := range ents {
		if done[i] || !fitsFree(e.rem, free) {
			continue
		}
		done[i] = true
		for typ, n := range e.held {
			free[typ] += n
		}
		if permutationFinishes(ents, free, done) {
			return true
		}
		for typ, n := range e.held {
			free[typ] -= n
		}
		delete(done, i)
	}
	return false
}
