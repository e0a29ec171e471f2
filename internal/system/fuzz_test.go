package system

import (
	"io"
	"testing"

	"rsin/internal/obs"
	"rsin/internal/topology"
)

// FuzzSubmitCycle fuzzes interleavings of the §II life-cycle operations —
// Submit, Cycle, EndTransmission, EndService — and the hardware fault
// surface — Fail/Repair of links, switchboxes and resources — with
// arbitrary payloads and asserts the system's invariants hold after
// every step instead of merely not crashing:
//
//   - held ⊆ granted: every resource a task reports holding is a real
//     resource, held by exactly one live task, and the holder census
//     balances FreeResources (held + free == Ress);
//   - Pending() is never negative and counts exactly the live tasks;
//   - a task never holds more than its declared Need.
//
// Bit 0 of the first byte selects the banker, bit 1 the MinCost discipline
// with Config.Preempt, so the cycles also plan tier exchanges — which the
// audited wrapper holds to the reference planner.
//
// Operation errors (bad processor, premature EndService, a severed
// transmission, ...) are legal outcomes; invariant violations are not.
func FuzzSubmitCycle(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{0x10, 0x50, 0x01, 0x01, 0x02, 0x03, 0x03, 0x03})
	f.Add([]byte{0xff, 0x00, 0x40, 0x01, 0x81, 0x01, 0xc2, 0x03})
	f.Add([]byte{0x20, 0x60, 0xa0, 0xe0, 0x01, 0x01, 0x01, 0x02, 0x02, 0x03, 0x03})
	// Fault-heavy seed: submit, cycle, fail link/res, cycle, repair, cycle.
	f.Add([]byte{0x00, 0x20, 0x01, 0x04, 0x16, 0x01, 0x0c, 0x1e, 0x01, 0x02, 0x03})
	// Preemption seed: two tiered Need=2 submits, cycles, then 0x47/0x4f
	// exercise op 7's preempt variant (b&0x40) against both tasks.
	f.Add([]byte{0x01, 0x40, 0x60, 0x01, 0x02, 0x02, 0x47, 0x01, 0x4f, 0x01, 0x02, 0x03})
	// Exchange seeds, without avoidance and under the banker: Need-3 holders
	// of tiers 7 and 6 acquire, then tier-0 and tier-1 arrivals want units.
	f.Add([]byte{0x02, 0x78, 0x70, 0x01, 0x1a, 0x12, 0x01, 0x1a, 0x12, 0xc0, 0x48, 0x01, 0x02, 0x0a, 0x01})
	f.Add([]byte{0x03, 0x78, 0x70, 0x01, 0x1a, 0x12, 0x01, 0x1a, 0x12, 0xc0, 0x48, 0x01, 0x02, 0x0a, 0x01})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<12 {
			return
		}
		net := topology.Omega(4)
		// Every fuzzed run drives the instrumentation hooks too: counters,
		// histograms and the trace ring record under arbitrary op orders.
		reg := obs.NewRegistry()
		cfg := Config{Net: net, Obs: reg}
		if len(ops) > 0 && ops[0]&1 == 1 {
			cfg.Avoidance = AvoidanceBankers
		}
		if len(ops) > 0 && ops[0]&2 != 0 {
			cfg.Discipline, cfg.Preempt = MinCost, true
		}
		raw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := audit(t, raw) // the ledger differential rides every operation
		var ids []TaskID
		for _, b := range ops {
			switch b & 0x07 {
			case 0: // Submit(proc, need, tier) from the upper bits
				task := Task{Proc: int(b>>3) & 0x03, Need: int(b>>5) & 0x03}
				// Fold the payload into a legal tier band so tiered and
				// untiered tasks mix in one run; the validation gate is
				// covered separately by TestValidateTaskTable.
				task.Tier = int(b>>3) % (MaxTier + 1)
				if id, err := s.Submit(task); err == nil {
					ids = append(ids, id)
				}
			case 1: // Cycle
				if _, err := s.Cycle(); err != nil {
					t.Fatalf("cycle: %v", err)
				}
			case 2: // EndTransmission(proc); not-transmitting / severed are fine
				_ = s.EndTransmission(int(b>>3) & 0x03)
			case 3: // EndService on a fuzzer-chosen submitted task
				if len(ids) > 0 {
					_ = s.EndService(ids[int(b>>3)%len(ids)])
				}
			case 4: // fail or repair a link
				lid := int(b>>4) % len(net.Links)
				if b&0x08 != 0 {
					_ = s.RepairLink(lid)
				} else if _, err := s.FailLink(lid); err != nil {
					t.Fatalf("fail link %d: %v", lid, err)
				}
			case 5: // fail or repair a switchbox
				box := int(b>>4) % len(net.Boxes)
				if b&0x08 != 0 {
					_ = s.RepairBox(box)
				} else if _, err := s.FailBox(box); err != nil {
					t.Fatalf("fail box %d: %v", box, err)
				}
			case 6: // fail or repair a resource
				r := int(b>>4) % net.Ress
				if b&0x08 != 0 {
					_ = s.RepairResource(r)
				} else if _, err := s.FailResource(r); err != nil {
					t.Fatalf("fail resource %d: %v", r, err)
				}
			case 7: // Cancel — or, with bit 6 set, Preempt — a fuzzer-chosen task
				if len(ids) == 0 {
					break
				}
				id := ids[int(b>>3)%len(ids)]
				if b&0x40 != 0 {
					// Preempt the task's first held unit; errors (not held,
					// fully provisioned, already serviced) are legal outcomes.
					if held := s.Holding(id); len(held) > 0 {
						_ = s.Preempt(id, held[0])
					}
				} else {
					_ = s.Cancel(id)
				}
			}
			checkInvariants(t, s, net, ids)
		}
		// Export must hold together for whatever the ops recorded.
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatalf("exposition: %v", err)
		}
		if cycles := reg.Snapshot().Counters["rsin_system_cycles_total"]; cycles > int64(len(ops)) {
			t.Fatalf("cycle counter %d exceeds op count %d", cycles, len(ops))
		}
	})
}

// FuzzGangSubmit fuzzes the gang life cycle — SubmitGang, Cycle,
// EndTransmission, EndGangService, CancelGang — interleaved with
// singleton traffic and hardware faults, asserting the all-or-nothing
// contract after every step:
//
//   - a gang that has not been activated (or was reset by a fault) holds
//     nothing on any member;
//   - a provisioned gang's members each hold their full set;
//   - the singleton invariants (unique holders, balanced free census)
//     hold across the mixed population.
//
// Operation errors (member already serviced, cancel of an unknown gang,
// a severed transmission, ...) are legal outcomes; invariant violations
// and cycle failures are not.
func FuzzGangSubmit(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x0a, 0x12, 0x1a, 0x01, 0x03})
	f.Add([]byte{0x08, 0x01, 0x01, 0x02, 0x0a, 0x03, 0x04, 0x01})
	// Sever-mid-gang seed: submit a gang, cycle, fail a resource, cycle,
	// repair, cycle, end service.
	f.Add([]byte{0x00, 0x01, 0x06, 0x01, 0x0e, 0x01, 0x02, 0x0a, 0x12, 0x1a, 0x03})
	f.Add([]byte{0x07, 0x27, 0x00, 0x38, 0x01, 0x01, 0x04, 0x05, 0x01, 0x02, 0x03, 0x04})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<12 {
			return
		}
		avoid := AvoidanceNone
		if len(ops) > 0 && ops[0]&1 == 1 {
			avoid = AvoidanceBankers
		}
		net := topology.Omega(4)
		raw, err := New(Config{Net: net, Avoidance: avoid})
		if err != nil {
			t.Fatal(err)
		}
		s := audit(t, raw) // the ledger differential rides every operation
		var ids []TaskID
		var gids []GangID
		for _, b := range ops {
			switch b & 0x07 {
			case 0: // SubmitGang: 2 or 3 members on consecutive processors
				k := 2 + int(b>>3)&1
				base := int(b>>4) & 0x03
				members := make([]Task, k)
				for i := range members {
					members[i] = Task{Proc: (base + i) % net.Procs, Need: 1 + int(b>>6)&1}
				}
				if gid, mids, err := s.SubmitGang(members); err == nil {
					gids = append(gids, gid)
					ids = append(ids, mids...)
				}
			case 1: // Cycle
				if _, err := s.Cycle(); err != nil {
					t.Fatalf("cycle: %v", err)
				}
			case 2: // EndTransmission(proc)
				_ = s.EndTransmission(int(b>>3) & 0x03)
			case 3: // EndGangService on a fuzzer-chosen gang
				if len(gids) > 0 {
					_ = s.EndGangService(gids[int(b>>3)%len(gids)])
				}
			case 4: // CancelGang on a fuzzer-chosen gang
				if len(gids) > 0 {
					_ = s.CancelGang(gids[int(b>>3)%len(gids)])
				}
			case 5: // fail or repair a link
				lid := int(b>>4) % len(net.Links)
				if b&0x08 != 0 {
					_ = s.RepairLink(lid)
				} else if _, err := s.FailLink(lid); err != nil {
					t.Fatalf("fail link %d: %v", lid, err)
				}
			case 6: // fail or repair a resource
				r := int(b>>4) % net.Ress
				if b&0x08 != 0 {
					_ = s.RepairResource(r)
				} else if _, err := s.FailResource(r); err != nil {
					t.Fatalf("fail resource %d: %v", r, err)
				}
			case 7: // singleton traffic rides along
				if id, err := s.Submit(Task{Proc: int(b>>3) & 0x03, Need: 1 + int(b>>5)&1}); err == nil {
					ids = append(ids, id)
				}
			}
			checkInvariants(t, s, net, ids)
			checkGangInvariants(t, s, gids)
		}
	})
}

// checkGangInvariants audits the all-or-nothing observables of every
// still-known gang.
func checkGangInvariants(t *testing.T, s audited, gids []GangID) {
	t.Helper()
	for _, gid := range gids {
		members := s.GangMembers(gid)
		if members == nil {
			continue // serviced or canceled
		}
		if !s.GangActive(gid) {
			for _, id := range members {
				if held := s.Holding(id); len(held) != 0 {
					t.Fatalf("gated gang %d member %d holds %v", gid, id, held)
				}
			}
		}
		if s.GangProvisioned(gid) {
			for _, id := range members {
				if rem := s.Remaining(id); rem != 0 {
					t.Fatalf("provisioned gang %d member %d still needs %d", gid, id, rem)
				}
			}
		}
	}
}

// checkInvariants audits the externally observable state of the system.
func checkInvariants(t *testing.T, s audited, net *topology.Network, ids []TaskID) {
	t.Helper()
	if s.Pending() < 0 {
		t.Fatalf("Pending() = %d", s.Pending())
	}
	holder := make(map[int]TaskID)
	live := 0
	for _, id := range ids {
		held := s.Holding(id)
		rem := s.Remaining(id)
		if rem == -1 {
			if held != nil {
				t.Fatalf("serviced task %d still holds %v", id, held)
			}
			continue
		}
		live++
		if rem < 0 {
			t.Fatalf("task %d remaining %d", id, rem)
		}
		for _, r := range held {
			if r < 0 || r >= net.Ress {
				t.Fatalf("task %d holds nonexistent resource %d", id, r)
			}
			if prev, dup := holder[r]; dup {
				t.Fatalf("resource %d held by both task %d and task %d", r, prev, id)
			}
			holder[r] = id
		}
	}
	if live != s.Pending() {
		t.Fatalf("Pending() = %d but %d live tasks observed", s.Pending(), live)
	}
	if got, want := s.FreeResources(), net.Ress-len(holder); got != want {
		t.Fatalf("FreeResources() = %d, want %d (%d held of %d)", got, want, len(holder), net.Ress)
	}
}

// FuzzTypedSubmit fuzzes typed-needs tasks through a heterogeneous
// system — Submit with per-type demand vectors mixed with legacy scalar
// traffic, Cycle, EndService, Cancel and the full hardware fault surface
// — asserting the multicommodity contract after every step:
//
//   - a typed task never holds a unit of a type it did not declare, nor
//     more units of a type than its vector requests;
//   - a fully provisioned typed task (Remaining 0) holds its vector
//     exactly — no partial typed grants are ever observable;
//   - the singleton invariants (unique holders, balanced free census)
//     hold across the mixed population.
//
// Operation errors (bad processor, premature EndService, unsatisfiable
// vectors under faults, ...) are legal outcomes; invariant violations
// and cycle failures are not.
func FuzzTypedSubmit(f *testing.F) {
	f.Add([]byte{0x60, 0x01, 0x02, 0x03})
	f.Add([]byte{0x21, 0x41, 0x61, 0x01, 0x01, 0x02, 0x02, 0x03, 0x03})
	// Fault-heavy seed: typed submit, cycle, fail resource, cycle, repair.
	f.Add([]byte{0x60, 0x01, 0x06, 0x01, 0x0e, 0x01, 0x02, 0x03})
	// Mixed seed: typed and scalar traffic interleaved with cancels.
	f.Add([]byte{0x20, 0x47, 0x01, 0x01, 0x3f, 0x02, 0x03, 0x07})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<12 {
			return
		}
		avoid := AvoidanceNone
		if len(ops) > 0 && ops[0]&1 == 1 {
			avoid = AvoidanceBankers
		}
		net := topology.Omega(4)
		types := []int{0, 1, 0, 1}
		raw, err := New(Config{Net: net, Discipline: Hetero, Types: types, Avoidance: avoid})
		if err != nil {
			t.Fatal(err)
		}
		s := audit(t, raw) // the ledger differential rides every operation
		var ids []TaskID
		needsOf := map[TaskID]map[int]int{}
		for _, b := range ops {
			switch b & 0x07 {
			case 0: // typed Submit: vector from bits 5-7 over the two types
				needs := map[int]int{}
				if b&0x20 != 0 {
					needs[0] = 1 + int(b>>6)&1
				}
				if b&0x40 != 0 {
					needs[1] = 1
				}
				if len(needs) == 0 {
					needs[int(b>>6)&1] = 1
				}
				if id, err := s.Submit(Task{Proc: int(b>>3) & 0x03, Needs: needs}); err == nil {
					ids = append(ids, id)
					needsOf[id] = needs
				}
			case 1: // Cycle
				if _, err := s.Cycle(); err != nil {
					t.Fatalf("cycle: %v", err)
				}
			case 2: // EndTransmission(proc)
				_ = s.EndTransmission(int(b>>3) & 0x03)
			case 3: // EndService on a fuzzer-chosen task
				if len(ids) > 0 {
					_ = s.EndService(ids[int(b>>3)%len(ids)])
				}
			case 4: // fail or repair a link
				lid := int(b>>4) % len(net.Links)
				if b&0x08 != 0 {
					_ = s.RepairLink(lid)
				} else if _, err := s.FailLink(lid); err != nil {
					t.Fatalf("fail link %d: %v", lid, err)
				}
			case 5: // fail or repair a switchbox
				box := int(b>>4) % len(net.Boxes)
				if b&0x08 != 0 {
					_ = s.RepairBox(box)
				} else if _, err := s.FailBox(box); err != nil {
					t.Fatalf("fail box %d: %v", box, err)
				}
			case 6: // fail or repair a resource
				r := int(b>>4) % net.Ress
				if b&0x08 != 0 {
					_ = s.RepairResource(r)
				} else if _, err := s.FailResource(r); err != nil {
					t.Fatalf("fail resource %d: %v", r, err)
				}
			case 7: // Cancel, or scalar singleton traffic riding along
				if b&0x40 != 0 && len(ids) > 0 {
					_ = s.Cancel(ids[int(b>>3)%len(ids)])
				} else if id, err := s.Submit(Task{Proc: int(b>>3) & 0x03, Need: 1, Type: int(b>>5) & 1}); err == nil {
					ids = append(ids, id)
				}
			}
			checkInvariants(t, s, net, ids)
			checkTypedInvariants(t, s, types, needsOf)
		}
	})
}

// checkTypedInvariants audits the per-type holdings of every still-live
// typed task against its declared vector.
func checkTypedInvariants(t *testing.T, s audited, types []int, needsOf map[TaskID]map[int]int) {
	t.Helper()
	for id, needs := range needsOf {
		rem := s.Remaining(id)
		if rem == -1 {
			continue // serviced or canceled
		}
		got := map[int]int{}
		for _, r := range s.Holding(id) {
			got[types[r]]++
		}
		for ty, n := range got {
			if n > needs[ty] {
				t.Fatalf("typed task %d holds %d units of type %d, declared %d", id, n, ty, needs[ty])
			}
		}
		if rem == 0 {
			for ty, n := range needs {
				if got[ty] != n {
					t.Fatalf("provisioned typed task %d holds %v of type %d, want exactly %v", id, got, ty, needs)
				}
			}
		}
	}
}
