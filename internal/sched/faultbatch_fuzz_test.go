package sched

import (
	"reflect"
	"slices"
	"testing"

	"rsin/internal/bitset"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// FuzzFaultBatch drives Scheduler.ApplyFaults with random batches, valid
// and invalid, against a model of the failed components of an Omega-8
// shard. Each op is two bytes: the first picks the target (links 3/8,
// boxes 2/8, resources 2/8, an unknown target 1/8), a repair (bit 3) and
// the end of its batch (bit 4); the second an index, one past either end
// of the range included. After every batch:
//
//   - a batch with any bad op is refused and leaves the fabric's link
//     words, its FaultEpoch and Stats as they were (but Epochs, which
//     counts the flush the batch rode in);
//   - LinkFaults and Repairs equal the model's transitions (a fail of a
//     healthy component, a repair of a failed one), and the fault epoch
//     moved once per transition;
//   - the link words equal the model's recount: with no circuit standing,
//     a link is open exactly when no fault masks it;
//   - a healed fabric has Repairs == LinkFaults.
//
// The seeds are the correlated Omega failure shapes of Rastogi et al.'s
// disjoint-path fault studies: a switch and the links on its ports, every
// link between two stages, a whole stage of switches healed in two
// halves, and a mix with bad ops to refuse.
func FuzzFaultBatch(f *testing.F) {
	const (
		link = 0
		box  = 3
		res  = 5
		bad  = 7

		repair = 1 << 3
		end    = 1 << 4
	)
	// Omega-8: 32 links (processor links 0-7, stage 0's outputs 8-15), 12
	// boxes in three stages of four, 8 resources; at most 8 ops a batch. An index byte b names b mod (n+2) - 1.
	op := func(kind, flags, idx int) []byte { return []byte{byte(kind | flags), byte(idx + 1)} }
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	boxAndPorts := func(flags int) []byte {
		// Box 4 (stage 1) and the links on its ports.
		return cat(op(box, flags, 4), op(link, flags, 8), op(link, flags, 12), op(link, flags, 16), op(link, flags|end, 17))
	}
	stage := func(kind, first, n, flags int) []byte {
		var b []byte
		for i := range n {
			if i == n-1 {
				flags |= end
			}
			b = append(b, op(kind, flags, first+i)...)
		}
		return b
	}
	f.Add(cat(boxAndPorts(0), boxAndPorts(repair)))
	f.Add(cat(stage(link, 8, 8, 0), stage(link, 8, 8, repair)))
	f.Add(cat(stage(box, 4, 4, 0), stage(box, 4, 2, repair), stage(box, 6, 2, repair)))
	f.Add(cat(op(link, 0, 12), op(link, end, 33), op(link, end, 12), op(res, end, 3),
		op(res, repair, 3), op(bad, end, 0), op(link, repair|end, 12), op(box, repair|end, -1)))
	f.Add(cat(op(link, 0, 0), op(link, end, 0), op(link, repair|end, 0), op(link, repair|end, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		net := topology.Omega(8)
		s := newScheduler(t, Config{Shards: []system.Config{{Net: net}}})
		sys := s.shards[0].sys
		sizes := map[int]int{link: len(net.Links), box: len(net.Boxes), res: net.Ress}
		targets := map[int]system.FaultTarget{link: system.FaultTargetLink, box: system.FaultTargetBox, res: system.FaultTargetResource}
		failed := map[int][]bool{link: make([]bool, len(net.Links)), box: make([]bool, len(net.Boxes)), res: make([]bool, net.Ress)}
		var faults, repairs int64
		epoch0 := sys.FaultEpoch()
		words := func() bitset.Bits { return slices.Clone(sys.OpenLinks()) }
		recount := func() bitset.Bits {
			want := bitset.Make(len(net.Links))
			for _, l := range net.Links {
				ok := !failed[link][l.ID]
				for _, e := range []topology.Endpoint{l.From, l.To} {
					if e.Kind == topology.KindBox && failed[box][e.Index] {
						ok = false
					}
				}
				if l.To.Kind == topology.KindResource && failed[res][l.To.Index] {
					ok = false
				}
				want.SetTo(l.ID, ok)
			}
			return want
		}
		for batches := 0; len(data) >= 2 && batches < 64; batches++ {
			var ops []system.FaultOp
			valid := true
			for len(data) >= 2 && len(ops) < 8 {
				b0, b1 := int(data[0]), int(data[1])
				data = data[2:]
				kind := b0 & 7
				switch {
				case kind < box:
					kind = link
				case kind < res:
					kind = box
				case kind < bad:
					kind = res
				}
				o := system.FaultOp{Repair: b0&repair != 0, Target: system.FaultTarget(99), Index: -1}
				if kind == bad {
					valid = false
				} else {
					o.Target = targets[kind]
					o.Index = b1%(sizes[kind]+2) - 1
					valid = valid && o.Index >= 0 && o.Index < sizes[kind]
				}
				ops = append(ops, o)
				if b0&end != 0 {
					break
				}
			}
			before, beforeWords, beforeEpoch := s.Stats(), words(), sys.FaultEpoch()
			err := s.ApplyFaults(0, ops)
			if !valid {
				if err == nil {
					t.Fatalf("batch %d %+v: accepted, want refused", batches, ops)
				}
				// Epochs counts the flush the batch rode in, whatever it
				// carried; nothing else may move.
				got := s.Stats()
				got.Epochs = before.Epochs
				if !reflect.DeepEqual(got, before) {
					t.Fatalf("refused batch %+v moved Stats:\n%+v\nwas\n%+v", ops, got, before)
				}
				if !slices.Equal(words(), beforeWords) || sys.FaultEpoch() != beforeEpoch {
					t.Fatalf("refused batch %+v moved the link words or the fault epoch (%d -> %d)", ops, beforeEpoch, sys.FaultEpoch())
				}
				continue
			}
			if err != nil {
				t.Fatalf("batch %d %+v: %v", batches, ops, err)
			}
			for _, o := range ops {
				kind := link
				for k, tg := range targets {
					if tg == o.Target {
						kind = k
					}
				}
				switch set := failed[kind]; {
				case o.Repair && set[o.Index]:
					set[o.Index] = false
					repairs++
				case !o.Repair && !set[o.Index]:
					set[o.Index] = true
					faults++
				}
			}
			st := s.Stats()
			if st.LinkFaults != faults || st.Repairs != repairs {
				t.Fatalf("after batch %d %+v: LinkFaults %d, Repairs %d; the model's transitions %d, %d",
					batches, ops, st.LinkFaults, st.Repairs, faults, repairs)
			}
			if moved := sys.FaultEpoch() - epoch0; moved != uint64(faults+repairs) {
				t.Fatalf("after batch %d: fault epoch moved %d, the model's transitions %d", batches, moved, faults+repairs)
			}
			if got, want := words(), recount(); !slices.Equal(got, want) {
				t.Fatalf("after batch %d %+v: link words %x, the model's recount %x", batches, ops, got, want)
			}
			healed := !slices.Contains(failed[link], true) && !slices.Contains(failed[box], true) && !slices.Contains(failed[res], true)
			if healed && st.Repairs != st.LinkFaults {
				t.Fatalf("healed fabric after batch %d: Repairs %d, LinkFaults %d", batches, st.Repairs, st.LinkFaults)
			}
		}
	})
}
