package sched

import (
	"slices"
	"testing"

	"rsin/internal/system"
	"rsin/internal/topology"
)

// FuzzShardScript drives a stepped Omega-8 shard with ops decoded from the
// fuzzer's bytes and holds it to script's invariants after every epoch.
// Each op is two bytes. When bits 5-7 of the first are 0 it is a fault op,
// as it always was: bits 0-2 pick the target (links 3/8, boxes 2/8,
// resources 2/8, an unknown target 1/8), bit 3 a repair, and the second
// byte an index, one past either end of the range included; the fault ops
// of an epoch form one batch, applied in an epoch of its own after the
// epoch's other ops. Otherwise bits 5-7 pick a submit (1, 2: a task on
// processor b mod 8 needing 1 + b/8 mod 4 units), a two-member gang (3, 4),
// a release (5, 6) or a cancel (7) of the job the second byte picks. Bit 4
// ends the epoch. Beyond script's checks, which include every check this
// fuzzer made of fault batches alone — a refused batch moves nothing but
// Epochs, the counters equal the model's transitions, the link words the
// model's recount, and a healed fabric has Repairs == LinkFaults — a
// batch's reply must say whether it was refused.
//
// The seeds are the correlated Omega failure shapes of Rastogi et al.'s
// disjoint-path fault studies: a switch and the links on its ports, every
// link between two stages, a whole stage of switches healed in two
// halves, and a mix with bad ops to refuse — and the first shape again
// under tasks that hold and wait on the units it severs; then batches
// that name one component twice.
func FuzzShardScript(f *testing.F) {
	const (
		link = 0
		box  = 3
		res  = 5
		bad  = 7

		repair = 1 << 3
		end    = 1 << 4

		submit = 1 << 5
		gang   = 3 << 5
		rel    = 5 << 5
		cancel = 7 << 5
	)
	// Omega-8: 32 links (processor links 0-7, stage 0's outputs 8-15), 12
	// boxes in three stages of four, 8 resources; at most 8 ops an epoch. An index byte b names b mod (n+2) - 1.
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
	// Five holders; a task needing four takes the three free units and
	// waits, a gang queues; the switch and its links die and heal, and so
	// does half the resource pool, twice; then everything is released,
	// some of it twice.
	f.Add(cat(op(0, submit, 3-1), op(0, submit, 4-1), op(0, submit, 5-1), op(0, submit, 6-1), op(0, submit|end, 7-1),
		op(0, submit|end, 24+1-1), op(0, gang|end, 2+8*2-1),
		boxAndPorts(0), boxAndPorts(repair), stage(res, 0, 4, 0), stage(res, 0, 4, repair),
		stage(res, 0, 4, 0), stage(res, 0, 4, repair),
		op(0, rel, 0), op(0, rel, 1), op(0, rel, 2), op(0, rel|end, 3), op(0, rel, 4), op(0, rel, 5), op(0, cancel|end, 0)))
	// Batches that name a component twice, under the five holders and the
	// waiting task of the seed above: one fails and repairs a link and
	// three resources, another fails a link and a resource twice each, and
	// each revokes a unit of the waiter's; then a batch repairs the link
	// and fails it again. The counters must equal the model's transitions,
	// op by op in batch order.
	holders := cat(op(0, submit, 3-1), op(0, submit, 4-1), op(0, submit, 5-1), op(0, submit, 6-1), op(0, submit|end, 7-1),
		op(0, submit|end, 24+1-1))
	f.Add(cat(holders, op(link, 0, 12), op(res, 0, 0), op(res, 0, 1), op(res, 0, 7),
		op(res, repair, 0), op(res, repair, 1), op(res, repair, 7), op(link, repair|end, 12)))
	f.Add(cat(holders, op(link, 0, 16), op(link, 0, 16), op(res, 0, 1), op(res, end, 1),
		op(link, repair, 16), op(link, 0, 16), op(res, repair|end, 1), op(link, repair|end, 16)))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := newScript(t, Config{Shards: []system.Config{{Net: topology.Omega(8)}}})
		net := sc.net
		sizes := map[int]int{link: len(net.Links), box: len(net.Boxes), res: net.Ress}
		targets := map[int]system.FaultTarget{link: system.FaultTargetLink, box: system.FaultTargetBox, res: system.FaultTargetResource}
		for epochs := 0; len(data) >= 2 && epochs < 64; epochs++ {
			var batch []system.FaultOp
			valid := true
			for n := 0; len(data) >= 2 && n < 8; n++ {
				b0, b1 := int(data[0]), int(data[1])
				data = data[2:]
				switch b0 >> 5 {
				case 0:
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
					batch = append(batch, o)
				case 1, 2:
					sc.submitJob(system.Task{Proc: b1 % 8, Need: 1 + b1/8%4})
				case 3, 4:
					sc.submitJob(system.Task{Proc: b1 % 8}, system.Task{Proc: (b1%8 + 1 + b1/8%7) % 8})
				case 5, 6:
					sc.endJob(b1)
				case 7:
					sc.cancelJob(b1)
				}
				if b0&end != 0 {
					break
				}
			}
			if len(sc.ops) > 0 {
				sc.run()
			}
			if batch != nil {
				reply := sc.faults(batch...)
				sc.run()
				if err := reply.wait(); (err == nil) != valid {
					t.Fatalf("epoch %d: batch %+v answered %v, valid %v", sc.epoch, batch, err, valid)
				}
			}
		}
	})
}
