package main

import (
	"fmt"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"rsin/internal/core"
	"rsin/internal/multiflow"
	"rsin/internal/system"
)

// D3, D4 and D5 of the stack walk: one goroutine drives system.System
// directly — Submit x b, Cycle until quiescent, EndTransmission,
// EndService — in the batch shape D2 was observed to use. Inside it, from
// outside the system, every Cycle's instance is rebuilt (the Mapping's
// Assigned+Blocked are the requests, the harness's own free set is the
// availability) and solved again by a shadow core.Planner on a cloned
// network (D4); on typed epochs the raw multicommodity instance is also
// handed to multiflow's LP and greedy engines (D5). The clone advances
// with the system's own mapping, so the two never drift. It runs a fixed
// number of operations, so its counts repeat exactly for a seed.

type directOut struct {
	tasks, batchTasks int
	cycles, solved    int // all Cycle calls; those with a non-empty instance

	submitNS, cycleNS, endtxNS, endsvcNS int64 // time inside system calls
	nSubmit, nEndtx, nEndsvc             int64
	solveNS, applyNS, lpNS, greedyNS     int64 // shadow work, D4 and D5
	cycleUS, solveUS, applyUS            []float32
	lpUS, greedyUS                       []float32

	assigned, blocked, granted      int64
	ops                             core.OpCounts
	warm, cold, fast, retractions   int64
	certified, heteroEpochs, gapSum int64

	// Allocation counts are read around the system calls of every
	// sampled batch, outside the timed sections.
	sampledTasks, sampledCycles uint64
	sampledAllocs, cycleAllocs  uint64 // all system calls; Cycle calls alone

	spans []span // a bounded prefix, for bench/out
}

// directSpansKept bounds the D3/D4/D5 spans kept for bench/out.
const directSpansKept = 600

// dClient is one D3 client slot: at most one operation outstanding.
type dClient struct {
	gen   *opGen
	state int // 0 idle, 1 pending, 2 provisioned (released next batch)
	id    system.TaskID
	gid   system.GangID
	gang  bool
	ids   []system.TaskID
	held  []int
	needs map[int]int // typed_pool: the pending task's need vector
}

func heapAllocObjects(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// runDirect drives total operations through one shard's system in batches
// of batchTasks submissions.
func runDirect(w *workloadDef, seed int64, batchTasks, total int) (*directOut, error) {
	shards, types := shardConfigs(w)
	cfg := shards[0]
	sys, err := system.New(cfg)
	if err != nil {
		return nil, err
	}
	clone := cfg.Net.Clone()
	free := make([]bool, cfg.Net.Ress)
	for r := range free {
		free[r] = true
	}
	nClients := w.Clients / len(shards)
	clients := make([]*dClient, nClients)
	for c := range clients {
		// Shard 0's clients of a two-shard workload are the even ones.
		clients[c] = &dClient{gen: newOpGen(w, seed, c*len(shards))}
	}
	owner := map[system.TaskID]*dClient{}
	out := &directOut{batchTasks: batchTasks}
	var shadow core.Planner
	allocSample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	var fg *faultGen
	var healing *system.FaultOp
	sinceFault := 0
	if w.Name == "tiered_faults" {
		fg = newFaultGen(seed, len(cfg.Net.Links))
	}
	applyFault := func(op system.FaultOp) error {
		ids, err := sys.ApplyFault(op)
		if err != nil {
			return fmt.Errorf("D3 fault script: %w", err)
		}
		var cerr error
		switch {
		case op.Target == system.FaultTargetResource && op.Repair:
			cerr = clone.RepairResource(op.Index)
		case op.Target == system.FaultTargetResource:
			cerr = clone.FailResource(op.Index)
		case op.Repair:
			cerr = clone.RepairLink(op.Index)
		default:
			cerr = clone.FailLink(op.Index)
		}
		if cerr != nil {
			return fmt.Errorf("D3 fault script on the clone: %w", cerr)
		}
		// A failed resource is revoked from a holder still acquiring; the
		// harness's free set follows the system's own account of it.
		for _, id := range ids {
			cl := owner[id]
			if cl == nil {
				continue
			}
			now := sys.Holding(id)
			for _, r := range cl.held {
				if !slices.Contains(now, r) {
					free[r] = true
				}
			}
			cl.held = now
		}
		return nil
	}

	begin := time.Now()
	keep := func(name, parent string, t0 time.Time, dt time.Duration) {
		if len(out.spans) < directSpansKept {
			st := int64(t0.Sub(begin))
			out.spans = append(out.spans, span{Name: name, Depth: dSystem.String(), Op: out.cycles, Parent: parent, Start: st, End: st + int64(dt)})
		}
	}
	sampleEvery := 16
	if total < 10000 {
		sampleEvery = 1
	}
	next, pending, idleBatches := 0, 0, 0
	for batchIdx := 0; out.tasks < total; batchIdx++ {
		sample := batchIdx%sampleEvery == 0
		allocs := func() uint64 {
			if !sample {
				return 0
			}
			return heapAllocObjects(allocSample)
		}
		// Releases first, as a sched epoch applies them.
		progressed := false
		a0 := allocs()
		t0 := time.Now()
		for _, cl := range clients {
			if cl.state != 2 {
				continue
			}
			if cl.gang {
				err = sys.EndGangService(cl.gid)
			} else {
				err = sys.EndService(cl.id)
			}
			if err != nil {
				return nil, fmt.Errorf("D3: release: %w", err)
			}
			out.nEndsvc++
			for _, r := range cl.held {
				free[r] = true
			}
			for _, id := range cl.ids {
				delete(owner, id)
			}
			cl.state, cl.held, cl.ids = 0, cl.held[:0], cl.ids[:0]
			out.tasks++
			sinceFault++
			progressed = true
		}
		out.endsvcNS += int64(time.Since(t0))
		out.sampledAllocs += allocs() - a0

		if fg != nil {
			if healing != nil {
				if err := applyFault(*healing); err != nil {
					return nil, err
				}
				healing = nil
			} else if sinceFault >= faultEvery {
				sinceFault = 0
				op := fg.next()
				if err := applyFault(op); err != nil {
					return nil, err
				}
				op.Repair = true
				healing = &op
			}
		}

		submitted := 0
		a0 = allocs()
		t0 = time.Now()
		for scanned := 0; scanned < nClients && submitted < batchTasks; scanned++ {
			cl := clients[next]
			next = (next + 1) % nClients
			if cl.state != 0 {
				continue
			}
			op := cl.gen.next()
			if op.Members != nil {
				members := make([]system.Task, len(op.Members))
				for i, p := range op.Members {
					members[i] = system.Task{Proc: p}
				}
				cl.gang = true
				cl.gid, cl.ids, err = sys.SubmitGang(members)
			} else {
				cl.id, err = sys.Submit(op.Task)
				cl.ids, cl.needs = append(cl.ids, cl.id), op.Task.Needs
			}
			if err != nil {
				return nil, fmt.Errorf("D3: submit: %w", err)
			}
			for _, id := range cl.ids {
				owner[id] = cl
			}
			cl.state = 1
			pending++
			submitted++
			out.nSubmit++
		}
		out.submitNS += int64(time.Since(t0))
		out.sampledAllocs += allocs() - a0
		if sample {
			out.sampledTasks += uint64(submitted)
		}

		for pending > 0 {
			a0 = allocs()
			t0 = time.Now()
			r, err := sys.Cycle()
			dt := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("D3: cycle: %w", err)
			}
			if sample {
				da := allocs() - a0
				out.sampledAllocs += da
				out.cycleAllocs += da
				out.sampledCycles++
			}
			keep("system.cycle", "", t0, dt)
			out.cycles++
			out.cycleNS += int64(dt)
			out.cycleUS = append(out.cycleUS, float32(dt)/1e3)
			m := r.Mapping
			out.granted += int64(r.Granted)
			if len(m.Assigned)+len(m.Blocked) > 0 {
				// D4: the same instance, rebuilt from outside.
				// Fresh slices each cycle: a planner may keep what it is given.
				reqs := make([]core.Request, 0, len(m.Assigned)+len(m.Blocked))
				var avail []core.Avail
				for _, a := range m.Assigned {
					reqs = append(reqs, a.Req)
				}
				reqs = append(reqs, m.Blocked...)
				sort.Slice(reqs, func(i, j int) bool { return reqs[i].Proc < reqs[j].Proc })
				for res, ok := range free {
					if ok && !clone.ResourceFaulted(res) {
						av := core.Avail{Res: res}
						if types != nil {
							av.Type = types[res]
						}
						avail = append(avail, av)
					}
				}
				var sm *core.Mapping
				t0 = time.Now()
				switch cfg.Discipline {
				case system.MinCost:
					sm, err = shadow.ScheduleMinCostIncremental(clone, reqs, avail)
				case system.Hetero:
					sm, err = core.ScheduleHetero(clone, reqs, avail, cfg.Hetero)
				default:
					sm, err = shadow.ScheduleIncremental(clone, reqs, avail)
				}
				dt = time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("D4: shadow solve: %w", err)
				}
				if sm.Allocated() != m.Allocated() {
					return nil, fmt.Errorf("D4: shadow planner allocated %d, the system %d, on cycle %d (%d requests, %d free)",
						sm.Allocated(), m.Allocated(), out.cycles, len(reqs), len(avail))
				}
				keep("core.shadow_solve", "system.cycle", t0, dt)
				out.solved++
				out.solveNS += int64(dt)
				out.solveUS = append(out.solveUS, float32(dt)/1e3)
				if cfg.Discipline == system.Hetero {
					// D5: the engines under ScheduleHetero on the same instance.
					g, comms := core.BuildMulticommodity(clone, reqs, avail)
					t0 = time.Now()
					if _, err := multiflow.MaxFlow(g, comms, nil); err != nil {
						return nil, fmt.Errorf("D5: multiflow.MaxFlow: %w", err)
					}
					dt = time.Since(t0)
					keep("multiflow.max_flow", "core.shadow_solve", t0, dt)
					out.lpNS += int64(dt)
					out.lpUS = append(out.lpUS, float32(dt)/1e3)
					t0 = time.Now()
					multiflow.SequentialBest(g, comms, 0, 0)
					dt = time.Since(t0)
					keep("multiflow.sequential_best", "core.shadow_solve", t0, dt)
					out.greedyNS += int64(dt)
					out.greedyUS = append(out.greedyUS, float32(dt)/1e3)
					out.heteroEpochs++
					if m.Solve.MultiFastPath {
						out.certified++
					}
					out.gapSum += int64(m.Solve.MultiGap)
				}
				out.assigned += int64(len(m.Assigned))
				out.blocked += int64(len(m.Blocked))
				out.ops.Augmentations += m.Ops.Augmentations
				out.ops.Phases += m.Ops.Phases
				out.ops.ArcScans += m.Ops.ArcScans
				out.ops.NodeVisits += m.Ops.NodeVisits
				if m.Solve.Warm {
					out.warm++
				}
				if m.Solve.Cold {
					out.cold++
				}
				out.fast += int64(m.Solve.FastPaths)
				out.retractions += int64(m.Solve.Retractions)
				// The clone advances with the system's mapping, not the
				// shadow's, so a tie broken differently cannot drift.
				t0 = time.Now()
				err = m.Apply(clone)
				dt = time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("D4: applying the system's mapping to the clone: %w", err)
				}
				keep("core.apply", "system.cycle", t0, dt)
				out.applyNS += int64(dt)
				out.applyUS = append(out.applyUS, float32(dt)/1e3)
			}
			for _, a := range m.Assigned {
				cl := owner[sys.Transmitting(a.Req.Proc)]
				if cl == nil {
					return nil, fmt.Errorf("D3: grant on processor %d belongs to no client", a.Req.Proc)
				}
				if !free[a.Res] {
					return nil, fmt.Errorf("D3: resource %d granted while the harness ledger has it held", a.Res)
				}
				free[a.Res] = false
				cl.held = append(cl.held, a.Res)
			}
			a0 = allocs()
			t0 = time.Now()
			for _, a := range m.Assigned {
				if err := sys.EndTransmission(a.Req.Proc); err != nil {
					return nil, fmt.Errorf("D3: EndTransmission: %w", err)
				}
			}
			out.endtxNS += int64(time.Since(t0))
			out.sampledAllocs += allocs() - a0
			out.nEndtx += int64(len(m.Assigned))
			for _, a := range m.Assigned {
				if err := clone.Release(a.Circuit); err != nil {
					return nil, fmt.Errorf("D4: releasing on the clone: %w", err)
				}
			}
			if r.Granted == 0 {
				break
			}
			progressed = true
		}

		for _, cl := range clients {
			if cl.state != 1 {
				continue
			}
			if cl.gang && sys.GangProvisioned(cl.gid) || !cl.gang && sys.Remaining(cl.id) == 0 {
				if types != nil && !typedExact(types, cl.needs, cl.held) {
					return nil, fmt.Errorf("D3: typed grant %v does not match need vector %v", cl.held, cl.needs)
				}
				cl.state = 2
				pending--
			}
		}
		if progressed || submitted > 0 {
			idleBatches = 0
		} else if idleBatches++; idleBatches > 1000 {
			return nil, fmt.Errorf("D3: no progress in 1000 batches with %d operations pending", pending)
		}
	}
	return out, nil
}
