package main

import (
	"fmt"
	"math/rand"

	"rsin/internal/core"
	"rsin/internal/maxflow"
	"rsin/internal/topology"
)

// warmColdReport compares the per-epoch solve work of the incremental
// warm-start planner against cold ScheduleMaxFlow over one deterministic
// steady-state trace. Both solvers see the identical fabric state at
// every step — the warm mapping drives the evolution, and the cold solve
// (which never mutates the network) runs on the same instance — so the
// operation counters are directly comparable. Work is ArcScans +
// NodeVisits, the §IV monitor cost model.
type warmColdReport struct {
	Topology     string           `json:"topology"`
	N            int              `json:"n"`
	Steps        int              `json:"steps"`
	SolvedSteps  int              `json:"solved_steps"` // steps with a non-empty instance
	WarmSolves   int              `json:"warm_solves"`
	ColdRebuilds int              `json:"cold_rebuilds"` // warm-path arena builds/fallbacks
	Retractions  int              `json:"retractions"`
	ArcsTouched  int              `json:"arcs_touched"`
	Granted      int              `json:"granted"`    // tasks the warm path allocated
	FastPaths    int              `json:"fast_paths"` // grants via the routing fast path
	WarmOps      maxflow.Counters `json:"warm_ops"`
	ColdOps      maxflow.Counters `json:"cold_ops"`
	WarmWork     int              `json:"warm_work"`
	ColdWork     int              `json:"cold_work"`
	WorkRatio    float64          `json:"warm_over_cold"`
	// ArcScansPerGrant is the warm path's arc scans divided by its
	// granted tasks: the per-task solver cost the ops gate ratchet
	// tracks (EXPERIMENTS.md, schema v4).
	ArcScansPerGrant float64 `json:"arc_scans_per_grant"`
}

// runWarmColdTrace drives a steady-state arrival/release trace with
// fault/repair churn on an Omega fabric. Every step solves twice — warm
// via the persistent planner, cold via ScheduleMaxFlow — checks the two
// agree on the allocation count (the bench doubles as a differential
// smoke test), and accumulates both solvers' operation counters.
func runWarmColdTrace(seed int64, n, steps int) (warmColdReport, error) {
	rep := warmColdReport{Topology: "omega", N: n, Steps: steps}
	net := topology.Omega(n)
	rng := rand.New(rand.NewSource(seed))
	var warm, cold core.Planner

	type standing struct{ c topology.Circuit }
	var circuits []standing
	heldProc := make(map[int]bool)
	heldRes := make(map[int]bool)
	drop := func(i int) {
		s := circuits[i]
		delete(heldProc, s.c.Proc)
		delete(heldRes, s.c.Res)
		circuits = append(circuits[:i], circuits[i+1:]...)
	}

	for step := 0; step < steps; step++ {
		// Fault/repair churn: roughly one op every four steps, repair-
		// biased so the fabric trends healthy.
		switch rng.Intn(8) {
		case 0:
			_ = net.FailLink(rng.Intn(len(net.Links)))
			for i := len(circuits) - 1; i >= 0; i-- {
				s := circuits[i]
				for _, lid := range s.c.Links {
					if !net.LinkUsable(lid) {
						net.ForceRelease(s.c)
						drop(i)
						break
					}
				}
			}
		case 1, 2:
			_ = net.RepairLink(rng.Intn(len(net.Links)))
		}
		// Releases: each standing circuit ends with probability 1/4.
		for i := len(circuits) - 1; i >= 0; i-- {
			if rng.Intn(4) == 0 {
				if err := net.Release(circuits[i].c); err != nil {
					return rep, fmt.Errorf("step %d: release: %w", step, err)
				}
				drop(i)
			}
		}
		// Arrivals: idle processors request with probability 1/3.
		var reqs []core.Request
		for p := 0; p < net.Procs; p++ {
			if !heldProc[p] && rng.Intn(3) == 0 {
				reqs = append(reqs, core.Request{Proc: p})
			}
		}
		var avail []core.Avail
		for r := 0; r < net.Ress; r++ {
			if !heldRes[r] && !net.ResourceFaulted(r) {
				avail = append(avail, core.Avail{Res: r})
			}
		}
		if len(reqs) == 0 || len(avail) == 0 {
			continue
		}
		rep.SolvedSteps++

		cm, err := cold.ScheduleMaxFlow(net, reqs, avail)
		if err != nil {
			return rep, fmt.Errorf("step %d: cold: %w", step, err)
		}
		wm, err := warm.ScheduleIncremental(net, reqs, avail)
		if err != nil {
			return rep, fmt.Errorf("step %d: warm: %w", step, err)
		}
		if wm.Allocated() != cm.Allocated() {
			return rep, fmt.Errorf("step %d: warm allocated %d, cold %d", step, wm.Allocated(), cm.Allocated())
		}
		if wm.Solve.Warm {
			rep.WarmSolves++
		} else {
			rep.ColdRebuilds++
		}
		rep.Retractions += wm.Solve.Retractions
		rep.ArcsTouched += wm.Solve.ArcsTouched
		rep.Granted += wm.Allocated()
		rep.FastPaths += wm.Solve.FastPaths
		rep.WarmOps.Add(maxflow.Counters{
			Augmentations: wm.Ops.Augmentations, Phases: wm.Ops.Phases,
			ArcScans: wm.Ops.ArcScans, NodeVisits: wm.Ops.NodeVisits,
		})
		rep.ColdOps.Add(maxflow.Counters{
			Augmentations: cm.Ops.Augmentations, Phases: cm.Ops.Phases,
			ArcScans: cm.Ops.ArcScans, NodeVisits: cm.Ops.NodeVisits,
		})

		// The warm mapping drives the evolution.
		if err := wm.Apply(net); err != nil {
			return rep, fmt.Errorf("step %d: apply: %w", step, err)
		}
		for _, a := range wm.Assigned {
			circuits = append(circuits, standing{a.Circuit})
			heldProc[a.Req.Proc] = true
			heldRes[a.Res] = true
		}
	}
	rep.WarmWork = rep.WarmOps.ArcScans + rep.WarmOps.NodeVisits
	rep.ColdWork = rep.ColdOps.ArcScans + rep.ColdOps.NodeVisits
	if rep.ColdWork > 0 {
		rep.WorkRatio = float64(rep.WarmWork) / float64(rep.ColdWork)
	}
	if rep.Granted > 0 {
		rep.ArcScansPerGrant = float64(rep.WarmOps.ArcScans) / float64(rep.Granted)
	}
	return rep, nil
}
