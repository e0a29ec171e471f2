package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"rsin/internal/obs"
	"rsin/internal/server"
	"rsin/internal/stats"
	"rsin/internal/topology"
)

// runOpts parameterizes one top-level run of a workload at a depth.
type runOpts struct {
	seed        int64
	warm, dur   time.Duration
	traced      bool
	reg         *obs.Registry // non-nil: the stack runs with observability on
	exercise    bool          // the main measured run: every mechanism the workload exists for must fire
	smoke       bool          // a name-drift test run, too short to be sure of a sample
	breakLedger bool          // self-test: the ledger is told every resource is held
}

// topResult is one run reduced to metric names.
type topResult struct {
	topStats
	e2e   map[string]float64 // every end-to-end name but setup_s
	layer map[string]float64 // the per-layer names this run can fill
	spans []span
	dur   [nSpan][]float32 // sorted span durations, us (traced D2 runs)
}

// runAt runs the workload once at depth d and reduces it.
func runAt(w *workloadDef, d depth, o runOpts) (*topResult, error) {
	if w.Open {
		for attempt := 1; ; attempt++ {
			out, err := runOpen(w, d, o.seed, o.warm, o.dur, o.exercise)
			if err == nil {
				return summarizeOpen(out), nil
			}
			if !errors.Is(err, errEnvironment) || attempt == openAttempts {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "bench: %s: attempt %d: %v; measuring again\n", w.Name, attempt, err)
		}
	}
	out, err := runClosed(w, d, o.seed, o.warm, o.dur, o.traced, o.reg, o.breakLedger)
	if err != nil {
		return nil, err
	}
	t := summarize(out)
	r := &topResult{topStats: t, e2e: t.endToEndValues(), layer: t.tailValues()}
	if t.attempted == 0 && !o.smoke {
		return nil, fmt.Errorf("no operation completed inside the measured window")
	}
	for _, cl := range out.clients {
		r.spans = append(r.spans, cl.spans...)
		for k := range r.dur {
			r.dur[k] = append(r.dur[k], cl.dur[k].window(out.from, out.to)...)
		}
	}
	for k := range r.dur {
		slices.Sort(r.dur[k])
	}
	st := t.stats
	if st.Epochs > 0 {
		r.layer["sched.batch_fill"] = opsPerEpoch(t) / 32
		r.layer["sched.cycles_per_epoch"] = float64(st.Cycles) / float64(st.Epochs)
	}
	r.layer["sched.deferred_per_task"] = float64(st.Deferred) / float64(max(t.attempted, 1))
	r.layer["sched.severed"] = float64(st.Severed)
	r.layer["sched.preempts"] = float64(st.Preempts)
	r.layer["sched.failed"] = float64(st.Failed)
	r.layer["sched.restarts"] = float64(st.Restarts)
	if !o.exercise {
		return r, nil
	}
	// Each mechanism a workload exists for must have fired.
	switch w.Name {
	case "tiered_faults":
		if st.Preempts == 0 || st.Severed == 0 || st.ColdSolves == 0 || st.LinkFaults == 0 {
			return nil, fmt.Errorf("did not exercise: preempts %d, severed %d, cold rebuilds %d, faults %d — each must be above zero",
				st.Preempts, st.Severed, st.ColdSolves, st.LinkFaults)
		}
	case "typed_pool":
		if st.MultiFastPath == 0 {
			return nil, fmt.Errorf("did not exercise: no multicommodity epoch was certified (%d greedy)", st.MultiGreedy)
		}
	case "gangs":
		if st.GangsServiced == 0 {
			return nil, fmt.Errorf("did not exercise: no gang serviced")
		}
	}
	return r, nil
}

// opsPerEpoch is the batch the sched layer was observed to flush: client
// operations (a submit or a release; a gang counts once) per epoch.
func opsPerEpoch(t topStats) float64 {
	st := t.stats
	members := int64(gangSize - 1)
	ops := st.Submitted - members*st.GangsSubmitted + st.Serviced - members*st.GangsServiced
	return float64(ops) / float64(max(st.Epochs, 1))
}

// stackWalk is the traced pass of one workload: the seeded script re-run
// at each depth, top first, for seg each. It returns every per-layer
// metric (0 where a module does not run), the kept spans and the
// operations its untraced base run attempted. smoke shrinks the
// fixed-count parts for the name-drift test.
func stackWalk(w *workloadDef, seed int64, seg time.Duration, smoke bool) (layer map[string]float64, spans []span, attempted int64, err error) {
	layer = map[string]float64{}
	for _, m := range perLayer {
		layer[m.Name] = 0
	}
	put := func(m map[string]float64) {
		for k, v := range m {
			layer[k] = v
		}
	}
	o := runOpts{seed: seed, warm: seg / 5, dur: seg - seg/5, smoke: smoke}
	top := w.Depths[0]
	layer["topology.build_ms"] = topologyBuildMS(w)

	// Untraced at the top depth: the tails, and the base for the tracing
	// overhead.
	base, err := runAt(w, top, o)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s untraced: %w", top, err)
	}
	put(base.layer)
	attempted = base.attempted
	if w.Open {
		// Fabric-bound: the walk stops at the handler. Its layer numbers
		// are the outcome counts above; the CPU splits in two.
		in, err := runAt(w, dHandler, o)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: %w", dHandler, err)
		}
		layer["trace.top_cpu_us"] = base.cpuUS
		layer["http.self_us"], layer["http.allocs"] = base.cpuUS-in.cpuUS, base.allocs-in.allocs
		layer["server.self_us"], layer["server.allocs"] = in.cpuUS, in.allocs
		return layer, nil, attempted, nil
	}

	o.traced = true
	runs := map[depth]*topResult{}
	for _, d := range w.Depths {
		if d == dSystem {
			continue
		}
		r, err := runAt(w, d, o)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: %w", d, err)
		}
		runs[d] = r
		spans = append(spans, r.spans...)
	}
	layer["trace.top_cpu_us"] = runs[top].cpuUS
	layer["trace.overhead_share"] = base.tasksPerS/runs[top].tasksPerS - 1
	d2 := runs[dSched]
	for k, v := range d2.layer {
		if strings.HasPrefix(k, "sched.") {
			layer[k] = v // D2's counters, not the top depth's (the same run unless D0 is the top)
		}
	}
	layer["sched.submit_call_us"] = quantile(d2.dur[spSubmit], 0.5)
	layer["sched.wait_us"] = quantile(d2.dur[spWait], 0.5)
	layer["sched.end_call_us"] = quantile(d2.dur[spEnd], 0.5)
	if r0, r1 := runs[dWire], runs[dHandler]; r0 != nil {
		layer["http.self_us"], layer["http.allocs"] = r0.cpuUS-r1.cpuUS, r0.allocs-r1.allocs
		layer["server.self_us"], layer["server.allocs"] = r1.cpuUS-d2.cpuUS, r1.allocs-d2.allocs
		layer["server.admit_ns"] = admitNS(smoke)
	}
	if w.Name == "untyped_sat" {
		o.reg = obs.NewRegistry()
		with, err := runAt(w, dSched, o)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s with obs: %w", dSched, err)
		}
		layer["obs.overhead_share"] = with.cpuUS/d2.cpuUS - 1
	}

	// D3 in the batch shape D2 used, rounded to a power of two so the
	// drive, and with it every count below, repeats exactly.
	batch := 1 << max(0, int(math.Round(math.Log2(opsPerEpoch(d2.topStats)/2))))
	batch = min(batch, w.Clients)
	total := w.DirectTasks
	if smoke {
		total = max(total/200, 4)
	}
	do, err := runDirect(w, seed, batch, total)
	if err != nil {
		return nil, nil, 0, err
	}
	put(do.layerValues(w, d2))
	return layer, append(spans, do.spans...), attempted, nil
}

// layerValues maps the D3/D4/D5 drive onto the per-layer names. d2 is the
// traced D2 run above it: sched's self cost is what D2 spends beyond D3.
func (do *directOut) layerValues(w *workloadDef, d2 *topResult) map[string]float64 {
	tasks := float64(do.tasks)
	perTaskUS := func(ns int64) float64 { return float64(ns) / 1e3 / tasks }
	per := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	sysUS := perTaskUS(do.submitNS + do.cycleNS + do.endtxNS + do.endsvcNS)
	coreUS := perTaskUS(do.solveNS + do.applyNS)
	sysAllocs := per(int64(do.sampledAllocs), int64(do.sampledTasks))
	slices.Sort(do.cycleUS)
	slices.Sort(do.solveUS)
	slices.Sort(do.applyUS)
	slices.Sort(do.lpUS)
	slices.Sort(do.greedyUS)
	m := map[string]float64{
		"sched.self_us":              d2.cpuUS - sysUS,
		"sched.allocs":               d2.allocs - sysAllocs,
		"system.self_us":             sysUS - coreUS,
		"system.allocs_per_cycle":    per(int64(do.cycleAllocs), int64(do.sampledCycles)),
		"system.cycle_us":            quantile(do.cycleUS, 0.5),
		"system.cycle_self_share":    1 - per(do.solveNS+do.applyNS, do.cycleNS),
		"system.submit_ns":           per(do.submitNS, do.nSubmit),
		"system.endtx_ns":            per(do.endtxNS, do.nEndtx),
		"system.endsvc_ns":           per(do.endsvcNS, do.nEndsvc),
		"system.blocked_share":       per(do.blocked, do.assigned+do.blocked),
		"system.granted_per_cycle":   per(do.granted, int64(do.cycles)),
		"system.batch_tasks":         float64(do.batchTasks),
		"core.self_us":               coreUS,
		"core.solve_us":              quantile(do.solveUS, 0.5),
		"core.apply_us":              quantile(do.applyUS, 0.5),
		"core.warm_share":            per(do.warm, int64(do.solved)),
		"core.cold_rebuilds":         float64(do.cold),
		"core.fast_path_share":       per(do.fast, do.granted),
		"core.retractions_per_cycle": per(do.retractions, int64(do.solved)),
	}
	opsSum := int64(do.ops.ArcScans + do.ops.NodeVisits + do.ops.Augmentations + do.ops.Phases)
	switch w.Name {
	case "tiered_faults":
		m["netsimplex.solve_us"] = quantile(do.solveUS, 0.5)
		m["netsimplex.ops_per_cycle"] = per(opsSum, int64(do.solved))
	case "typed_pool":
		m["core.hetero_self_us"] = per(do.solveNS-do.lpNS, do.heteroEpochs) / 1e3
		m["core.certified_share"] = per(do.certified, do.heteroEpochs)
		m["core.gap_units"] = float64(do.gapSum)
		m["multiflow.lp_us"] = quantile(do.lpUS, 0.5)
		m["multiflow.greedy_us"] = quantile(do.greedyUS, 0.5)
	default:
		m["maxflow.arc_scans_per_grant"] = per(int64(do.ops.ArcScans), do.granted)
		m["maxflow.node_visits_per_grant"] = per(int64(do.ops.NodeVisits), do.granted)
		m["maxflow.augmentations_per_grant"] = per(int64(do.ops.Augmentations), do.granted)
	}
	return m
}

// topologyBuildMS times the workload's fabric constructor plus the first
// routing-table build over it: the median of five.
func topologyBuildMS(w *workloadDef) float64 {
	shards, _ := shardConfigs(w)
	n := shards[0].Net.Procs
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		topology.NewRoutingTable(topology.Omega(n))
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return stats.Quantile(ms, 0.5) * float64(len(shards))
}

// admitNS times the admission controller alone: Admit, Grant, Finish in
// a direct loop.
func admitNS(smoke bool) float64 {
	adm, err := server.NewAdmission(server.AdmissionConfig{MaxInflight: 1024, MaxQueue: 1024})
	if err != nil {
		return 0
	}
	n := 500000
	if smoke {
		n = 1000
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tk, err := adm.Admit(0)
		if err != nil {
			return 0
		}
		tk.Grant()
		tk.Finish()
	}
	return float64(time.Since(t0)) / float64(n)
}
