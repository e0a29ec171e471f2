// Package experiments regenerates every quantitative claim, table and
// figure of the paper's evaluation as reproducible table-valued functions.
// The experiment IDs (E1…E14) are indexed in DESIGN.md §5; bench_test.go
// wraps each in a testing.B benchmark and cmd/rsinbench prints them all.
//
// Absolute numbers differ from the 1986 testbed, but every claimed *shape*
// is asserted by the test suite: who wins, by what rough factor, and where
// the crossovers fall.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rsin/internal/core"
	"rsin/internal/heuristic"
	"rsin/internal/maxflow"
	"rsin/internal/monitorarch"
	"rsin/internal/multiflow"
	"rsin/internal/packetsim"
	"rsin/internal/placement"
	"rsin/internal/sim"
	"rsin/internal/stats"
	"rsin/internal/testutil"
	"rsin/internal/token"
	"rsin/internal/topology"
	"rsin/internal/workload"
)

// Table is one regenerated result: a titled grid of cells.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as RFC-4180-ish comma-separated values with the
// experiment ID prefixed to every row, for downstream plotting.
func (t *Table) CSV() string {
	var sb strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	sb.WriteString("experiment")
	for _, h := range t.Header {
		sb.WriteByte(',')
		sb.WriteString(esc(h))
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		sb.WriteString(esc(t.ID))
		for _, c := range r {
			sb.WriteByte(',')
			sb.WriteString(esc(strings.TrimSpace(c)))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func pct(x float64) string { return fmt.Sprintf("%5.1f%%", 100*x) }

// blockingEnsemble measures the mean blocking probability of a scheduler
// over `trials` random patterns on fresh builds of the network, with the
// given link occupancy fraction pre-established. Blocking probability is
// 1 - allocated/min(#requests, #free) per the usage of §II.
//
// Trials are independent, so they fan out over a worker pool; each trial
// derives its own RNG from the ensemble seed and the trial index, keeping
// results deterministic regardless of scheduling.
func blockingEnsemble(rng *rand.Rand, build func() *topology.Network,
	sched heuristic.Scheduler, cfg workload.Config, occupancy float64, trials int) *stats.Accumulator {

	seed := rng.Int63()
	samples := make([]float64, trials) // NaN = trial discarded
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	next := int64(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= trials {
					return
				}
				trng := rand.New(rand.NewSource(seed + int64(i)))
				net := build()
				if occupancy > 0 {
					workload.OccupyRandom(trng, net, occupancy)
				}
				pat := workload.Generate(trng, net, cfg)
				possible := len(pat.Requests)
				if len(pat.Avail) < possible {
					possible = len(pat.Avail)
				}
				if possible == 0 {
					samples[i] = math.NaN()
					continue
				}
				m := sched(net, pat.Requests, pat.Avail, trng)
				samples[i] = 1 - float64(m.Allocated())/float64(possible)
			}
		}()
	}
	wg.Wait()
	acc := &stats.Accumulator{}
	for _, s := range samples {
		if !math.IsNaN(s) {
			acc.Add(s)
		}
	}
	return acc
}

// E1Fig2 replays the worked example of Fig. 2: the 8x8 Omega with two
// established circuits, five requests and five free resources; the optimal
// scheduler allocates all five.
func E1Fig2() *Table {
	net := topology.Omega(8)
	for _, pr := range [][2]int{{1, 5}, {3, 3}} {
		c := net.FindPath(pr[0], func(r int) bool { return r == pr[1] })
		if c == nil {
			panic("E1: cannot occupy figure circuits")
		}
		if err := net.Establish(*c); err != nil {
			panic(err)
		}
	}
	reqs := []core.Request{{Proc: 0}, {Proc: 2}, {Proc: 4}, {Proc: 6}, {Proc: 7}}
	avail := []core.Avail{{Res: 0}, {Res: 2}, {Res: 4}, {Res: 6}, {Res: 7}}
	m, err := core.ScheduleMaxFlow(net, reqs, avail)
	if err != nil {
		panic(err)
	}
	t := &Table{
		ID:     "E1",
		Title:  "Fig. 2 — 8x8 Omega, occupied circuits p2-r6 & p4-r4 (paper numbering)",
		Header: []string{"request", "resource", "circuit links"},
	}
	for _, a := range m.Assigned {
		links := make([]string, len(a.Circuit.Links))
		for i, l := range a.Circuit.Links {
			links[i] = fmt.Sprintf("%d", l)
		}
		t.AddRow(fmt.Sprintf("p%d", a.Req.Proc+1), fmt.Sprintf("r%d", a.Res+1), strings.Join(links, "-"))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("allocated %d/5 (paper: all five allocatable; a careless mapping strands p8)", m.Allocated()))
	return t
}

// E4CubeBlocking regenerates the §II claim: on an 8x8 cube-type MRSIN with
// a free network, optimal scheduling blocks a few percent of allocation
// opportunities while heuristic routing blocks ~20%.
func E4CubeBlocking(seed int64, trials int) *Table {
	rng := rand.New(rand.NewSource(seed))
	build := func() *topology.Network { return topology.IndirectCube(8) }
	t := &Table{
		ID:     "E4",
		Title:  "Blocking probability, 8x8 indirect binary cube, free network",
		Header: []string{"p(request)=p(free)", "optimal", "greedy first-fit", "address mapping"},
		Notes: []string{
			"paper (§II): optimal ≈ 2%, heuristic ≈ 20% on the 8x8 cube",
		},
	}
	for _, p := range []float64{0.25, 0.50, 0.75, 1.00} {
		cfg := workload.Config{PRequest: p, PFree: p}
		opt := blockingEnsemble(rng, build, heuristic.Optimal, cfg, 0, trials)
		grd := blockingEnsemble(rng, build, heuristic.GreedyFirstFit, cfg, 0, trials)
		adr := blockingEnsemble(rng, build, heuristic.AddressMapping, cfg, 0, trials)
		t.AddRow(fmt.Sprintf("%.2f", p), pct(opt.Mean()), pct(grd.Mean()), pct(adr.Mean()))
	}
	return t
}

// E5OmegaBlocking regenerates the §I claim that a typical structure such as
// the Omega network keeps blockage under ~5% with optimal scheduling,
// across sizes.
func E5OmegaBlocking(seed int64, trials int) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:     "E5",
		Title:  "Optimal-scheduling blocking probability on Omega networks (free network, p=0.75)",
		Header: []string{"size", "optimal", "address mapping"},
		Notes:  []string{"paper (§I): 'network blockages can be reduced to less than 5 percent'"},
	}
	cfg := workload.Config{PRequest: 0.75, PFree: 0.75}
	for _, n := range []int{8, 16, 32, 64} {
		n := n
		build := func() *topology.Network { return topology.Omega(n) }
		tr := trials
		if n >= 32 {
			tr = trials / 4
			if tr == 0 {
				tr = 1
			}
		}
		opt := blockingEnsemble(rng, build, heuristic.Optimal, cfg, 0, tr)
		adr := blockingEnsemble(rng, build, heuristic.AddressMapping, cfg, 0, tr)
		t.AddRow(fmt.Sprintf("%dx%d", n, n), pct(opt.Mean()), pct(adr.Mean()))
	}
	return t
}

// E6OccupancySweep regenerates the §II discussion of partially-occupied
// networks: fewer free paths hurt the heuristic far more than the optimal
// scheduler.
func E6OccupancySweep(seed int64, trials int) *Table {
	rng := rand.New(rand.NewSource(seed))
	build := func() *topology.Network { return topology.Omega(8) }
	t := &Table{
		ID:     "E6",
		Title:  "Blocking vs pre-occupied link fraction, 8x8 Omega (p=0.75)",
		Header: []string{"occupied links", "optimal", "address mapping", "gap"},
		Notes: []string{
			"paper (§II): with a non-free network 'a heuristic routing algorithm may have poor performance'",
		},
	}
	cfg := workload.Config{PRequest: 0.75, PFree: 0.75}
	for _, occ := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
		opt := blockingEnsemble(rng, build, heuristic.Optimal, cfg, occ, trials)
		adr := blockingEnsemble(rng, build, heuristic.AddressMapping, cfg, occ, trials)
		t.AddRow(fmt.Sprintf("%.0f%%", 100*occ), pct(opt.Mean()), pct(adr.Mean()),
			fmt.Sprintf("%.1fx", adr.Mean()/math.Max(opt.Mean(), 1e-9)))
	}
	return t
}

// E7ExtraStages regenerates the §II observation that extra stages add
// alternate paths until "resources may be fully allocated in most cases
// even when an arbitrary resource-request mapping is used".
func E7ExtraStages(seed int64, trials int) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:     "E7",
		Title:  "Blocking vs extra stages, Omega 8x8 base (p=1.0: full load)",
		Header: []string{"network", "paths/pair", "optimal", "address mapping"},
		Notes: []string{
			"paper (§II): with extra stages 'resources may be fully allocated in most cases even when an arbitrary resource-request mapping is used'",
		},
	}
	cfg := workload.Config{PRequest: 1, PFree: 1}
	for extra := 0; extra <= 2; extra++ {
		extra := extra
		build := func() *topology.Network { return topology.OmegaExtra(8, extra) }
		opt := blockingEnsemble(rng, build, heuristic.Optimal, cfg, 0, trials)
		adr := blockingEnsemble(rng, build, heuristic.AddressMapping, cfg, 0, trials)
		t.AddRow(fmt.Sprintf("omega+%d", extra), fmt.Sprintf("%d", 1<<extra),
			pct(opt.Mean()), pct(adr.Mean()))
	}
	buildGamma := func() *topology.Network { return topology.Gamma(8) }
	opt := blockingEnsemble(rng, buildGamma, heuristic.Optimal, cfg, 0, trials)
	adr := blockingEnsemble(rng, buildGamma, heuristic.AddressMapping, cfg, 0, trials)
	t.AddRow("gamma-8", "multi", pct(opt.Mean()), pct(adr.Mean()))
	return t
}

// E10TokenVsMonitor regenerates the §IV comparison: scheduling overhead of
// the distributed token architecture (clock periods) against the monitor
// architecture (modeled instructions) at identical allocation quality.
func E10TokenVsMonitor(seed int64, trials int) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:    "E10",
		Title: "Distributed token architecture vs centralized monitor (full load)",
		Header: []string{"size", "token clocks", "token iters", "monitor instr (Dinic)",
			"monitor instr (F-F)", "instr/clock"},
		Notes: []string{
			"paper (§IV-B): parallel path search + gate-delay cycles beat a software monitor",
		},
	}
	for _, n := range []int{8, 16, 32, 64} {
		clocks := &stats.Accumulator{}
		iters := &stats.Accumulator{}
		instrD := &stats.Accumulator{}
		instrF := &stats.Accumulator{}
		for i := 0; i < trials; i++ {
			net := topology.Omega(n)
			pat := workload.Generate(rng, net, workload.Config{PRequest: 1, PFree: 1})
			tok, err := token.Schedule(net, pat.Requesting, pat.Free, nil)
			if err != nil {
				panic(err)
			}
			mon, err := monitorarch.Schedule(net, pat.Requests, pat.Avail, monitorarch.Dinic, nil)
			if err != nil {
				panic(err)
			}
			monF, err := monitorarch.Schedule(net, pat.Requests, pat.Avail, monitorarch.FordFulkerson, nil)
			if err != nil {
				panic(err)
			}
			if tok.Mapping.Allocated() != mon.Mapping.Allocated() {
				panic("E10: architectures disagree on allocation")
			}
			clocks.Add(float64(tok.Clocks))
			iters.Add(float64(tok.Iterations))
			instrD.Add(float64(mon.Instructions))
			instrF.Add(float64(monF.Instructions))
		}
		t.AddRow(fmt.Sprintf("%dx%d", n, n),
			fmt.Sprintf("%.0f", clocks.Mean()),
			fmt.Sprintf("%.1f", iters.Mean()),
			fmt.Sprintf("%.0f", instrD.Mean()),
			fmt.Sprintf("%.0f", instrF.Mean()),
			fmt.Sprintf("%.0fx", instrD.Mean()/math.Max(clocks.Mean(), 1)))
	}
	return t
}

// E11TableII regenerates Table II: the four scheduling disciplines, their
// equivalent flow problems, the algorithms used, and a measured solve time
// on a common 8x8 scenario.
func E11TableII(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	net := topology.Omega(8)
	pat := workload.Generate(rng, net, workload.Config{
		PRequest: 0.75, PFree: 0.75, Priorities: 10, Preferences: 10, Types: 2,
	})
	t := &Table{
		ID:    "E11",
		Title: "Table II — optimal resource scheduling schemes (8x8 Omega scenario)",
		Header: []string{"discipline", "equivalent flow problem", "algorithm",
			"allocated", "cost", "time"},
	}
	homoReq := make([]core.Request, len(pat.Requests))
	copy(homoReq, pat.Requests)
	for i := range homoReq {
		homoReq[i].Type = 0
	}
	homoAvail := make([]core.Avail, len(pat.Avail))
	copy(homoAvail, pat.Avail)
	for i := range homoAvail {
		homoAvail[i].Type = 0
	}

	timeIt := func(f func() (*core.Mapping, error)) (*core.Mapping, time.Duration) {
		start := time.Now()
		m, err := f()
		if err != nil {
			panic(err)
		}
		return m, time.Since(start)
	}

	m, d := timeIt(func() (*core.Mapping, error) { return core.ScheduleMaxFlow(net, homoReq, homoAvail) })
	t.AddRow("homogeneous, no priority", "maximum flow", "Ford-Fulkerson / Dinic",
		fmt.Sprintf("%d", m.Allocated()), "-", d.Round(time.Microsecond).String())

	m, d = timeIt(func() (*core.Mapping, error) { return core.ScheduleMinCost(net, homoReq, homoAvail) })
	t.AddRow("homogeneous, priority & preference", "minimum cost flow", "out-of-kilter / SSP",
		fmt.Sprintf("%d", m.Allocated()), fmt.Sprintf("%d", m.Cost), d.Round(time.Microsecond).String())

	m, d = timeIt(func() (*core.Mapping, error) {
		return core.ScheduleHetero(net, pat.Requests, pat.Avail, nil)
	})
	t.AddRow("heterogeneous, restricted topology", "real multicommodity flow", "linear programming (simplex)",
		fmt.Sprintf("%d", m.Allocated()), "-", d.Round(time.Microsecond).String())

	m, d = timeIt(func() (*core.Mapping, error) {
		return core.ScheduleHetero(net, pat.Requests, pat.Avail, &core.HeteroOptions{Exact: true})
	})
	t.AddRow("heterogeneous, general topology", "integer multicommodity flow", "NP-hard (branch & bound)",
		fmt.Sprintf("%d", m.Allocated()), "-", d.Round(time.Microsecond).String())
	return t
}

// E12DinicScaling measures Dinic's cost on unit-capacity networks against
// the O(V^{2/3} E) bound quoted in §III-B: the ratio arc-scans / (V^{2/3}E)
// should stay bounded as the size grows.
func E12DinicScaling(seed int64, trials int) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:     "E12",
		Title:  "Dinic on unit-capacity networks vs the O(V^2/3 E) bound",
		Header: []string{"V", "E", "arc scans", "scans/(V^2/3 E)"},
	}
	for _, width := range []int{4, 8, 16, 32} {
		scans := &stats.Accumulator{}
		var vv, ee float64
		for i := 0; i < trials; i++ {
			g := testutil.RandomUnitNetwork(rng, 4, width, 0.4)
			res := maxflow.Dinic(g)
			scans.Add(float64(res.Ops.ArcScans))
			vv = float64(g.NumNodes())
			ee = float64(len(g.Arcs))
		}
		bound := math.Pow(vv, 2.0/3.0) * ee
		t.AddRow(fmt.Sprintf("%.0f", vv), fmt.Sprintf("%.0f", ee),
			fmt.Sprintf("%.0f", scans.Mean()), fmt.Sprintf("%.3f", scans.Mean()/bound))
	}
	return t
}

// E13Integrality measures how often the multicommodity LP relaxation comes
// out integral on interconnection-network topologies (the Evans-Jarvis
// restricted class the paper leans on in §III-D).
func E13Integrality(seed int64, trials int) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:     "E13",
		Title:  "Integrality of multicommodity LP optima on MRSIN topologies (2 types)",
		Header: []string{"topology", "integral LP optima", "sequential = LP total"},
	}
	for _, name := range []string{"omega-8", "crossbar-6", "baseline-8"} {
		integral, seqEq := 0, 0
		n := 0
		for i := 0; i < trials; i++ {
			var net *topology.Network
			switch name {
			case "omega-8":
				net = topology.Omega(8)
			case "crossbar-6":
				net = topology.Crossbar(6, 6)
			case "baseline-8":
				net = topology.Baseline(8)
			}
			pat := workload.Generate(rng, net, workload.Config{PRequest: 0.6, PFree: 0.6, Types: 2})
			if len(pat.Requests) == 0 || len(pat.Avail) == 0 {
				continue
			}
			n++
			g, comms := core.BuildMulticommodity(net, pat.Requests, pat.Avail)
			res, err := multiflow.MaxFlow(g, comms, nil)
			if err != nil {
				panic(err)
			}
			if res.Integral {
				integral++
			}
			seq := multiflow.SequentialDinic(g, comms)
			if math.Abs(seq.Total-res.Total) < 1e-6 {
				seqEq++
			}
		}
		t.AddRow(name,
			fmt.Sprintf("%d/%d", integral, n),
			fmt.Sprintf("%d/%d", seqEq, n))
	}
	return t
}

// E14LoadBalance runs the load-balancing system simulation of §I: tasks
// queue at processors, the pool of processors doubles as the resource pool,
// and schedulers compete on utilization and response time.
func E14LoadBalance(seed int64) *Table {
	t := &Table{
		ID:     "E14",
		Title:  "System simulation: utilization / response time by scheduler (Omega 8, rising load)",
		Header: []string{"arrival rate", "scheduler", "util", "mean resp", "block frac", "completed"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, rate := range []float64{0.3, 0.8, 1.6} {
		for _, s := range []struct {
			name  string
			sched sim.Scheduler
		}{
			{"optimal", func(n *topology.Network, r []core.Request, a []core.Avail) (*core.Mapping, error) {
				return core.ScheduleMaxFlow(n, r, a)
			}},
			{"address", func(n *topology.Network, r []core.Request, a []core.Avail) (*core.Mapping, error) {
				return heuristic.AddressMapping(n, r, a, rng), nil
			}},
		} {
			m, err := sim.Run(sim.Config{
				Net:         topology.Omega(8),
				Schedule:    s.sched,
				ArrivalRate: rate, TransmitTime: 0.4, ServiceTime: 0.6,
				Horizon: 400, Seed: seed, MaxQueue: 16,
			})
			if err != nil {
				panic(err)
			}
			t.AddRow(fmt.Sprintf("%.1f", rate), s.name,
				fmt.Sprintf("%.2f", m.Utilization),
				fmt.Sprintf("%.2f", m.MeanResp),
				fmt.Sprintf("%.3f", m.BlockFraction()),
				fmt.Sprintf("%d", m.Completed))
		}
	}
	return t
}

// E15CyclePolicy is the Fig. 10 ablation: how the scheduling-cycle entry
// policy (immediate, batched, rate-limited, failure-backoff) trades cycle
// count against throughput — the paper's remark that the MRSIN "may choose
// to wait for more requests to arrive ... before entering a scheduling
// cycle".
func E15CyclePolicy(seed int64) *Table {
	t := &Table{
		ID:     "E15",
		Title:  "Scheduling-cycle policy ablation (Omega 8, optimal scheduler, rate 1.0)",
		Header: []string{"policy", "cycles", "wasted", "completed", "mean resp", "block frac"},
		Notes: []string{
			"paper (§IV-B3): waiting for more requests/resources avoids cycling between states 4 and 5",
		},
	}
	policies := []struct {
		name string
		pol  sim.CyclePolicy
	}{
		{"immediate", sim.CyclePolicy{}},
		{"batch>=2", sim.CyclePolicy{MinPending: 2}},
		{"batch>=4", sim.CyclePolicy{MinPending: 4}},
		{"interval 0.2", sim.CyclePolicy{MinInterval: 0.2}},
		{"backoff 0.5", sim.CyclePolicy{FailureBackoff: 0.5}},
	}
	for _, p := range policies {
		m, err := sim.Run(sim.Config{
			Net: topology.Omega(8),
			Schedule: func(n *topology.Network, r []core.Request, a []core.Avail) (*core.Mapping, error) {
				return core.ScheduleMaxFlow(n, r, a)
			},
			ArrivalRate: 1.0, TransmitTime: 0.4, ServiceTime: 0.6,
			Horizon: 400, Seed: seed, MaxQueue: 16,
			Policy: p.pol,
		})
		if err != nil {
			panic(err)
		}
		t.AddRow(p.name,
			fmt.Sprintf("%d", m.Cycles),
			fmt.Sprintf("%d", m.WastedCycles),
			fmt.Sprintf("%d", m.Completed),
			fmt.Sprintf("%.2f", m.MeanResp),
			fmt.Sprintf("%.3f", m.BlockFraction()))
	}
	return t
}

// E16Placement is the §V arrangement study: blocking probability of the
// naive contiguous type placement vs interleaving vs local-search
// optimization, for a two-type census on the 8x8 Omega.
func E16Placement(seed int64, trials int) *Table {
	net := topology.Omega(8)
	c := placement.Counts{0: 4, 1: 4}
	t := &Table{
		ID:     "E16",
		Title:  "Resource arrangement vs blocking (Omega 8, two types, p(req)=0.9 p(free)=0.75)",
		Header: []string{"placement", "blocking"},
		Notes: []string{
			"paper (§V): utilization depends on 'the arrangement of the various types of resources'",
		},
	}
	cont := placement.Contiguous(c)
	inter := placement.Interleaved(c)
	cb := placement.Evaluate(net, cont, c, 0.9, 0.75, trials, seed)
	ib := placement.Evaluate(net, inter, c, 0.9, 0.75, trials, seed)
	_, ob := placement.Optimize(net, cont, c, 0.9, 0.75, trials, 2, seed)
	t.AddRow("contiguous blocks", pct(cb))
	t.AddRow("interleaved", pct(ib))
	t.AddRow("local-search optimized", pct(ob))
	return t
}

// circuitDelivery simulates circuit-switched delivery of address-bound
// tasks: a task establishes its (unique) circuit when the links are free,
// holds it for setup (path length) plus the task length, then releases.
// Returns the mean task completion clock.
func circuitDelivery(net *topology.Network, tasks []packetsim.Task, taskLen int) float64 {
	work := net.Clone()
	type busy struct {
		done int
		circ topology.Circuit
	}
	waiting := append([]packetsim.Task(nil), tasks...)
	var inFlight []busy
	now := 0
	var sum float64
	delivered := 0
	for len(waiting) > 0 || len(inFlight) > 0 {
		var still []packetsim.Task
		for _, tk := range waiting {
			c := work.FindPath(tk.Proc, func(r int) bool { return r == tk.Res })
			if c == nil {
				still = append(still, tk)
				continue
			}
			if err := work.Establish(*c); err != nil {
				still = append(still, tk)
				continue
			}
			inFlight = append(inFlight, busy{done: now + len(c.Links) + taskLen, circ: *c})
		}
		waiting = still
		if len(inFlight) == 0 {
			panic("circuitDelivery: stuck with waiting tasks and no circuits")
		}
		next := inFlight[0].done
		for _, b := range inFlight {
			if b.done < next {
				next = b.done
			}
		}
		now = next
		var keep []busy
		for _, b := range inFlight {
			if b.done == now {
				if err := work.Release(b.circ); err != nil {
					panic(err)
				}
				sum += float64(now)
				delivered++
			} else {
				keep = append(keep, b)
			}
		}
		inFlight = keep
	}
	return sum / float64(delivered)
}

// rsinDelivery is circuitDelivery with the RSIN discipline: tasks carry no
// destination; each epoch the optimal scheduler maps waiting processors to
// whatever resources are free.
func rsinDelivery(net *topology.Network, procs []int, taskLen int) float64 {
	work := net.Clone()
	type busy struct {
		done int
		circ topology.Circuit
		res  int
	}
	waiting := append([]int(nil), procs...)
	busyRes := make([]bool, net.Ress)
	var inFlight []busy
	now := 0
	var sum float64
	delivered := 0
	for len(waiting) > 0 || len(inFlight) > 0 {
		var reqs []core.Request
		for _, p := range waiting {
			reqs = append(reqs, core.Request{Proc: p})
		}
		var avail []core.Avail
		for r := 0; r < net.Ress; r++ {
			if !busyRes[r] {
				avail = append(avail, core.Avail{Res: r})
			}
		}
		if len(reqs) > 0 && len(avail) > 0 {
			m, err := core.ScheduleMaxFlow(work, reqs, avail)
			if err != nil {
				panic(err)
			}
			if err := m.Apply(work); err != nil {
				panic(err)
			}
			served := map[int]bool{}
			for _, a := range m.Assigned {
				served[a.Req.Proc] = true
				busyRes[a.Res] = true
				inFlight = append(inFlight, busy{
					done: now + len(a.Circuit.Links) + taskLen,
					circ: a.Circuit, res: a.Res,
				})
			}
			var still []int
			for _, p := range waiting {
				if !served[p] {
					still = append(still, p)
				}
			}
			waiting = still
		}
		if len(inFlight) == 0 {
			panic("rsinDelivery: stuck")
		}
		next := inFlight[0].done
		for _, b := range inFlight {
			if b.done < next {
				next = b.done
			}
		}
		now = next
		var keep []busy
		for _, b := range inFlight {
			if b.done == now {
				if err := work.Release(b.circ); err != nil {
					panic(err)
				}
				busyRes[b.res] = false
				sum += float64(now)
				delivered++
			} else {
				keep = append(keep, b)
			}
		}
		inFlight = keep
	}
	return sum / float64(delivered)
}

// E17CircuitVsPacket regenerates the §II modeling argument: store-and-
// forward packet switching vs circuit switching for task delivery through
// the same network, sweeping the task length. The RSIN column adds the
// paper's destination-free discipline on top of circuit switching.
func E17CircuitVsPacket(seed int64, trials int) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:     "E17",
		Title:  "Mean task delivery clocks: packet vs circuit vs RSIN (Omega 16, full load)",
		Header: []string{"task length", "packet (buf=2)", "circuit (fixed dest)", "circuit (RSIN)"},
		Notes: []string{
			"paper (§II): 'a task cannot be processed until it is completely received'; circuit switching avoids per-packet queueing",
		},
	}
	for _, L := range []int{1, 4, 16, 64} {
		pkt := &stats.Accumulator{}
		cir := &stats.Accumulator{}
		rsn := &stats.Accumulator{}
		for i := 0; i < trials; i++ {
			net := topology.Omega(16)
			tasks := packetsim.RandomTasks(rng, net, 1.0)
			if len(tasks) == 0 {
				continue
			}
			pres, err := packetsim.Run(packetsim.Config{Net: net, TaskLength: L, BufferDepth: 2}, tasks)
			if err != nil {
				panic(err)
			}
			pkt.Add(pres.MeanDelivery)
			cir.Add(circuitDelivery(net, tasks, L))
			var procs []int
			for _, tk := range tasks {
				procs = append(procs, tk.Proc)
			}
			rsn.Add(rsinDelivery(net, procs, L))
		}
		t.AddRow(fmt.Sprintf("%d", L),
			fmt.Sprintf("%.1f", pkt.Mean()),
			fmt.Sprintf("%.1f", cir.Mean()),
			fmt.Sprintf("%.1f", rsn.Mean()))
	}
	return t
}

// E18FaultTolerance regenerates the §IV fault-tolerance motivation for the
// distributed architecture: with scattered link failures the optimal
// scheduler reroutes around dead links while address mapping degrades; the
// multipath gamma network degrades most gracefully of all.
func E18FaultTolerance(seed int64, trials int) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:    "E18",
		Title: "Blocking vs failed interior links (p=0.75)",
		Header: []string{"failed links", "omega: optimal", "omega: address",
			"gamma: optimal"},
		Notes: []string{
			"paper (§IV): the distributed implementation is preferred 'for reasons such as fault tolerance and modularity'",
		},
	}
	cfg := workload.Config{PRequest: 0.75, PFree: 0.75}
	for _, frac := range []float64{0, 0.05, 0.10, 0.20} {
		oOpt := &stats.Accumulator{}
		oAdr := &stats.Accumulator{}
		gOpt := &stats.Accumulator{}
		measure := func(build func() *topology.Network, sched heuristic.Scheduler, acc *stats.Accumulator) {
			for i := 0; i < trials; i++ {
				net := build()
				workload.FailRandomLinks(rng, net, frac)
				pat := workload.Generate(rng, net, cfg)
				possible := len(pat.Requests)
				if len(pat.Avail) < possible {
					possible = len(pat.Avail)
				}
				if possible == 0 {
					continue
				}
				m := sched(net, pat.Requests, pat.Avail, rng)
				acc.Add(1 - float64(m.Allocated())/float64(possible))
			}
		}
		measure(func() *topology.Network { return topology.Omega(8) }, heuristic.Optimal, oOpt)
		measure(func() *topology.Network { return topology.Omega(8) }, heuristic.AddressMapping, oAdr)
		measure(func() *topology.Network { return topology.Gamma(8) }, heuristic.Optimal, gOpt)
		t.AddRow(fmt.Sprintf("%.0f%%", 100*frac), pct(oOpt.Mean()), pct(oAdr.Mean()), pct(gOpt.Mean()))
	}
	return t
}

// Experiment is one row of the experiment table: an ID and how the
// experiment derives its own seed offset and ensemble size from a base
// seed and trial count.
type Experiment struct {
	ID  string
	Run func(seed int64, trials int) *Table
}

// Suite is the one experiment table, in run order: cmd/rsinbench's -exp
// help, lookup and run order, the harness benchmark and the quick-run test
// all range over it.
var Suite = []Experiment{
	{"E1", func(int64, int) *Table { return E1Fig2() }},
	{"E4", func(s int64, n int) *Table { return E4CubeBlocking(s, n) }},
	{"E5", func(s int64, n int) *Table { return E5OmegaBlocking(s+1, n/2) }},
	{"E6", func(s int64, n int) *Table { return E6OccupancySweep(s+2, n/2) }},
	{"E7", func(s int64, n int) *Table { return E7ExtraStages(s+3, n/2) }},
	{"E10", func(s int64, n int) *Table { return E10TokenVsMonitor(s+4, small(n)) }},
	{"E11", func(s int64, _ int) *Table { return E11TableII(s + 5) }},
	{"E12", func(s int64, n int) *Table { return E12DinicScaling(s+6, small(n)) }},
	{"E13", func(s int64, n int) *Table { return E13Integrality(s+7, small(n)) }},
	{"E14", func(s int64, _ int) *Table { return E14LoadBalance(s + 8) }},
	{"E15", func(s int64, _ int) *Table { return E15CyclePolicy(s + 9) }},
	{"E16", func(s int64, n int) *Table { return E16Placement(s+10, small(n)) }},
	{"E17", func(s int64, n int) *Table { return E17CircuitVsPacket(s+11, small(n)/2+1) }},
	{"E18", func(s int64, n int) *Table { return E18FaultTolerance(s+12, small(n)) }},
}

// small is the ensemble size of the experiments that solve a whole trace
// per trial: a tenth of trials, never none.
func small(trials int) int {
	if trials < 10 {
		return 10
	}
	return trials / 10
}
