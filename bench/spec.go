package main

import "time"

// The vocabulary of the benchmark: workload names, end-to-end metric
// names with unit, direction and bound, and per-layer metric names. Later
// issues claim against these names; BENCHMARK.json repeats them and
// drift_test.go fails when the two disagree.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may read worse before a change counts as a regression.
	// Per-layer metrics carry no bound.
	Bound float64
}

// endToEnd lists what a user of the scheduling service sees. Every
// workload emits every one of them; where a workload has one priority
// class or no deadline the class- and deadline-specific metrics reduce to
// their all-traffic form (README.md, "End-to-end metrics").
//
// The bounds are sized to the box, not to taste: on the 2-core shared VM
// this was built on, a single-threaded integer loop reads 56k to 78k
// iterations per second from one second to the next, and identical runs
// of a CPU-bound workload spread 4 to 16% (quartile distance over
// median). Every timed metric therefore carries the widest bound the
// driver allows; only the counted ones can hold a tighter one.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tasks_per_s", "op/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_task", "us", "lower", 0.25},
	{"allocs_per_task", "count", "lower", 0.20},
	{"serviced_share", "share", "higher", 0.10},
	{"goodput_per_s", "op/s", "higher", 0.25},
	{"tier0_goodput_per_s", "op/s", "higher", 0.25},
	{"deadline_met_share", "share", "higher", 0.10},
}

// perLayer lists the single-layer numbers, named <module>.<metric>. A
// module that does not run on a workload reads 0 there.
var perLayer = []metricDef{
	// Tails and ladder results that cannot hold a tenth between identical
	// runs on every workload, so they are reported, not gated.
	{"tail.p99_ms", "ms", "lower", 0},
	{"tail.tier0_p99_ms", "ms", "lower", 0},
	{"tail.due_p99_ms", "ms", "lower", 0},
	{"tail.top_pct", "%", "higher", 0},
	{"tail.top_ms", "ms", "lower", 0},
	{"tail.samples", "count", "higher", 0},
	{"tail.max_rate_ok_per_s", "req/s", "higher", 0},
	{"tail.fail_share", "share", "lower", 0},
	{"tail.deadline_miss_share", "share", "lower", 0},

	{"http.self_us", "us", "lower", 0},
	{"http.allocs", "count", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.allocs", "count", "lower", 0},
	{"server.admit_ns", "ns", "lower", 0},
	{"server.shed_share", "share", "lower", 0},
	{"server.shed_share_640", "share", "lower", 0},
	{"server.timeouts", "count", "lower", 0},
	{"server.peak_queued", "count", "lower", 0},
	{"server.retry_after_missing", "count", "lower", 0},

	{"sched.self_us", "us", "lower", 0},
	{"sched.allocs", "count", "lower", 0},
	{"sched.batch_fill", "share", "higher", 0},
	{"sched.cycles_per_epoch", "count", "lower", 0},
	{"sched.submit_call_us", "us", "lower", 0},
	{"sched.wait_us", "us", "lower", 0},
	{"sched.end_call_us", "us", "lower", 0},
	{"sched.deferred_per_task", "count", "lower", 0},
	{"sched.severed", "count", "lower", 0},
	{"sched.preempts", "count", "lower", 0},
	{"sched.failed", "count", "lower", 0},
	{"sched.restarts", "count", "lower", 0},

	{"system.self_us", "us", "lower", 0},
	{"system.allocs_per_cycle", "count", "lower", 0},
	{"system.cycle_us", "us", "lower", 0},
	{"system.cycle_self_share", "share", "lower", 0},
	{"system.submit_ns", "ns", "lower", 0},
	{"system.endtx_ns", "ns", "lower", 0},
	{"system.endsvc_ns", "ns", "lower", 0},
	{"system.blocked_share", "share", "lower", 0},
	{"system.granted_per_cycle", "count", "higher", 0},
	{"system.batch_tasks", "count", "higher", 0},

	{"core.self_us", "us", "lower", 0},
	{"core.solve_us", "us", "lower", 0},
	{"core.apply_us", "us", "lower", 0},
	{"core.warm_share", "share", "higher", 0},
	{"core.cold_rebuilds", "count", "lower", 0},
	{"core.fast_path_share", "share", "higher", 0},
	{"core.retractions_per_cycle", "count", "lower", 0},
	{"core.hetero_self_us", "us", "lower", 0},
	{"core.certified_share", "share", "higher", 0},
	{"core.gap_units", "count", "lower", 0},

	{"maxflow.arc_scans_per_grant", "count", "lower", 0},
	{"maxflow.node_visits_per_grant", "count", "lower", 0},
	{"maxflow.augmentations_per_grant", "count", "lower", 0},
	{"netsimplex.solve_us", "us", "lower", 0},
	{"netsimplex.ops_per_cycle", "count", "lower", 0},
	{"multiflow.lp_us", "us", "lower", 0},
	{"multiflow.greedy_us", "us", "lower", 0},

	{"topology.build_ms", "ms", "lower", 0},
	{"obs.overhead_share", "share", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"trace.top_cpu_us", "us", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"gen.late_share", "share", "lower", 0},
	{"gen.overflow_share", "share", "lower", 0},
	{"gen.connections", "count", "lower", 0},
	{"proc.peak_heap_mb", "MB", "lower", 0},
}

// depth names a boundary the harness can call into from outside.
type depth int

const (
	dWire    depth = iota // http.Client.Do over loopback
	dHandler              // Server.Handler().ServeHTTP in-process
	dSched                // sched.Submit -> Done -> EndService
	dSystem               // one goroutine driving system.System (+ shadow core, engine)
)

func (d depth) String() string {
	return [...]string{"D0.wire", "D1.handler", "D2.sched", "D3.system"}[d]
}

// workloadDef is one named traffic mix. Windows are the full-run windows
// of `go run ./bench`; the driver's --seconds overrides them.
type workloadDef struct {
	Name string
	Why  string
	// Window: 20 s for CPU-bound workloads, 10 s for timer-bound ones.
	Window  time.Duration
	Clients int
	// Depths lists the boundaries the traced pass walks, top first.
	Depths []depth
	// Open marks the open-loop workload; the others are closed loops.
	Open bool
	// DirectTasks is the fixed operation count of the D3 drive, so its
	// counts repeat exactly for a seed.
	DirectTasks int
}

var workloads = []workloadDef{
	{
		Name:    "untyped_sat",
		Why:     "64 closed-loop clients fill every batch: sched hand-off and system.cycle input assembly do the work, the solver little",
		Window:  20 * time.Second,
		Clients: 64, Depths: []depth{dSched, dSystem}, DirectTasks: 400000,
	},
	{
		Name:    "untyped_sparse",
		Why:     "8 clients on the same fabric: every epoch is a timer flush, CPU idles, latency is the flush policy",
		Window:  10 * time.Second,
		Clients: 8, Depths: []depth{dSched, dSystem}, DirectTasks: 400000,
	},
	{
		Name:    "typed_pool",
		Why:     "typed need vectors on Omega-16 x 3 types: ScheduleHetero, multiflow and the dense LP are nearly all of the time",
		Window:  20 * time.Second,
		Clients: 16, Depths: []depth{dSched, dSystem}, DirectTasks: 2000,
	},
	{
		Name:    "tiered_faults",
		Window:  20 * time.Second,
		Why:     "MinCost with 8 tiers, preemption and a fail-heal every 100 tasks: warm simplex basis, cold rebuilds, sever charging",
		Clients: 64, Depths: []depth{dSched, dSystem}, DirectTasks: 20000,
	},
	{
		Name:    "gangs",
		Why:     "explicit 4-member gangs and ring-allreduce collectives: composite banker gate, atomic grant, EndGang",
		Window:  10 * time.Second,
		Clients: 24, Depths: []depth{dSched, dSystem}, DirectTasks: 20000,
	},
	{
		Name:    "frontdoor_zero_hold",
		Why:     "64 h2c streams over loopback with zero hold: framing, JSON decode, admission and reply encode dominate, the fabric idles",
		Window:  20 * time.Second,
		Clients: 64, Depths: []depth{dWire, dHandler, dSched, dSystem}, DirectTasks: 400000,
	},
	{
		Name:    "frontdoor_overload",
		Why:     "open-loop Poisson ladder 0.5-2.0x the 1280/s fabric ceiling with 25 ms hold and 250 ms deadline: admission, shedding, deadlines",
		Window:  20 * time.Second,
		Clients: 0, Depths: []depth{dWire, dHandler}, Open: true,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Overload ladder: fixed offered rates around the fabric ceiling
// 32 resources / 25 ms = 1280 req/s (threshold policies after Budhiraja &
// Johnson), not multiples of a knee re-measured each run.
var (
	ladderRates = []float64{640, 960, 1280, 1920, 2560}
	tierMix     = []float64{0.2, 0.3, 0.5}
)

const (
	overloadHoldUS     = 25000
	overloadDeadline   = 250 * time.Millisecond
	overloadLimitMS    = 100.0 // p99-from-due limit for max_rate_ok_per_s
	overloadOKShare    = 0.99
	outstandingCap     = 1024 // harness-side cap on requests in flight
	streamsPerConn     = 200  // and on those in flight on one h2c connection
	faultEvery         = 100  // tiered_faults: one fail-heal per this many completed tasks
	sliceLen           = time.Second
	warmUp             = 2 * time.Second
	minSetups          = 9 // fresh set-ups per run; more while they stay cheap
	maxSetups          = 101
	setupBudget        = 1500 * time.Millisecond
	overflowLimitShare = 0.01
	// A run is refused as unhealthy when more than lateLimitShare of the
	// arrivals at or below the ceiling fired more than lateLimitMS late.
	// The issue asked for p99 lateness under 5 ms. This box will not give
	// it: a Go timer under network load is only as fine as the runtime's
	// poller (1 ms; p99 lateness is 2 ms on a quiet run), and the VM
	// stalls whole for 50 to 260 ms a few times a minute, each stall
	// alone putting 1-2% of a rung's arrivals that late. A generator that
	// cannot keep up is late on most arrivals, which this still catches.
	lateLimitMS    = 5.0
	lateLimitShare = 0.10
	// quietShedShare is the most that may be shed at half the ceiling
	// before the run counts as shedding where it must not: one 260 ms
	// stall of the VM bunches 160 arrivals, of which a hundred shed.
	quietShedShare = 0.05
	// openAttempts bounds how often an open-loop run is measured again
	// after a refusal that blames the box (errEnvironment).
	openAttempts = 3
)
