// rsinserve drives the concurrent batched scheduling service
// (internal/sched) at load and reports throughput, latency percentiles
// and solver-cost counters. It is the sizing harness for the production
// tier: sweep -clients, -batch and -shards to find the epoch geometry for
// a target fabric.
//
//	go run ./cmd/rsinserve                             # 64 clients on one Omega(64)
//	go run ./cmd/rsinserve -shards 4 -topo benes -n 16 # four Benes(16) planes
//	go run ./cmd/rsinserve -clients 256 -batch 128
//
// The -inject flag scripts deterministic faults into the shard systems
// (see internal/faultinject) to exercise the supervisor's recovery path
// at load — including scripted hardware faults — and -deadline puts a
// per-task context deadline on every client, exercising cancellation.
// The -linkfault flag runs continuous fail→heal hardware chaos: a random
// link fails, the fabric schedules degraded, the link heals, repeat:
//
//	go run ./cmd/rsinserve -inject cycle:%500            # fail every 500th solve
//	go run ./cmd/rsinserve -inject cycle:100:fail-link=3 # kill link 3 at cycle 100
//	go run ./cmd/rsinserve -deadline 2ms                 # cancel slow tasks
//	go run ./cmd/rsinserve -linkfault 5ms                # fail→heal a link every 5ms
//
// The -tiers flag spreads the clients across priority classes (tier 0
// most urgent), switches the shards to the min-cost discipline so the
// classes are honored at every epoch solve, and reports latency
// percentiles per tier; -preempt additionally lets a waiting higher-tier
// task take a unit from a still-acquiring lower-tier one, planned inside
// each scheduling cycle so the same solve grants it:
//
//	go run ./cmd/rsinserve -tiers 3                      # gold/silver/bronze QoS
//	go run ./cmd/rsinserve -tiers 3 -preempt -need 2     # with preemption
//
// The -types flag pools several resource types on one fabric (resource r
// gets type r mod k), switches the shards to the multicommodity Hetero
// discipline, and has every client submit a typed demand vector; the
// report then includes the multicommodity epoch split (certified LP fast
// paths vs greedy fallbacks and the accumulated gap):
//
//	go run ./cmd/rsinserve -types 3                      # three typed pools
//	go run ./cmd/rsinserve -serve :8080 -types 3         # typed needs over HTTP
//
// rsinserve shuts down gracefully on SIGINT/SIGTERM: clients stop
// admitting new tasks, in-flight tasks drain (bounded by -drain), and the
// full statistics report is printed for whatever portion of the run
// completed. The chaos injector is always stopped (and its last fault
// healed) before the drain deadline can close the scheduler.
//
// The -serve flag replaces the closed-loop clients with the
// internal/server HTTP front door: POST /v1/tasks (HTTP/1.1 and h2c)
// with admission control and load shedding, until a signal drains it:
//
//	go run ./cmd/rsinserve -serve :8080                  # front-door mode
//	go run ./cmd/rsinserve -serve :8080 -linkfault 5ms   # with hardware chaos
//	go run ./cmd/rsinserve -serve :8080 -gangs           # + POST /v1/gangs
//
// With -gangs the front door also mounts POST /v1/gangs: all-or-nothing
// gangs (explicit member lists) and ring collectives (allreduce,
// reduce-scatter) lowered onto phase chains of gangs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rsin/internal/faultinject"
	"rsin/internal/obs"
	"rsin/internal/sched"
	"rsin/internal/server"
	"rsin/internal/stats"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// chooseSeed picks the chaos/injection RNG seed: the -seed flag value
// when set, otherwise one derived from the clock so independent runs see
// independent fault schedules. The chosen seed is always logged; re-run
// with -seed <value> to reproduce a schedule exactly.
func chooseSeed(flagVal int64, now func() int64) int64 {
	if flagVal != 0 {
		return flagVal
	}
	s := now()
	if s == 0 {
		s = 1 // keep the sentinel meaning "derive one"
	}
	return s
}

// sleepCtx sleeps for d, returning false early if ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// startChaos launches the fail→heal hardware-chaos goroutine and returns
// a stop function that cancels it and waits for the final heal. period 0
// disables chaos (the stop function is still safe to call, repeatedly).
func startChaos(ctx context.Context, s *sched.Scheduler, shards, nLinks int, period time.Duration, seed int64) func() {
	chaosCtx, chaosCancel := context.WithCancel(ctx)
	if period <= 0 {
		chaosCancel()
		return func() {}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed)) // reproducible via the logged -seed
		half := period / 2
		for {
			shard, link := rng.Intn(shards), rng.Intn(nLinks)
			if err := s.FailLink(shard, link); err != nil {
				if !sleepCtx(chaosCtx, period) {
					return
				}
				continue
			}
			ok := sleepCtx(chaosCtx, half)
			s.RepairLink(shard, link) // always heal, even on the way out
			if !ok || !sleepCtx(chaosCtx, half) {
				return
			}
		}
	}()
	return func() {
		chaosCancel()
		wg.Wait() // chaos heals its last fault before shutdown proceeds
	}
}

// drainClients waits for the client goroutines to finish. On a signal it
// stops the chaos injector FIRST — the injector must heal its last fault
// and exit before any drain-deadline closeSched runs, otherwise a
// RepairLink races shutdown and the run can end with a link left failed
// (and a spurious ErrClosed) — then bounds the drain wait and abandons
// stragglers via closeSched. Returns whether the run was interrupted.
func drainClients(ctx context.Context, clientsDone <-chan struct{}, drain time.Duration, stopChaos, closeSched func()) bool {
	interrupted := false
	select {
	case <-clientsDone:
		stopChaos()
	case <-ctx.Done():
		interrupted = true
		stopChaos() // before draining: chaos must not race shutdown
		fmt.Fprintln(os.Stderr, "rsinserve: signal received, draining in-flight tasks ...")
		select {
		case <-clientsDone:
		case <-time.After(drain):
			fmt.Fprintln(os.Stderr, "rsinserve: drain deadline exceeded, abandoning in-flight tasks")
			closeSched()
			<-clientsDone
		}
	}
	return interrupted
}

// runServe is the -serve mode: instead of driving the closed loop, expose
// the scheduler through the internal/server front door (POST /v1/tasks
// over HTTP/1.1 + h2c, /healthz) until a signal arrives, then shut down
// in the documented order — chaos stops and heals, the admission gate
// sheds new work as "draining", in-flight streams finish (bounded by
// drain), and only then does the scheduler close.
func runServe(ctx context.Context, s *sched.Scheduler, reg *obs.Registry, addr string, gangs bool, drain time.Duration, stopChaos func()) {
	sv, err := server.New(server.Config{Sched: s, Obs: reg, Gangs: gangs})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := sv.HTTPServer()
	fmt.Fprintf(os.Stderr, "rsinserve: front door on http://%s/v1/tasks (h2c; POST tasks, %s header for deadlines)\n",
		ln.Addr(), server.DeadlineHeader)
	if gangs {
		fmt.Fprintf(os.Stderr, "rsinserve: gang endpoint on http://%s/v1/gangs (all-or-nothing gangs, allreduce | reduce-scatter collectives)\n",
			ln.Addr())
	}
	go srv.Serve(ln)

	<-ctx.Done()
	stopChaos() // before draining: chaos must not race shutdown
	fmt.Fprintln(os.Stderr, "rsinserve: signal received, draining the front door ...")
	sv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "rsinserve: drain deadline exceeded, abandoning in-flight requests")
	}
	s.Close()
	st := s.Stats()
	fmt.Printf("service       epochs=%d granted=%d serviced=%d canceled=%d failed=%d\n",
		st.Epochs, st.Granted, st.Serviced, st.Canceled, st.Failed)
	adm := sv.Admission().State()
	fmt.Printf("admission     inflight=%d queued=%d peak-queued=%d shed-by-tier=%v\n",
		adm.Inflight, adm.Queued, adm.PeakQueued, adm.ShedByTier)
	if st.Submitted != st.Serviced+st.Canceled+st.Failed {
		fmt.Printf("FAILED        accounting identity broken: %+v\n", st)
		os.Exit(1)
	}
}

func main() {
	var (
		topo      = flag.String("topo", "omega", "fabric per shard: omega | benes | cube | baseline | crossbar")
		n         = flag.Int("n", 64, "fabric size (N x N) per shard")
		shards    = flag.Int("shards", 1, "independent shards (disjoint sub-networks)")
		clients   = flag.Int("clients", 64, "concurrent client goroutines")
		tasks     = flag.Int("tasks", 500, "tasks per client")
		need      = flag.Int("need", 1, "resources per task")
		batch     = flag.Int("batch", 0, "epoch batch size (0 = library default)")
		naive     = flag.Bool("no-avoidance", false, "disable banker's deadlock avoidance for need > 1 (can wedge, §II)")
		tiers     = flag.Int("tiers", 0, "spread clients across this many priority tiers (1..8); switches shards to the min-cost discipline and reports per-tier latency")
		types     = flag.Int("types", 0, "pool this many heterogeneous resource types per shard (0 = homogeneous); switches shards to the multicommodity Hetero discipline and clients to typed demand vectors")
		preempt   = flag.Bool("preempt", false, "let each cycle give a waiting higher-tier task a unit held by a still-acquiring lower-tier one (requires -tiers)")
		inject    = flag.String("inject", "", "fault-injection script, e.g. cycle:%500,cycle:9:fail-link=3 (see internal/faultinject)")
		deadline  = flag.Duration("deadline", 0, "per-task context deadline (0 = none); expired tasks are canceled")
		linkfault = flag.Duration("linkfault", 0, "hardware chaos: fail then heal one random link per period (0 = off)")
		seed      = flag.Int64("seed", 0, "chaos/injection RNG seed (0 = derive from the clock; logged for reproducibility)")
		httpAddr  = flag.String("http", "", "serve /metrics, /metrics.json, /trace and /debug/pprof on this address (e.g. :9090)")
		serveAddr = flag.String("serve", "", "serve the HTTP front door (POST /v1/tasks over h2c, /healthz) on this address instead of running the closed-loop clients; drains on SIGINT")
		gangs     = flag.Bool("gangs", false, "with -serve: also mount POST /v1/gangs (all-or-nothing gangs and ring collectives)")
		drain     = flag.Duration("drain", 10*time.Second, "in-flight drain deadline after SIGINT/SIGTERM")
	)
	flag.Parse()

	if *tiers < 0 || *tiers > system.MaxTier+1 {
		fmt.Fprintf(os.Stderr, "-tiers %d out of range (0..%d)\n", *tiers, system.MaxTier+1)
		os.Exit(2)
	}
	if *preempt && *tiers <= 0 {
		fmt.Fprintln(os.Stderr, "-preempt requires -tiers (preemption is tier-driven)")
		os.Exit(2)
	}
	if *types < 0 {
		fmt.Fprintf(os.Stderr, "-types %d must be non-negative\n", *types)
		os.Exit(2)
	}
	if *types > 0 && *tiers > 0 {
		fmt.Fprintln(os.Stderr, "-types and -tiers are mutually exclusive (Hetero vs MinCost discipline)")
		os.Exit(2)
	}
	if *types > *n {
		fmt.Fprintf(os.Stderr, "-types %d exceeds the %d resources per shard\n", *types, *n)
		os.Exit(2)
	}
	if *gangs && *serveAddr == "" {
		fmt.Fprintln(os.Stderr, "-gangs requires -serve (the gang endpoint is part of the front door)")
		os.Exit(2)
	}

	chaosSeed := chooseSeed(*seed, func() int64 { return time.Now().UnixNano() })
	if *inject != "" || *linkfault > 0 {
		fmt.Fprintf(os.Stderr, "rsinserve: seed %d (re-run with -seed %d to reproduce)\n", chaosSeed, chaosSeed)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops admission; clients
	// finish their in-flight task, the run drains and the stats print. A
	// second signal kills the process the default way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var injector *faultinject.Injector
	if *inject != "" {
		var err error
		if injector, err = faultinject.Parse(*inject); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		injector.Seed(chaosSeed) // probabilistic rules follow the logged seed
	}

	build := map[string]func(int) *topology.Network{
		"omega":    topology.Omega,
		"benes":    topology.Benes,
		"cube":     topology.IndirectCube,
		"baseline": topology.Baseline,
		"crossbar": func(n int) *topology.Network { return topology.Crossbar(n, n) },
	}[*topo]
	if build == nil {
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", *topo)
		os.Exit(2)
	}

	// Multi-resource tasks hold-and-wait between cycles; without the
	// banker's policy the fabric can wedge in the §II deadlock.
	avoidance := system.AvoidanceNone
	if *need > 1 && !*naive {
		avoidance = system.AvoidanceBankers
	}
	// Observability is opt-in: without -http the scheduling hot path stays
	// allocation-free (internal/obs nil-safe instruments).
	var reg *obs.Registry
	if *httpAddr != "" {
		reg = obs.NewRegistry()
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "rsinserve: metrics on http://%s/ (/metrics, /metrics.json, /trace, /debug/pprof)\n", ln.Addr())
		srv := &http.Server{Handler: obs.Handler(reg)}
		go srv.Serve(ln)
		defer srv.Close()
	}

	cfg := sched.Config{BatchSize: *batch, Obs: reg, Preempt: *preempt}
	for i := 0; i < *shards; i++ {
		sc := system.Config{Net: build(*n), Avoidance: avoidance}
		// Tiered traffic needs the priority-honoring discipline; untiered
		// runs keep the cheaper max-flow solve.
		if *tiers > 0 {
			sc.Discipline = system.MinCost
		}
		// Typed pools run the multicommodity discipline; resource r gets
		// type r mod k so every type's stock is n/k.
		if *types > 0 {
			sc.Discipline = system.Hetero
			tv := make([]int, sc.Net.Ress)
			for r := range tv {
				tv[r] = r % *types
			}
			sc.Types = tv
		}
		if injector != nil {
			sc.FaultHook = injector.Hook // one injector: counters span shards
			sc.HardwareHook = injector.HardwareHook
		}
		cfg.Shards = append(cfg.Shards, sc)
	}
	s, err := sched.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Hardware chaos: one goroutine periodically fails a random link on a
	// random shard, lets the fabric run degraded for half the period, then
	// repairs it. Severed circuits, degraded admission and capacity
	// recovery are all exercised continuously under live load.
	stopChaos := startChaos(ctx, s, *shards, len(cfg.Shards[0].Net.Links), *linkfault, chaosSeed)

	if *serveAddr != "" {
		runServe(ctx, s, reg, *serveAddr, *gangs, *drain, stopChaos)
		return
	}

	total := *clients * *tasks
	latencies := make([][]float64, *clients) // per client; merged after the run
	// Expected casualties of -inject, -deadline and -linkfault are tallied
	// apart from genuine failures: lost counts ErrShardDown (grants
	// discarded by a supervisor restart), canceled counts ErrTaskCanceled
	// deadlines, severed counts sever-retry-budget exhaustion, unsat counts
	// degraded-capacity rejections, aborted counts tasks abandoned by
	// shutdown.
	var failed, lost, canceled, severed, unsat, aborted atomic.Int64
	tally := func(err error) {
		switch {
		case errors.Is(err, sched.ErrShardDown):
			lost.Add(1)
		case errors.Is(err, sched.ErrTaskCanceled):
			canceled.Add(1)
		case errors.Is(err, system.ErrCircuitSevered):
			severed.Add(1)
		case errors.Is(err, system.ErrUnsatisfiable):
			unsat.Add(1)
		case errors.Is(err, sched.ErrClosed):
			aborted.Add(1)
		default:
			failed.Add(1)
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			shard := c % *shards
			proc := (c / *shards) % *n
			task := system.Task{Proc: proc, Need: *need}
			if *tiers > 0 {
				task.Tier = c % *tiers // stable tier per client: latencies group by c mod tiers
			}
			if *types > 0 {
				// Typed demand vector: a stable type per client so every
				// commodity sees steady traffic; total demand stays -need.
				task.Need = 0
				task.Needs = map[int]int{c % *types: *need}
			}
			// runTask submits and waits for provisioning, under a deadline
			// when one is configured.
			runTask := func() (*sched.Handle, error) {
				if *deadline <= 0 {
					h, err := s.Submit(shard, task)
					if err == nil {
						<-h.Done()
					}
					return h, err
				}
				tctx, cancel := context.WithTimeout(ctx, *deadline)
				defer cancel()
				h, err := s.SubmitCtx(tctx, shard, task)
				if err == nil {
					<-h.Done()
				}
				return h, err
			}
			lat := make([]float64, 0, *tasks)
			for i := 0; i < *tasks; i++ {
				if ctx.Err() != nil {
					break // shutting down: stop admitting new tasks
				}
				t0 := time.Now()
				h, err := runTask()
				if err != nil {
					tally(err)
					continue
				}
				if h.Err() != nil {
					tally(h.Err())
					continue
				}
				lat = append(lat, time.Since(t0).Seconds()*1e3)
				if err := s.EndService(h); err != nil {
					tally(err)
				}
			}
			latencies[c] = lat
		}(c)
	}
	// Drain: wait for the clients; on a signal, bound the wait with -drain
	// and abandon stragglers by closing the scheduler (their handles fail
	// with ErrClosed, unblocking them).
	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()
	interrupted := drainClients(ctx, clientsDone, *drain, stopChaos, func() { s.Close() })
	elapsed := time.Since(start)
	st := s.Stats()
	s.Close()

	var all []float64
	for _, lat := range latencies {
		all = append(all, lat...)
	}
	qs := stats.Percentiles(all, 0.50, 0.90, 0.99, 1)

	fmt.Printf("fabric        %d shard(s) x %s(%d)\n", *shards, *topo, *n)
	fmt.Printf("load          %d clients x %d tasks (need=%d), %d total\n", *clients, *tasks, *need, total)
	fmt.Printf("wall time     %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("throughput    %.0f tasks/s\n", float64(len(all))/elapsed.Seconds())
	fmt.Printf("latency (ms)  p50=%.3f p90=%.3f p99=%.3f max=%.3f (n=%d)\n", qs[0], qs[1], qs[2], qs[3], len(all))
	if *tiers > 0 {
		for tier := 0; tier < *tiers; tier++ {
			var lat []float64
			for c := tier; c < *clients; c += *tiers {
				lat = append(lat, latencies[c]...)
			}
			tq := stats.Percentiles(lat, 0.50, 0.99)
			fmt.Printf("  tier %d      p50=%.3f p99=%.3f (n=%d)\n", tier, tq[0], tq[1], len(lat))
		}
		if *preempt {
			fmt.Printf("preemption    units-revoked=%d\n", st.Preempts)
		}
	}
	fmt.Printf("service       epochs=%d cycles=%d granted=%d serviced=%d deferred=%d\n",
		st.Epochs, st.Cycles, st.Granted, st.Serviced, st.Deferred)
	if injector != nil || *deadline > 0 || st.Restarts > 0 || st.Canceled > 0 {
		fired := 0
		if injector != nil {
			fired = injector.Fired()
		}
		fmt.Printf("faults        injected=%d restarts=%d lost=%d canceled=%d\n",
			fired, st.Restarts, lost.Load(), canceled.Load())
	}
	hwFired := 0
	if injector != nil {
		hwFired = injector.HardwareFired() // ops applied via HardwareHook, not the sched API
	}
	if *linkfault > 0 || hwFired > 0 || st.LinkFaults > 0 || st.Repairs > 0 || st.Severed > 0 {
		fmt.Printf("hardware      faults=%d repairs=%d hook-ops=%d severed=%d usable=%d severed-tasks=%d unsat=%d\n",
			st.LinkFaults, st.Repairs, hwFired, st.Severed, st.Usable, severed.Load(), unsat.Load())
	}
	if interrupted {
		fmt.Printf("shutdown      interrupted; %d of %d tasks admitted, %d abandoned\n",
			st.Submitted, int64(total), aborted.Load())
	}
	if st.Epochs > 0 {
		fmt.Printf("batching      %.1f tasks/epoch, %.1f cycles/epoch\n",
			float64(st.Submitted)/float64(st.Epochs), float64(st.Cycles)/float64(st.Epochs))
	}
	fmt.Printf("solver ops    augmentations=%d phases=%d arc-scans=%d node-visits=%d\n",
		st.Ops.Augmentations, st.Ops.Phases, st.Ops.ArcScans, st.Ops.NodeVisits)
	if *types > 0 {
		fmt.Printf("multicommod.  fast-path=%d search=%d lp=%d greedy=%d retries=%d gap-units=%d\n",
			st.MultiFastPath, st.MultiSearch, st.MultiLP, st.MultiGreedy, st.MultiRetries, st.MultiGapUnits)
	}
	// Shard-down losses and deadline cancellations are the expected cost
	// of -inject / -deadline runs; anything else is a real failure.
	if f := failed.Load(); f > 0 {
		fmt.Printf("FAILED        %d tasks\n", f)
		os.Exit(1)
	}
}
