package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rsin/internal/obs"
	"rsin/internal/sched"
	"rsin/internal/server"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// env is one freshly built stack: fabric, scheduler and, for the
// front-door workloads, server, loopback listener and h2c connections.
type env struct {
	w     *workloadDef
	nets  []*topology.Network
	types []int // typed_pool: resource r has type r%3
	sch   *sched.Scheduler
	srv   *server.Server
	hs    *http.Server
	url   string
	httpc []*http.Client
	// streams[i] holds a token per open-loop request in flight on
	// connection i. An h2c transport that reaches the server's stream
	// limit (250) dials another connection; the cap keeps it from ever
	// getting there, so a burst after a stall overflows in the harness,
	// where it is counted, instead of breaking the connection rule.
	streams []chan struct{}
	conns   atomic.Int64 // connections the listener accepted
	led     *ledger

	// tiered_faults: clients count completions, the chaos goroutine fires
	// one fail-heal per faultEvery of them.
	completed atomic.Int64
	trigger   chan struct{}

	errMu sync.Mutex
	err   error // first outcome the workload does not allow
	bad   atomic.Bool
}

// fail records the first outcome the workload does not allow. The run
// stops and reports it instead of metrics.
func (e *env) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.bad.Store(true)
}

func (e *env) failed() bool { return e.bad.Load() }

// shardConfigs builds the workload's fabric, one system.Config per shard.
func shardConfigs(w *workloadDef) ([]system.Config, []int) {
	switch w.Name {
	case "untyped_sat", "untyped_sparse":
		return []system.Config{{Net: topology.Omega(fabricN64)}, {Net: topology.Omega(fabricN64)}}, nil
	case "typed_pool":
		net := topology.Omega(fabricN16)
		types := make([]int, net.Ress)
		for r := range types {
			types[r] = r % typedTypes
		}
		return []system.Config{{Net: net, Discipline: system.Hetero, Types: types, Avoidance: system.AvoidanceBankers}}, types
	case "tiered_faults":
		return []system.Config{{Net: topology.Omega(fabricN32), Discipline: system.MinCost, Avoidance: system.AvoidanceBankers}}, nil
	case "frontdoor_zero_hold":
		return []system.Config{{Net: topology.Omega(fabricN64)}}, nil
	default: // gangs, frontdoor_overload
		return []system.Config{{Net: topology.Omega(fabricN32)}}, nil
	}
}

// connLimit is the load rule for HTTP workloads: min(nproc, 4) h2c
// prior-knowledge connections with multiplexed streams.
func connLimit() int { return min(runtime.NumCPU(), 4) }

// build sets a fresh stack up to the given depth: the scheduler always,
// the server for dHandler and above, listener and connections for dWire.
func build(w *workloadDef, d depth, reg *obs.Registry) (*env, error) {
	e := &env{w: w, led: &ledger{}}
	shards, types := shardConfigs(w)
	e.types = types
	for _, sc := range shards {
		e.nets = append(e.nets, sc.Net)
		e.led.held = append(e.led.held, make([]atomic.Int32, sc.Net.Ress))
	}
	cfg := sched.Config{Shards: shards, Obs: reg}
	if w.Name == "tiered_faults" {
		cfg.Preempt, cfg.SeverRetries = true, 8
		e.trigger = make(chan struct{}, 1)
	}
	var err error
	if e.sch, err = sched.New(cfg); err != nil {
		return nil, err
	}
	if d > dHandler {
		return e, nil
	}
	adm := server.AdmissionConfig{MaxInflight: 1024, MaxQueue: 1024}
	if w.Open {
		adm = server.AdmissionConfig{MaxInflight: 128, MaxQueue: 64, ShedStart: 0.5, RetryAfter: 100 * time.Millisecond}
	}
	if e.srv, err = server.New(server.Config{Sched: e.sch, Admission: adm}); err != nil {
		e.sch.Close()
		return nil, err
	}
	if d > dWire {
		return e, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.sch.Close()
		return nil, err
	}
	e.hs = e.srv.HTTPServer()
	e.hs.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			e.conns.Add(1)
		}
	}
	go e.hs.Serve(ln) // returns when close() closes the server
	e.url = fmt.Sprintf("http://%s/v1/tasks", ln.Addr())
	for i := 0; i < connLimit(); i++ {
		p := new(http.Protocols)
		p.SetUnencryptedHTTP2(true)
		// One transport per connection: an h2c transport keeps a single
		// connection per host and multiplexes every stream over it.
		hc := &http.Client{Transport: &http.Transport{Protocols: p}}
		// Open the connection now: streams started before it exists would
		// each dial their own.
		resp, err := hc.Get(fmt.Sprintf("http://%s/healthz", ln.Addr()))
		if err != nil {
			e.close()
			return nil, fmt.Errorf("opening h2c connection %d: %w", i, err)
		}
		resp.Body.Close()
		e.httpc = append(e.httpc, hc)
		e.streams = append(e.streams, make(chan struct{}, streamsPerConn))
	}
	return e, nil
}

// close tears the stack down and returns the scheduler's final counters,
// read after Close so the terminal identity can be checked.
func (e *env) close() sched.Stats {
	if e.hs != nil {
		e.hs.Close()
		for _, c := range e.httpc {
			c.CloseIdleConnections()
		}
	}
	if e.srv != nil {
		e.srv.Drain()
	}
	e.sch.Close()
	return e.sch.Stats()
}

// totalRess is the fabric's resource count over all shards.
func (e *env) totalRess() int {
	n := 0
	for _, net := range e.nets {
		n += net.Ress
	}
	return n
}

// ledger is the harness's own record of who holds what: a resource
// granted to a live handle while another live handle still holds it is a
// scheduler bug no counter would show.
type ledger struct {
	held [][]atomic.Int32 // [shard][resource] 1 while a live handle holds it
}

func (l *ledger) acquire(shard int, res []int) error {
	for _, r := range res {
		if !l.held[shard][r].CompareAndSwap(0, 1) {
			return fmt.Errorf("ledger: shard %d resource %d granted while another live handle holds it", shard, r)
		}
	}
	return nil
}

func (l *ledger) release(shard int, res []int) {
	for _, r := range res {
		l.held[shard][r].Store(0)
	}
}

// typedExact reports whether the granted resources match a typed need
// vector exactly, type by type.
func typedExact(types []int, needs map[int]int, res []int) bool {
	got := map[int]int{}
	for _, r := range res {
		got[types[r]]++
	}
	if len(got) != len(needs) {
		return false
	}
	for ty, n := range needs {
		if got[ty] != n {
			return false
		}
	}
	return true
}

// chaos is the tiered_faults fault script at D2: one seeded fail then
// heal of a resource or a link each time the clients complete another
// faultEvery tasks. Count-paced, so a faster service meets more faults
// per second but the same number per task.
func (e *env) chaos(seed int64, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	fg := newFaultGen(seed, len(e.nets[0].Links))
	for {
		select {
		case <-stop:
			return
		case <-e.trigger:
		}
		op := fg.next()
		if err := e.sch.ApplyFaults(0, []system.FaultOp{op}); err != nil {
			e.fail(fmt.Errorf("fault script: fail %v %d: %w", op.Target, op.Index, err))
			return
		}
		op.Repair = true
		if err := e.sch.ApplyFaults(0, []system.FaultOp{op}); err != nil {
			e.fail(fmt.Errorf("fault script: repair %v %d: %w", op.Target, op.Index, err))
			return
		}
	}
}

// taskDone paces the fault script.
func (e *env) taskDone() {
	if e.trigger == nil {
		return
	}
	if e.completed.Add(1)%faultEvery == 0 {
		select {
		case e.trigger <- struct{}{}:
		default: // a fault pair is still being applied; skip, never queue
		}
	}
}
