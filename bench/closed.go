package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rsin/internal/core"
	"rsin/internal/obs"
	"rsin/internal/sched"
	"rsin/internal/system"
)

// Span kinds whose durations the traced pass keeps in full (the p50s of
// the per-layer table); the spans written to bench/out are a bounded
// prefix of the same calls.
const (
	spSubmit = iota // inside Submit / SubmitGang
	spWait          // Submit returned -> Done closed
	spEnd           // inside EndService / EndGang
	nSpan
)

var spanNames = [nSpan]string{"sched.submit_call", "sched.wait", "sched.end_call"}

// spanOpsKept bounds the spans a client keeps for bench/out: its first
// operations of each depth. Durations of every operation still feed the
// percentiles.
const spanOpsKept = 32

// span is one recorded call: name, start, end, the span that caused it
// and the operation both belong to.
type span struct {
	Name   string `json:"name"`
	Depth  string `json:"depth"`
	Client int    `json:"client"`
	Op     int    `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// client is one closed-loop goroutine standing for a processor: one
// outstanding operation at a time.
type client struct {
	id    int
	e     *env
	d     depth
	gen   *opGen
	start time.Time
	httpc *http.Client
	body  []byte

	ops series // one entry per attempted operation: 1 serviced, 0 refused by design
	lat series // ms, issued -> resources usable, serviced operations only

	traced bool
	dur    [nSpan]series // us
	spans  []span
	nops   int
}

// newClient builds client c of the env's workload at depth d.
func newClient(e *env, d depth, seed int64, c int, start time.Time, traced bool) *client {
	cl := &client{id: c, e: e, d: d, gen: newOpGen(e.w, seed, c), start: start, traced: traced}
	if d == dWire {
		cl.httpc = e.httpc[c%len(e.httpc)]
	}
	if d <= dHandler {
		cl.body = []byte(fmt.Sprintf(`{"proc":%d}`, cl.gen.proc))
	}
	return cl
}

func (cl *client) since() time.Duration { return time.Since(cl.start) }

// keep records the spans of one operation while the client is still
// within its kept prefix.
func (cl *client) keep(root string, t0, t3 time.Time, kids ...span) {
	if !cl.traced || cl.nops > spanOpsKept {
		return
	}
	rel := func(t time.Time) int64 { return int64(t.Sub(cl.start)) }
	cl.spans = append(cl.spans, span{Name: root, Depth: cl.d.String(), Client: cl.id, Op: cl.nops, Start: rel(t0), End: rel(t3)})
	for _, k := range kids {
		k.Depth, k.Client, k.Op, k.Parent = cl.d.String(), cl.id, cl.nops, root
		cl.spans = append(cl.spans, k)
	}
}

func (cl *client) kid(kind int, a, b time.Time) span {
	cl.dur[kind].add(float64(b.Sub(a))/1e3, cl.since())
	return span{Name: spanNames[kind], Start: int64(a.Sub(cl.start)), End: int64(b.Sub(cl.start))}
}

// refusedByDesign reports the terminal errors a workload exists to
// provoke: a task severed past its budget or refused while capacity is
// degraded (tiered_faults). They count against serviced_share; anything
// else fails the run.
func (cl *client) refusedByDesign(err error) bool {
	return cl.e.w.Name == "tiered_faults" &&
		(errors.Is(err, system.ErrCircuitSevered) || errors.Is(err, system.ErrUnsatisfiable))
}

func (cl *client) refused(err error) {
	if !cl.refusedByDesign(err) {
		cl.e.fail(fmt.Errorf("client %d: %w", cl.id, err))
		return
	}
	cl.ops.add(0, cl.since())
	cl.e.taskDone()
}

// schedOp is one singleton task at D2: Submit -> Done -> EndService.
func (cl *client) schedOp() {
	cl.nops++
	op, shard := cl.gen.next(), cl.gen.shard()
	var t1, t3 time.Time
	t0 := time.Now()
	h, err := cl.e.sch.Submit(shard, op.Task)
	if err != nil {
		cl.refused(err)
		return
	}
	if cl.traced {
		t1 = time.Now()
	}
	<-h.Done()
	t2 := time.Now()
	if err := h.Err(); err != nil {
		cl.refused(err)
		return
	}
	res := h.Resources()
	if err := cl.e.led.acquire(shard, res); err != nil {
		cl.e.fail(err)
	}
	if op.Task.Needs != nil {
		if !typedExact(cl.e.types, op.Task.Needs, res) {
			cl.e.fail(fmt.Errorf("client %d: typed grant %v does not match need vector %v", cl.id, res, op.Task.Needs))
		}
	} else if len(res) != max(op.Task.Need, 1) {
		cl.e.fail(fmt.Errorf("client %d: granted %d resources, needs %d", cl.id, len(res), op.Task.Need))
	}
	cl.lat.add(float64(t2.Sub(t0))/1e6, t2.Sub(cl.start))
	cl.e.led.release(shard, res)
	var t2e time.Time
	if cl.traced {
		t2e = time.Now()
	}
	if err := cl.e.sch.EndService(h); err != nil {
		cl.e.fail(fmt.Errorf("client %d: EndService: %w", cl.id, err))
		return
	}
	cl.ops.add(1, cl.since())
	cl.e.taskDone()
	if cl.traced {
		t3 = time.Now()
		cl.keep("op", t0, t3, cl.kid(spSubmit, t0, t1), cl.kid(spWait, t1, t2), cl.kid(spEnd, t2e, t3))
	}
}

// gangOp is one explicit 4-member gang at D2: SubmitGang -> Done ->
// EndGang. A gang observed with any member short is a broken contract.
func (cl *client) gangOp() {
	cl.nops++
	op := cl.gen.next()
	spec := sched.GangSpec{Members: make([]system.Task, len(op.Members))}
	for i, p := range op.Members {
		spec.Members[i] = system.Task{Proc: p}
	}
	var t1, t3 time.Time
	t0 := time.Now()
	gh, err := cl.e.sch.SubmitGang(0, spec)
	if err != nil {
		cl.refused(err)
		return
	}
	if cl.traced {
		t1 = time.Now()
	}
	<-gh.Done()
	t2 := time.Now()
	if err := gh.Err(); err != nil {
		cl.refused(err)
		return
	}
	res := gh.Resources()
	if len(res) != len(op.Members) {
		cl.e.fail(fmt.Errorf("client %d: gang of %d observed with %d members granted", cl.id, len(op.Members), len(res)))
	}
	for _, member := range res {
		if len(member) != 1 {
			cl.e.fail(fmt.Errorf("client %d: gang observed partially granted: %v", cl.id, res))
		}
		if err := cl.e.led.acquire(0, member); err != nil {
			cl.e.fail(err)
		}
	}
	cl.lat.add(float64(t2.Sub(t0))/1e6, t2.Sub(cl.start))
	for _, member := range res {
		cl.e.led.release(0, member)
	}
	var t2e time.Time
	if cl.traced {
		t2e = time.Now()
	}
	if err := cl.e.sch.EndGang(gh); err != nil {
		cl.e.fail(fmt.Errorf("client %d: EndGang: %w", cl.id, err))
		return
	}
	cl.ops.add(1, cl.since())
	if cl.traced {
		t3 = time.Now()
		cl.keep("op", t0, t3, cl.kid(spSubmit, t0, t1), cl.kid(spWait, t1, t2), cl.kid(spEnd, t2e, t3))
	}
}

// collectiveOp runs one ring allreduce over the client's four ranks. An
// operation is one phase (one gang), so the call counts 2(k-1) of them.
// The harness cannot see inside the call: each phase's latency is taken
// as the call's wall time over its phases, which includes the phase's
// release.
func (cl *client) collectiveOp() {
	cl.nops++
	t0 := time.Now()
	res, err := cl.e.sch.RunCollective(context.Background(), 0, sched.CollectiveSpec{
		Pattern: core.RingAllReduce, Procs: cl.gen.procs,
	})
	if err != nil {
		cl.e.fail(fmt.Errorf("client %d: collective: %w", cl.id, err))
		return
	}
	t3 := time.Now()
	for i := 0; i < res.Phases; i++ {
		cl.ops.add(1, t3.Sub(cl.start))
		cl.lat.add(float64(t3.Sub(t0))/1e6/float64(res.Phases), t3.Sub(cl.start))
	}
	cl.keep("collective", t0, t3)
}

// taskReply is what the harness reads of a /v1/tasks answer.
type taskReply struct {
	Event     string `json:"event"`
	Resources []int  `json:"resources"`
	Reason    string `json:"reason"`
	Cause     string `json:"cause"`
}

// bufWriter is the in-process ResponseWriter of D1.
type bufWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *bufWriter) Header() http.Header         { return w.hdr }
func (w *bufWriter) WriteHeader(code int)        { w.code = code }
func (w *bufWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

// post sends one /v1/tasks request at the client's depth — over a
// loopback h2c stream (D0) or straight into the handler (D1) — and
// returns status, headers and decoded reply.
func post(e *env, d depth, hc *http.Client, body []byte, deadline string) (int, http.Header, taskReply, error) {
	var rep taskReply
	url := "/v1/tasks"
	if d == dWire {
		url = e.url
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, rep, err
	}
	req.Header.Set("Content-Type", "application/json")
	if deadline != "" {
		req.Header.Set("Rsin-Deadline", deadline)
	}
	if d == dHandler {
		w := &bufWriter{hdr: http.Header{}, code: http.StatusOK}
		e.srv.Handler().ServeHTTP(w, req)
		err := json.Unmarshal(w.buf.Bytes(), &rep)
		return w.code, w.hdr, rep, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, rep, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, rep, err
	}
	return resp.StatusCode, resp.Header, rep, json.Unmarshal(raw, &rep)
}

// httpOp is one zero-hold front-door request; the latency runs to the
// full response.
func (cl *client) httpOp() {
	cl.nops++
	t0 := time.Now()
	code, _, rep, err := post(cl.e, cl.d, cl.httpc, cl.body, "")
	t3 := time.Now()
	if err != nil || code != http.StatusOK || rep.Event != "serviced" || len(rep.Resources) != 1 {
		cl.e.fail(fmt.Errorf("client %d: POST /v1/tasks: status %d event %q resources %v: %v", cl.id, code, rep.Event, rep.Resources, err))
		return
	}
	cl.lat.add(float64(t3.Sub(t0))/1e6, t3.Sub(cl.start))
	cl.ops.add(1, t3.Sub(cl.start))
	name := "http.do"
	if cl.d == dHandler {
		name = "server.serve_http"
	}
	cl.keep(name, t0, t3)
}

// opFor picks the client's operation at depth d.
func (cl *client) opFor() func() {
	switch {
	case cl.d <= dHandler:
		return cl.httpOp
	case cl.e.w.Name == "gangs" && cl.gen.procs != nil:
		return cl.collectiveOp
	case cl.e.w.Name == "gangs":
		return cl.gangOp
	default:
		return cl.schedOp
	}
}

// runOut is what one closed-loop run leaves behind for summarize.
type runOut struct {
	from, to time.Duration // measured window, as offsets from the start
	u0, u1   usage
	st0, st1 sched.Stats
	final    sched.Stats // after Close
	clients  []*client
	peakMB   float64
	conns    int64
}

// runClosed builds a fresh stack at depth d, runs the workload's clients
// for warm+dur and tears the stack down. Counters are snapshotted at the
// edges of the measured window; operations count where they complete.
func runClosed(w *workloadDef, d depth, seed int64, warm, dur time.Duration, traced bool, reg *obs.Registry, breakLedger bool) (*runOut, error) {
	e, err := build(w, d, reg)
	if err != nil {
		return nil, err
	}
	if breakLedger {
		// Self-test of the gate: tell the ledger every resource is already
		// held, so the first grant must trip it.
		for s := range e.led.held {
			for r := range e.led.held[s] {
				e.led.held[s][r].Store(1)
			}
		}
	}
	out := &runOut{from: warm, to: warm + dur}
	start := time.Now()
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		cl := newClient(e, d, seed, c, start, traced)
		out.clients = append(out.clients, cl)
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := cl.opFor()
			for !stopped.Load() && !e.failed() {
				op()
			}
		}()
	}
	var chaosStop, chaosDone chan struct{}
	if e.trigger != nil {
		chaosStop, chaosDone = make(chan struct{}), make(chan struct{})
		go e.chaos(seed, chaosStop, chaosDone)
	}

	// The coordinator sleeps to each window edge (waking to notice a
	// failed run) and does no other work while clients run.
	sleepUntil := func(edge time.Duration) {
		for left := edge - time.Since(start); left > 0 && !e.failed(); left = edge - time.Since(start) {
			time.Sleep(min(left, 250*time.Millisecond))
		}
	}
	stopHeap := watchHeap()
	sleepUntil(out.from)
	out.u0, out.st0 = usageNow(), e.sch.Stats()
	sleepUntil(out.to)
	out.u1, out.st1 = usageNow(), e.sch.Stats()
	stopped.Store(true)
	wg.Wait()
	out.peakMB = stopHeap()
	if chaosStop != nil {
		close(chaosStop)
		<-chaosDone
	}
	out.conns = e.conns.Load()
	out.final = e.close()
	if e.err != nil {
		return nil, e.err
	}
	if err := checkFinal(e, out.final, out.conns); err != nil {
		return nil, err
	}
	return out, nil
}

// checkFinal is the gate every run passes after Close, closed loop or
// open: exactly-once terminal accounting, every repair matching a fault,
// the free pool restored, no shard restart, no connection beyond the load
// rule.
func checkFinal(e *env, st sched.Stats, conns int64) error {
	if st.Submitted != st.Serviced+st.Canceled+st.Failed {
		return fmt.Errorf("terminal accounting broken at Close: submitted %d != serviced %d + canceled %d + failed %d",
			st.Submitted, st.Serviced, st.Canceled, st.Failed)
	}
	if st.Repairs != st.LinkFaults {
		return fmt.Errorf("fault script left the fabric degraded: %d repairs for %d faults", st.Repairs, st.LinkFaults)
	}
	if st.Free != e.totalRess() || st.Usable != e.totalRess() {
		return fmt.Errorf("free pool not restored at Close: free %d usable %d of %d", st.Free, st.Usable, e.totalRess())
	}
	if st.Restarts != 0 {
		return fmt.Errorf("%d shard restarts during the run", st.Restarts)
	}
	if conns > int64(connLimit()) {
		return fmt.Errorf("load used %d connections, the rule allows min(nproc,4) = %d", conns, connLimit())
	}
	return nil
}
