package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rsin/internal/obs"
	"rsin/internal/sched"
	"rsin/internal/system"
)

// DeadlineHeader carries the per-request deadline, either as a Go
// duration string ("250ms", "2s") relative to arrival or as an absolute
// RFC 3339 timestamp ("2026-08-08T12:00:00Z"). The server derives a
// context.WithTimeout from it, so a request that cannot be provisioned
// in time is withdrawn from the scheduler (releasing its queue slot) and
// answered 504. An absolute timestamp already in the past is rejected
// with 400 before the request touches admission — a dead-on-arrival
// request must not consume a slot another client could use. Absent or
// "0" means no deadline beyond the client's own connection.
const DeadlineHeader = "Rsin-Deadline"

// maxBodyBytes bounds the /v1/tasks request body. A submit request is a
// handful of integers plus an optional per-resource preference vector;
// 64 KiB covers fabrics three orders of magnitude past the test sizes.
const maxBodyBytes = 64 << 10

// SubmitRequest is the JSON body of POST /v1/tasks. The zero value of
// every field is valid: an untyped, untier'd single-resource task on
// processor 0 of shard 0, serviced and released immediately on grant.
type SubmitRequest struct {
	Shard    int     `json:"shard"`
	Proc     int     `json:"proc"`
	Need     int     `json:"need"`     // resources required; 0 means 1
	Tier     int     `json:"tier"`     // priority class, 0 most urgent
	Priority int64   `json:"priority"` // fine-grain priority within the tier
	Prefs    []int64 `json:"prefs,omitempty"`
	Type     int     `json:"type"`
	// Needs is the typed demand vector for heterogeneous pools, keyed by
	// resource type (string keys — JSON objects cannot key integers):
	// {"0": 1, "2": 3} asks for one type-0 and three type-2 resources.
	// Mutually exclusive with Need/Type, which remain the one-type
	// special case.
	Needs map[string]int `json:"needs,omitempty"`
	// HoldUS holds the granted resources for this many microseconds
	// before the server releases them — the simulated service time.
	HoldUS int64 `json:"hold_us"`
	// Stream switches the response to an ndjson event stream (admitted,
	// granted, serviced / failed) flushed as the task progresses, instead
	// of a single JSON document after release. Accept:
	// application/x-ndjson selects it too.
	Stream bool `json:"stream"`
}

// decodeSubmit parses and validates a /v1/tasks body. It is strict —
// unknown fields and trailing garbage are errors, so a client typo
// ("tir": 2) sheds loudly instead of silently submitting the default —
// and pure, which is what FuzzHTTPSubmitDecode needs.
func decodeSubmit(body []byte) (SubmitRequest, error) {
	var req SubmitRequest
	if err := decodeStrict(body, &req); err != nil {
		return SubmitRequest{}, fmt.Errorf("decoding task: %w", err)
	}
	if req.Shard < 0 {
		return SubmitRequest{}, fmt.Errorf("shard %d must be non-negative", req.Shard)
	}
	if req.Proc < 0 {
		return SubmitRequest{}, fmt.Errorf("proc %d must be non-negative", req.Proc)
	}
	if req.Need < 0 {
		return SubmitRequest{}, fmt.Errorf("need %d must be non-negative", req.Need)
	}
	if req.HoldUS < 0 {
		return SubmitRequest{}, fmt.Errorf("hold_us %d must be non-negative", req.HoldUS)
	}
	if _, err := typedNeeds(req.Needs); err != nil {
		return SubmitRequest{}, err
	}
	// Tier, Priority and Prefs bounds are the scheduler's contract
	// (system.ValidateTask, typed ErrBadTask); the decoder only rejects
	// what could never be valid so the two layers cannot disagree.
	return req, nil
}

// typedNeeds converts a JSON needs object into the scheduler's typed
// demand vector. Keys must be distinct non-negative integer resource
// types ("0", "2" — not "02", which would alias "2"); count bounds and
// the exclusivity with Need/Type are system.ValidateTask's contract.
func typedNeeds(needs map[string]int) (map[int]int, error) {
	if needs == nil {
		return nil, nil
	}
	out := make(map[int]int, len(needs))
	for k, n := range needs {
		ty, err := strconv.Atoi(k)
		if err != nil || ty < 0 || strconv.Itoa(ty) != k {
			return nil, fmt.Errorf("needs key %q must be a canonical non-negative resource type", k)
		}
		out[ty] = n
	}
	return out, nil
}

// decodeStrict decodes one JSON document into v, rejecting unknown
// fields and trailing garbage (shared by the /v1/tasks and /v1/gangs
// decoders).
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON document")
	}
	return nil
}

// parseDeadline parses the DeadlineHeader value at time now. Empty and
// "0" mean no deadline; anything else must be a positive Go duration or
// an RFC 3339 timestamp strictly in the future — an absolute deadline
// that has already expired is an error, so the handler rejects it with
// 400 before the request consumes an admission slot.
func parseDeadline(h string, now time.Time) (time.Duration, error) {
	if h == "" || h == "0" {
		return 0, nil
	}
	if d, err := time.ParseDuration(h); err == nil {
		if d <= 0 {
			return 0, fmt.Errorf("%s %q must be positive", DeadlineHeader, h)
		}
		return d, nil
	}
	at, err := time.Parse(time.RFC3339, h)
	if err != nil {
		return 0, fmt.Errorf("parsing %s: %q is neither a duration nor an RFC 3339 time", DeadlineHeader, h)
	}
	d := at.Sub(now)
	if d <= 0 {
		return 0, fmt.Errorf("%s %q already expired %v ago", DeadlineHeader, h, -d)
	}
	return d, nil
}

// TaskEvent is one line of the ndjson event stream (and the body of the
// single-document response, Event "serviced"). Cause labels terminal
// failures: "timeout" (the per-request deadline expired), "disconnect"
// (the client went away), "severed" (the task exhausted its sever-retry
// budget under hardware faults), "shard-down", "unsat", "closed".
type TaskEvent struct {
	Event     string  `json:"event"` // admitted | granted | serviced | failed
	Resources []int   `json:"resources,omitempty"`
	QueueMS   float64 `json:"queue_ms,omitempty"`   // admitted -> granted
	ServiceMS float64 `json:"service_ms,omitempty"` // granted -> released
	Failure
}

// Failure is the tail of every "failed" event, on /v1/tasks and /v1/gangs
// alike (its fields sit inline in the event's JSON object).
type Failure struct {
	Cause        string `json:"cause,omitempty"`
	Error        string `json:"error,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Config parameterizes a Server.
type Config struct {
	// Sched is the scheduling service behind the front door. Required;
	// the server does not own it (Close it separately, after Drain).
	Sched *sched.Scheduler
	// Admission tunes the admission controller built for the server.
	Admission AdmissionConfig
	// MaxHold caps SubmitRequest.HoldUS; longer holds are rejected with
	// 400 (a client must not pin fabric resources indefinitely).
	// Default 5s.
	MaxHold time.Duration
	// Obs, when non-nil, receives the server instruments (request and
	// outcome counters, request latency histogram) and is threaded into
	// the admission controller unless Admission.Obs is already set.
	Obs *obs.Registry
	// Gangs mounts POST /v1/gangs (all-or-nothing gangs and lowered
	// collectives; see gangs.go). Off by default — gang requests pin
	// several circuits at once, so the operator opts the front door in
	// (rsinserve -gangs).
	Gangs bool
}

// serverObs holds the front door's resolved instruments; the zero value
// (nil registry) is the disabled state, every method a nil-safe no-op.
type serverObs struct {
	requests    *obs.Counter
	serviced    *obs.Counter
	timeouts    *obs.Counter
	disconnects *obs.Counter
	failed      *obs.Counter
	badRequests *obs.Counter
	requestMS   *obs.Histogram
}

// Server is the HTTP front door. Build one with New, mount Handler on a
// listener (HTTPServer returns one pre-configured for h2c), and Drain it
// before closing the scheduler.
type Server struct {
	s   *sched.Scheduler
	adm *Admission
	cfg Config
	o   serverObs
	mux *http.ServeMux

	drainCh chan struct{} // closed by Drain; draining() reports it
}

// New validates the configuration and builds the front door.
func New(cfg Config) (*Server, error) {
	if cfg.Sched == nil {
		return nil, fmt.Errorf("server: a scheduler is required")
	}
	if cfg.MaxHold <= 0 {
		cfg.MaxHold = 5 * time.Second
	}
	if cfg.Admission.Obs == nil {
		cfg.Admission.Obs = cfg.Obs
	}
	adm, err := NewAdmission(cfg.Admission)
	if err != nil {
		return nil, err
	}
	sv := &Server{s: cfg.Sched, adm: adm, cfg: cfg, drainCh: make(chan struct{})}
	if reg := cfg.Obs; reg != nil {
		sv.o = serverObs{
			requests:    reg.Counter("rsin_server_requests_total"),
			serviced:    reg.Counter("rsin_server_serviced_total"),
			timeouts:    reg.Counter("rsin_server_timeouts_total"),
			disconnects: reg.Counter("rsin_server_disconnects_total"),
			failed:      reg.Counter("rsin_server_failed_total"),
			badRequests: reg.Counter("rsin_server_bad_requests_total"),
			requestMS:   reg.Histogram("rsin_server_request_ms", obs.ExpBuckets(0.01, 2, 18)),
		}
	}
	sv.mux = http.NewServeMux()
	sv.mux.HandleFunc("/v1/tasks", sv.handleTasks)
	if cfg.Gangs {
		sv.mux.HandleFunc("/v1/gangs", sv.handleGangs)
	}
	sv.mux.HandleFunc("/healthz", sv.handleHealthz)
	return sv, nil
}

// Admission exposes the server's admission controller (census snapshots
// for harnesses and ops endpoints).
func (sv *Server) Admission() *Admission { return sv.adm }

// Handler returns the front door's HTTP handler.
func (sv *Server) Handler() http.Handler { return sv.mux }

// HTTPServer returns an *http.Server for the front door speaking both
// HTTP/1.1 and unencrypted HTTP/2 (h2c, prior knowledge) on plain TCP —
// curl and browsers arrive over HTTP/1.1, streaming clients multiplex
// requests over h2c.
func (sv *Server) HTTPServer() *http.Server {
	p := new(http.Protocols)
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	return &http.Server{Handler: sv.mux, Protocols: p}
}

// Drain moves the server into shutdown: every subsequent /v1/tasks
// request sheds with 503 (reason "draining") while in-flight requests
// run to completion. Call it before http.Server.Shutdown so streams
// already admitted can finish, and close the scheduler only after.
// Idempotent.
func (sv *Server) Drain() {
	select {
	case <-sv.drainCh:
	default:
		close(sv.drainCh)
	}
}

func (sv *Server) draining() bool {
	select {
	case <-sv.drainCh:
		return true
	default:
		return false
	}
}

// handleHealthz serves the liveness/responsiveness probe: the admission
// census as JSON. It stays cheap and lock-bounded so it answers even
// when every worker is saturated — TestOverloadChaosStress uses its
// latency as the "process stays responsive under overload" check.
func (sv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := struct {
		AdmissionState
		Draining bool `json:"draining"`
	}{sv.adm.State(), sv.draining()}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(state)
}

// retryAfterSecs is a retry hint in the Retry-After header's unit: whole
// seconds, rounded up, at least one.
func retryAfterSecs(retry time.Duration) string {
	return strconv.FormatInt(max(1, int64((retry+time.Second-1)/time.Second)), 10)
}

// writeShed answers a shed request: 503, Retry-After, and a JSON body
// carrying the exact hint in milliseconds plus the policy that shed.
func writeShed(w http.ResponseWriter, tier int, reason string, retry time.Duration) {
	w.Header().Set("Retry-After", retryAfterSecs(retry))
	writeJSONStatus(w, http.StatusServiceUnavailable, struct {
		Error        string `json:"error"`
		Reason       string `json:"reason"`
		Tier         int    `json:"tier"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}{"overload", reason, tier, retry.Milliseconds()})
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSONStatus(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}

func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// request is one /v1/tasks or /v1/gangs request past the shared prelude:
// decoded, admitted, with its context and hold. The route owns it and must
// call end.
type request struct {
	sv     *Server
	w      http.ResponseWriter
	ctx    context.Context // client disconnect, tightened by the deadline header
	cancel context.CancelFunc
	t0     time.Time
	hold   time.Duration
	ticket *Ticket
	es     *eventStream // set by a route that streams its events
}

// begin is the one request prelude: method check → bounded read → strict
// decode → Rsin-Deadline → hold cap → drain gate → Admit → context. decode
// parses the body into the route's own request type and reports the
// admission tier and the hold it asks for. begin fills in rq (the route's
// own, so it costs no allocation) and reports true, or answers the refusal
// itself and reports false.
func (sv *Server) begin(rq *request, w http.ResponseWriter, r *http.Request, decode func(body []byte) (tier int, holdUS int64, err error)) (ok bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	t0 := time.Now()
	sv.o.requests.Inc()
	defer func() {
		if !ok {
			sv.o.requestMS.Observe(time.Since(t0).Seconds() * 1e3)
		}
	}()
	bad := func(code int, err error) bool {
		sv.o.badRequests.Inc()
		writeError(w, code, err)
		return false
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return bad(http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", maxBodyBytes))
		}
		// A client that vanished mid-body was never admitted; anything
		// else is a malformed request.
		if r.Context().Err() != nil {
			return false
		}
		return bad(http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
	}
	tier, holdUS, err := decode(body)
	if err != nil {
		return bad(http.StatusBadRequest, err)
	}
	deadline, err := parseDeadline(r.Header.Get(DeadlineHeader), t0)
	if err != nil {
		return bad(http.StatusBadRequest, err)
	}
	hold := time.Duration(holdUS) * time.Microsecond
	if hold > sv.cfg.MaxHold {
		return bad(http.StatusBadRequest, fmt.Errorf("hold_us %d exceeds the %v cap", holdUS, sv.cfg.MaxHold))
	}

	// Admission: the drain gate first (a draining server sheds uniformly),
	// then the controller's threshold + proportional-fair policies.
	if sv.draining() {
		writeShed(w, tier, ShedDraining, sv.adm.RetryAfter())
		return false
	}
	ticket, err := sv.adm.Admit(tier)
	if err != nil {
		var oe *OverloadError
		if errors.As(err, &oe) {
			writeShed(w, oe.Tier, oe.Reason, oe.RetryAfter)
			return false
		}
		return bad(http.StatusBadRequest, err)
	}

	// The request context carries the client disconnect; the deadline
	// header tightens it. Either one expiring withdraws the work from its
	// shard, releasing the queue slot (sched.SubmitCtx semantics).
	*rq = request{sv: sv, w: w, ctx: r.Context(), t0: t0, hold: hold, ticket: ticket}
	if deadline > 0 {
		rq.ctx, rq.cancel = context.WithTimeout(rq.ctx, deadline)
	}
	return true
}

// end releases what the prelude acquired: the admission slot and the
// deadline timer.
func (rq *request) end() {
	if rq.cancel != nil {
		rq.cancel()
	}
	rq.ticket.Finish()
	rq.sv.o.requestMS.Observe(time.Since(rq.t0).Seconds() * 1e3)
}

// holdGranted holds granted resources through the simulated service time.
// A dying context cuts the hold short but never skips the release: once
// granted, the resources are held and must be released on every path.
func (rq *request) holdGranted() {
	if rq.hold > 0 {
		t := time.NewTimer(rq.hold)
		select {
		case <-rq.ctx.Done():
			t.Stop()
		case <-t.C:
		}
	}
}

// answer writes the request's terminal event: the last line of an ndjson
// stream, else a JSON document under the status.
func (rq *request) answer(code int, ev any) {
	if rq.es != nil {
		rq.es.send(ev)
		return
	}
	writeJSONStatus(rq.w, code, ev)
}

// failure is the one mapping from a scheduler error to the API's terminal
// failure — cause label, HTTP status, retry hint — for every route, and it
// bumps the matching outcome counter. A context death is the deadline
// header expiring (504, the client is still listening) or the client
// disconnecting (the response is moot, but the counters are not).
// Retryable conditions (shard restart, sever budget, shutdown) get 503 so
// clients back off and resubmit; permanent ones (unsatisfiable demand)
// 422; both retryable statuses carry retry_after_ms and, on a document
// response, the Retry-After header. badCause labels what else a Submit
// reports synchronously — validation: a malformed tier or vector
// (ErrBadTask), a shard or processor off the fabric; the request's fault,
// 400 — and is empty for the error of an admitted handle, where anything
// unrecognised is the server's (500).
func (rq *request) failure(err error, badCause string) (Failure, int) {
	o := &rq.sv.o
	f, code, counter := Failure{Cause: "error", Error: err.Error()}, http.StatusInternalServerError, o.failed
	switch {
	case errors.Is(err, sched.ErrTaskCanceled) && errors.Is(rq.ctx.Err(), context.DeadlineExceeded):
		f.Cause, code, counter = "timeout", http.StatusGatewayTimeout, o.timeouts
	case errors.Is(err, sched.ErrTaskCanceled):
		f.Cause, code, counter = "disconnect", http.StatusServiceUnavailable, o.disconnects
	case errors.Is(err, system.ErrCircuitSevered):
		f.Cause, code = "severed", http.StatusServiceUnavailable
	case errors.Is(err, sched.ErrShardDown):
		f.Cause, code = "shard-down", http.StatusServiceUnavailable
	case errors.Is(err, sched.ErrClosed):
		f.Cause, code = "closed", http.StatusServiceUnavailable
	case errors.Is(err, system.ErrUnsatisfiable):
		f.Cause, code = "unsat", http.StatusUnprocessableEntity
	case badCause != "":
		f.Cause, code, counter = badCause, http.StatusBadRequest, o.badRequests
	}
	counter.Inc()
	if code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout {
		retry := rq.sv.adm.RetryAfter()
		f.RetryAfterMS = retry.Milliseconds()
		if rq.es == nil {
			rq.w.Header().Set("Retry-After", retryAfterSecs(retry))
		}
	}
	return f, code
}

// fail answers the request with its terminal "failed" event. That event
// has one wire form on both routes — TaskEvent and GangEvent reduce to it,
// only a collective reporting the phases and severs it got through.
func (rq *request) fail(err error, badCause string, phases, severs int) {
	f, code := rq.failure(err, badCause)
	rq.answer(code, GangEvent{Event: "failed", Phases: phases, Severs: severs, Failure: f})
}

// handleTasks is POST /v1/tasks: the prelude, then submit with the request
// context, stream or report the outcome, and always release what was
// acquired — the admission slot via end, the granted resources via
// EndService.
func (sv *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	var rq request
	if !sv.begin(&rq, w, r, func(body []byte) (int, int64, error) {
		var err error
		req, err = decodeSubmit(body)
		return req.Tier, req.HoldUS, err
	}) {
		return
	}
	defer rq.end()
	task := system.Task{
		Proc: req.Proc, Need: req.Need, Tier: req.Tier,
		Priority: req.Priority, Prefs: req.Prefs, Type: req.Type,
	}
	task.Needs, _ = typedNeeds(req.Needs) // validated by decodeSubmit
	if req.Stream || strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		rq.es = newEventStream(w)
		rq.es.send(TaskEvent{Event: "admitted"})
	}

	h, err := sv.s.SubmitCtx(rq.ctx, req.Shard, task)
	badCause := "bad-task"
	if err == nil {
		<-h.Done()
		err, badCause = h.Err(), ""
	}
	if err != nil {
		rq.fail(err, badCause, 0, 0)
		return
	}
	rq.ticket.Grant()
	granted := time.Now()
	ev := TaskEvent{Event: "granted", Resources: h.Resources(), QueueMS: granted.Sub(rq.t0).Seconds() * 1e3}
	if rq.es != nil {
		rq.es.send(ev)
	}
	rq.holdGranted()
	ev.Event, ev.ServiceMS = "serviced", time.Since(granted).Seconds()*1e3
	if err := sv.s.EndService(h); err != nil {
		// The grants were lost (shard restart between grant and release):
		// the task is terminal either way, but tell the client the truth.
		rq.fail(err, "", 0, 0)
		return
	}
	sv.o.serviced.Inc()
	rq.answer(http.StatusOK, ev)
}

// eventStream writes ndjson task events, flushing each line so the
// client sees progress while the task is still queued (h2c multiplexes
// many such streams over one connection).
type eventStream struct {
	flush http.Flusher
	enc   *json.Encoder
}

func newEventStream(w http.ResponseWriter) *eventStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	es := &eventStream{enc: json.NewEncoder(w)}
	es.flush, _ = w.(http.Flusher)
	return es
}

func (es *eventStream) send(ev any) {
	if err := es.enc.Encode(ev); err != nil {
		return // client gone; the context cancellation does the cleanup
	}
	if es.flush != nil {
		es.flush.Flush()
	}
}
