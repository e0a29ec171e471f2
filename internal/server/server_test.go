package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rsin/internal/sched"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// newTestServer builds a front door over a fresh omega(8) scheduler.
func newTestServer(t *testing.T, acfg AdmissionConfig) (*Server, *sched.Scheduler) {
	t.Helper()
	s, err := sched.New(sched.Config{Shards: []system.Config{{Net: topology.Omega(8)}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	sv, err := New(Config{Sched: s, Admission: acfg})
	if err != nil {
		t.Fatal(err)
	}
	return sv, s
}

func postTask(t *testing.T, h http.Handler, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/tasks", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestSubmitServiced is the happy path: one task through the front
// door, serviced with its resources and timings in the response.
func TestSubmitServiced(t *testing.T) {
	sv, _ := newTestServer(t, AdmissionConfig{})
	w := postTask(t, sv.Handler(), `{"proc": 2}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	var ev TaskEvent
	if err := json.Unmarshal(w.Body.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Event != "serviced" || len(ev.Resources) != 1 {
		t.Fatalf("event %+v, want serviced with one resource", ev)
	}
}

// TestSubmitStreaming pins the ndjson event stream: admitted, granted,
// serviced, in order, each on its own line.
func TestSubmitStreaming(t *testing.T) {
	sv, _ := newTestServer(t, AdmissionConfig{})
	w := postTask(t, sv.Handler(), `{"proc": 1, "stream": true, "hold_us": 1000}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []TaskEvent
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	for sc.Scan() {
		var ev TaskEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	want := []string{"admitted", "granted", "serviced"}
	if len(events) != len(want) {
		t.Fatalf("got %d events %+v, want %v", len(events), events, want)
	}
	for i, ev := range events {
		if ev.Event != want[i] {
			t.Errorf("event %d = %q, want %q", i, ev.Event, want[i])
		}
	}
	if events[2].ServiceMS < 0.5 {
		t.Errorf("serviced event service_ms = %v, want >= the 1ms hold", events[2].ServiceMS)
	}
}

// TestShedResponse pins the overload surface: 503, a Retry-After header
// in whole seconds, and a JSON body carrying the reason and exact hint.
func TestShedResponse(t *testing.T) {
	sv, _ := newTestServer(t, AdmissionConfig{MaxInflight: 1, MaxQueue: 1})
	// Occupy the only inflight slot out-of-band, then knock.
	tk, err := sv.Admission().Admit(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Finish()
	w := postTask(t, sv.Handler(), `{"proc": 0, "tier": 1}`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing the Retry-After header")
	}
	var shed struct {
		Error        string `json:"error"`
		Reason       string `json:"reason"`
		Tier         int    `json:"tier"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &shed); err != nil {
		t.Fatal(err)
	}
	if shed.Error != "overload" || shed.Reason != ShedInflight || shed.Tier != 1 || shed.RetryAfterMS <= 0 {
		t.Fatalf("shed body %+v", shed)
	}
}

// TestDeadlineHeader pins the per-request deadline: a deadline the
// scheduler cannot meet answers 504 with the timeout cause, and the
// scheduler's terminal accounting records a cancellation, not a loss.
func TestDeadlineHeader(t *testing.T) {
	sv, s := newTestServer(t, AdmissionConfig{})
	w := postTask(t, sv.Handler(), `{"proc": 3}`, map[string]string{DeadlineHeader: "1ns"})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", w.Code, w.Body)
	}
	var ev TaskEvent
	if err := json.Unmarshal(w.Body.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Event != "failed" || ev.Cause != "timeout" {
		t.Fatalf("event %+v, want failed/timeout", ev)
	}
	if ev.RetryAfterMS <= 0 {
		t.Errorf("timeout response carries no backoff hint: %+v", ev)
	}
	st := s.Stats()
	if st.Submitted != st.Serviced+st.Canceled+st.Failed {
		t.Errorf("accounting identity broken: %+v", st)
	}
}

// TestAbsoluteDeadline pins the RFC 3339 form of the deadline header: a
// future timestamp behaves like the equivalent duration (the task is
// serviced well inside it), and an already-expired one is rejected with
// 400 *before admission* — the regression here is a dead-on-arrival
// request consuming an inflight/queue slot (and a scheduler submit) only
// to time out instantly, which under a burst of stale-clock clients shed
// live traffic for nothing.
func TestAbsoluteDeadline(t *testing.T) {
	sv, _ := newTestServer(t, AdmissionConfig{})
	future := time.Now().Add(time.Minute).UTC().Format(time.RFC3339)
	w := postTask(t, sv.Handler(), `{"proc": 2}`, map[string]string{DeadlineHeader: future})
	if w.Code != http.StatusOK {
		t.Fatalf("future absolute deadline: status %d, body %s", w.Code, w.Body)
	}

	past := time.Now().Add(-time.Minute).UTC().Format(time.RFC3339)
	before := sv.Admission().State()
	w = postTask(t, sv.Handler(), `{"proc": 2}`, map[string]string{DeadlineHeader: past})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("expired absolute deadline: status %d, want 400; body %s", w.Code, w.Body)
	}
	after := sv.Admission().State()
	if after.PeakQueued != before.PeakQueued || after.Inflight != 0 || after.Queued != 0 {
		t.Errorf("expired deadline touched admission: before %+v, after %+v", before, after)
	}
}

// TestBadRequests tables the 4xx surface of the decoder and validators.
func TestBadRequests(t *testing.T) {
	sv, _ := newTestServer(t, AdmissionConfig{})
	cases := []struct {
		name string
		body string
		hdr  map[string]string
		want int
	}{
		{"malformed json", `{`, nil, http.StatusBadRequest},
		{"unknown field", `{"tir": 2}`, nil, http.StatusBadRequest},
		{"trailing garbage", `{"proc": 1} extra`, nil, http.StatusBadRequest},
		{"negative proc", `{"proc": -1}`, nil, http.StatusBadRequest},
		{"negative shard", `{"shard": -2}`, nil, http.StatusBadRequest},
		{"negative need", `{"need": -1}`, nil, http.StatusBadRequest},
		{"proc off the fabric", `{"proc": 99}`, nil, http.StatusBadRequest},
		{"shard off the fabric", `{"shard": 7}`, nil, http.StatusBadRequest},
		{"bad tier", `{"tier": 99}`, nil, http.StatusBadRequest},
		{"negative type", `{"type": -1}`, nil, http.StatusBadRequest},
		{"hold over cap", `{"hold_us": 60000000}`, nil, http.StatusBadRequest},
		{"bad deadline", `{}`, map[string]string{DeadlineHeader: "soon"}, http.StatusBadRequest},
		{"negative deadline", `{}`, map[string]string{DeadlineHeader: "-1s"}, http.StatusBadRequest},
		{"expired absolute deadline", `{}`, map[string]string{DeadlineHeader: "1999-01-01T00:00:00Z"}, http.StatusBadRequest},
		{"garbled absolute deadline", `{}`, map[string]string{DeadlineHeader: "2026-13-45T99:00:00Z"}, http.StatusBadRequest},
		{"need over capacity", `{"need": 999}`, nil, http.StatusUnprocessableEntity},
		{"type the fabric does not stock", `{"type": 5}`, nil, http.StatusUnprocessableEntity},
		{"body too large", `{"prefs": [` + strings.Repeat("1,", 40000) + `1]}`, nil, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postTask(t, sv.Handler(), tc.body, tc.hdr)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d; body %s", w.Code, tc.want, w.Body)
			}
		})
	}
	// Method and path guards.
	req := httptest.NewRequest(http.MethodGet, "/v1/tasks", nil)
	w := httptest.NewRecorder()
	sv.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/tasks = %d, want 405", w.Code)
	}
}

// TestDrain pins the graceful-shutdown gate: after Drain every new
// request sheds with the draining reason, and /healthz reports it.
func TestDrain(t *testing.T) {
	sv, _ := newTestServer(t, AdmissionConfig{})
	sv.Drain()
	sv.Drain() // idempotent
	w := postTask(t, sv.Handler(), `{"proc": 0}`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	var shed struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &shed); err != nil {
		t.Fatal(err)
	}
	if shed.Reason != ShedDraining {
		t.Fatalf("reason %q, want %q", shed.Reason, ShedDraining)
	}
	hw := httptest.NewRecorder()
	sv.Handler().ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health struct {
		Draining bool `json:"draining"`
	}
	if err := json.Unmarshal(hw.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if !health.Draining {
		t.Error("healthz does not report draining")
	}
}

// TestHealthz pins the responsiveness probe's census fields.
func TestHealthz(t *testing.T) {
	sv, _ := newTestServer(t, AdmissionConfig{MaxInflight: 7, MaxQueue: 5})
	tk, err := sv.Admission().Admit(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Finish()
	w := httptest.NewRecorder()
	sv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var st struct {
		AdmissionState
		Draining bool `json:"draining"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Inflight != 1 || st.Queued != 1 || st.MaxInflight != 7 || st.MaxQueue != 5 || st.Draining {
		t.Fatalf("healthz state %+v", st)
	}
}

// TestH2CFrontDoor drives the front door over a real TCP listener with
// an HTTP/2 prior-knowledge client: the negotiated protocol must be
// HTTP/2.0 on a plain (unencrypted) connection, and the streaming task
// endpoint must work over it.
func TestH2CFrontDoor(t *testing.T) {
	sv, _ := newTestServer(t, AdmissionConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := sv.HTTPServer()
	go srv.Serve(ln)
	defer srv.Close()

	p := new(http.Protocols)
	p.SetHTTP1(false)
	p.SetUnencryptedHTTP2(true)
	client := &http.Client{
		Transport: &http.Transport{Protocols: p},
		Timeout:   5 * time.Second,
	}
	url := fmt.Sprintf("http://%s/v1/tasks", ln.Addr())
	resp, err := client.Post(url, "application/json", strings.NewReader(`{"proc": 4, "stream": true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ProtoMajor != 2 {
		t.Fatalf("negotiated %s, want HTTP/2.0 over h2c", resp.Proto)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var last TaskEvent
	sc := bufio.NewScanner(resp.Body)
	n := 0
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		n++
	}
	if n != 3 || last.Event != "serviced" {
		t.Fatalf("streamed %d events ending %q, want 3 ending serviced", n, last.Event)
	}

	// The same listener still answers plain HTTP/1.1 (curl's default).
	h1 := &http.Client{Timeout: 5 * time.Second}
	resp1, err := h1.Post(url, "application/json", strings.NewReader(`{"proc": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp1.Body.Close()
	if resp1.ProtoMajor != 1 || resp1.StatusCode != http.StatusOK {
		t.Fatalf("HTTP/1.1 fallback: proto %s status %d", resp1.Proto, resp1.StatusCode)
	}
}

// TestClientDisconnectReleasesSlot pins the cancellation mapping: a
// client that goes away while its task is queued releases both the
// admission slot and the scheduler queue slot (the task is withdrawn,
// counted canceled, and the census returns to zero).
func TestClientDisconnectReleasesSlot(t *testing.T) {
	// A need the fabric can satisfy but slowly: occupy every resource
	// first so the victim task stays queued when its client vanishes.
	s, err := sched.New(sched.Config{Shards: []system.Config{{Net: topology.Omega(8)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sv, err := New(Config{Sched: s, Admission: AdmissionConfig{MaxInflight: 64, MaxQueue: 64}})
	if err != nil {
		t.Fatal(err)
	}
	var holders []*sched.Handle
	for p := 0; p < 8; p++ {
		h, err := s.Submit(0, system.Task{Proc: p})
		if err != nil {
			t.Fatal(err)
		}
		<-h.Done()
		if h.Err() != nil {
			t.Fatal(h.Err())
		}
		holders = append(holders, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := sv.HTTPServer()
	go srv.Serve(ln)
	defer srv.Close()

	// Raw HTTP/1.1 request, then slam the connection while queued.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	body := `{"proc": 0, "stream": true}`
	fmt.Fprintf(conn, "POST /v1/tasks HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	// Wait for the admitted event so the task is inside the scheduler.
	br := bufio.NewReader(conn)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		if strings.Contains(line, "admitted") {
			break
		}
	}
	// "admitted" is written before the handler submits, and a context
	// that ends first never reaches the scheduler at all: wait for the
	// ninth submission so it is the queued task the disconnect withdraws.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Submitted < int64(len(holders))+1 {
		if time.Now().After(deadline) {
			t.Fatalf("the admitted task never reached the scheduler: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	conn.Close()

	// The disconnect propagates: the admission census must drain to zero.
	for {
		st := sv.Admission().State()
		if st.Inflight == 0 && st.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission census never drained after disconnect: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The handler returns (and the census drains) when its context ends;
	// the shard applies the withdrawal it triggered in a later epoch.
	for s.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler recorded no cancellation after the disconnect: %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, h := range holders {
		if err := s.EndService(h); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Submitted != st.Serviced+st.Canceled+st.Failed {
		t.Errorf("accounting identity broken: %+v", st)
	}
}
