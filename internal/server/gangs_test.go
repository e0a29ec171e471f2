package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rsin/internal/sched"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// newGangServer builds a front door with the gang endpoint mounted over
// a fresh banker's-mode omega(8) scheduler.
func newGangServer(t *testing.T, acfg AdmissionConfig) (*Server, *sched.Scheduler) {
	t.Helper()
	s, err := sched.New(sched.Config{
		Shards: []system.Config{{Net: topology.Omega(8), Avoidance: system.AvoidanceBankers}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	sv, err := New(Config{Sched: s, Admission: acfg, Gangs: true})
	if err != nil {
		t.Fatal(err)
	}
	return sv, s
}

func postGang(t *testing.T, h http.Handler, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/gangs", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestGangEndpointServiced is the happy path: an explicit three-member
// gang through the front door, granted all-or-nothing with distinct
// resources per member.
func TestGangEndpointServiced(t *testing.T) {
	sv, s := newGangServer(t, AdmissionConfig{})
	w := postGang(t, sv.Handler(),
		`{"members": [{"proc": 0, "need": 2}, {"proc": 3}, {"proc": 5}]}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	var ev GangEvent
	if err := json.Unmarshal(w.Body.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Event != "serviced" || ev.Members != 3 {
		t.Fatalf("event %+v, want serviced with 3 members", ev)
	}
	seen := map[int]bool{}
	units := 0
	for _, member := range ev.Resources {
		for _, r := range member {
			if seen[r] {
				t.Fatalf("resource %d granted twice: %v", r, ev.Resources)
			}
			seen[r] = true
			units++
		}
	}
	if units != 4 {
		t.Fatalf("granted %d units, want 4: %v", units, ev.Resources)
	}
	st := s.Stats()
	if st.GangsServiced != 1 || st.Submitted != st.Serviced {
		t.Fatalf("stats %+v, want one serviced gang", st)
	}
}

// TestGangEndpointCollective runs a ring allreduce over 4 ranks through
// the front door: 2(k-1) = 6 phases, each one gang.
func TestGangEndpointCollective(t *testing.T) {
	sv, s := newGangServer(t, AdmissionConfig{})
	w := postGang(t, sv.Handler(),
		`{"collective": "allreduce", "procs": [0, 1, 2, 3], "hold_us": 10}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	var ev GangEvent
	if err := json.Unmarshal(w.Body.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Event != "serviced" || ev.Phases != 6 || ev.Members != 4 {
		t.Fatalf("event %+v, want serviced with 6 phases over 4 ranks", ev)
	}
	st := s.Stats()
	if st.GangsServiced != 6 {
		t.Fatalf("GangsServiced = %d, want 6 (one per phase)", st.GangsServiced)
	}

	// A deadline that expires mid-phase-chain is retryable like any other
	// 504: the retry hint must be in the header too, not only the body (the
	// collective path used to set retry_after_ms alone).
	w = postGang(t, sv.Handler(),
		`{"collective": "allreduce", "procs": [0, 1, 2, 3], "hold_us": 20000}`,
		map[string]string{DeadlineHeader: "30ms"})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", w.Code, w.Body)
	}
	ev = GangEvent{}
	if err := json.Unmarshal(w.Body.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Event != "failed" || ev.Cause != "timeout" || ev.Phases < 1 || ev.Phases >= 6 || ev.RetryAfterMS <= 0 {
		t.Fatalf("event %+v, want failed/timeout part-way through the 6 phases with a retry hint", ev)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("504 from a collective without a Retry-After header")
	}
}

// TestGangEndpointBadRequests pins the 400 surface of the gang decoder.
func TestGangEndpointBadRequests(t *testing.T) {
	sv, _ := newGangServer(t, AdmissionConfig{})
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"both-kinds", `{"members": [{"proc": 0}, {"proc": 1}], "collective": "allreduce", "procs": [0, 1]}`},
		{"unknown-collective", `{"collective": "alltoall", "procs": [0, 1]}`},
		{"one-rank", `{"collective": "allreduce", "procs": [3]}`},
		{"negative-proc", `{"members": [{"proc": -1}, {"proc": 1}]}`},
		{"unknown-field", `{"members": [{"proc": 0}, {"proc": 1}], "hodl_us": 5}`},
		{"trailing", `{"members": [{"proc": 0}, {"proc": 1}]} extra`},
		{"one-member", `{"members": [{"proc": 0}]}`},
		{"repeated-proc", `{"members": [{"proc": 2}, {"proc": 2}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if w := postGang(t, sv.Handler(), tc.body, nil); w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", w.Code, w.Body)
			}
		})
	}
	// Expired absolute deadlines die before admission, like /v1/tasks.
	w := postGang(t, sv.Handler(), `{"members": [{"proc": 0}, {"proc": 1}]}`,
		map[string]string{DeadlineHeader: "2006-01-02T15:04:05Z"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("expired deadline: status %d, want 400; body %s", w.Code, w.Body)
	}
}

// TestGangEndpointUnmounted: without Config.Gangs the route does not
// exist — the operator opt-in is real, not just a doc convention.
func TestGangEndpointUnmounted(t *testing.T) {
	sv, _ := newTestServer(t, AdmissionConfig{})
	w := postGang(t, sv.Handler(), `{"members": [{"proc": 0}, {"proc": 1}]}`, nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404 when gangs are not mounted", w.Code)
	}
}

// TestGangEndpointSheds: a gang rides one admission ticket at its most
// urgent member's tier, so a front door at capacity sheds the whole gang
// with 503 + Retry-After — never a partial admit.
func TestGangEndpointSheds(t *testing.T) {
	sv, _ := newGangServer(t, AdmissionConfig{MaxInflight: 1})
	tk, err := sv.Admission().Admit(0) // saturate the only slot
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Finish()

	w := postGang(t, sv.Handler(), `{"members": [{"proc": 2}, {"proc": 3}]}`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed without Retry-After")
	}
}

// TestGangEndpointUnsat: a gang too big for the fabric is rejected as
// the client's problem (400 bad-gang wraps ErrUnsatisfiable from the
// capacity check in SubmitGang's validation), holding nothing.
func TestGangEndpointUnsat(t *testing.T) {
	sv, s := newGangServer(t, AdmissionConfig{})
	w := postGang(t, sv.Handler(),
		`{"members": [{"proc": 0, "need": 5}, {"proc": 1, "need": 4}]}`, nil)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422; body %s", w.Code, w.Body)
	}
	var ev GangEvent
	if err := json.Unmarshal(w.Body.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Cause != "unsat" {
		t.Fatalf("cause %q, want unsat", ev.Cause)
	}
	st := s.Stats()
	if st.Submitted != 0 {
		t.Fatalf("unsatisfiable gang consumed a submission: %+v", st)
	}
}
