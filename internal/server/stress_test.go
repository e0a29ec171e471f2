package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsin/internal/sched"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// TestOverloadChaosStress drives 64 clients through the front door over
// h2c at an offered load the admission controller must shed, while a
// chaos goroutine fails and heals random links underneath. It is the
// end-to-end robustness check of this layer: every response is one of
// the documented outcomes, tier 0 is never tier-shed, the admission queue
// never outgrows its cap, /healthz keeps answering while the door sheds,
// and the scheduler's exactly-once accounting identity holds at
// quiescence.
func TestOverloadChaosStress(t *testing.T) {
	const (
		clients     = 64
		perClient   = 24
		procs       = 16
		maxInfl     = 16 // well under clients: the threshold gate must engage
		maxQueue    = 8
		linkPeriod  = 2 * time.Millisecond
		healthBound = 250 * time.Millisecond // the slowest /healthz answer tolerated under overload
	)
	s, err := sched.New(sched.Config{
		Shards:       []system.Config{{Net: topology.Omega(procs)}},
		SeverRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := New(Config{
		Sched: s,
		Admission: AdmissionConfig{
			MaxInflight: maxInfl, MaxQueue: maxQueue, ShedStart: 0.5,
			RetryAfter: 50 * time.Millisecond,
		},
		MaxHold: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := sv.HTTPServer()
	go srv.Serve(ln)
	defer srv.Close()
	url := fmt.Sprintf("http://%s/v1/tasks", ln.Addr())

	// Hardware chaos: continuous fail -> degraded window -> heal.
	nLinks := len(topology.Omega(procs).Links)
	chaosDone := make(chan struct{})
	chaosStop := make(chan struct{})
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-chaosStop:
				return
			default:
			}
			link := rng.Intn(nLinks)
			if err := s.FailLink(0, link); err == nil {
				time.Sleep(linkPeriod / 2)
				s.RepairLink(0, link) // always heal, even on the way out
			}
			time.Sleep(linkPeriod / 2)
		}
	}()

	p := new(http.Protocols)
	p.SetHTTP1(false)
	p.SetUnencryptedHTTP2(true)
	client := &http.Client{
		Transport: &http.Transport{Protocols: p},
		Timeout:   10 * time.Second,
	}

	// Responsiveness probe: /healthz sampled on the clients' own h2c
	// connection for as long as they overload the door.
	healthURL := fmt.Sprintf("http://%s/healthz", ln.Addr())
	probeStop := make(chan struct{})
	probeDone := make(chan struct{})
	var probes int
	var worstHealth time.Duration
	go func() {
		defer close(probeDone)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-probeStop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			resp, err := client.Get(healthURL)
			if err != nil {
				t.Errorf("/healthz under overload: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/healthz under overload: status %d", resp.StatusCode)
				return
			}
			probes++
			worstHealth = max(worstHealth, time.Since(t0))
		}
	}()

	var serviced, shed, timeouts, failed, tier0Shed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tier := c % 3 // tiers 0..2, weighted shedding among them
			for i := 0; i < perClient; i++ {
				// A 10ms hold makes in-handler time dominate the round trip,
				// so 64 closed-loop clients genuinely exceed the 16-slot cap.
				body := fmt.Sprintf(`{"proc": %d, "tier": %d, "hold_us": 10000}`, c%procs, tier)
				req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				if i%4 == 0 {
					req.Header.Set(DeadlineHeader, "150ms")
				}
				resp, err := client.Do(req)
				if err != nil {
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
				var ev struct {
					Event  string `json:"event"`
					Cause  string `json:"cause"`
					Reason string `json:"reason"`
				}
				derr := json.NewDecoder(resp.Body).Decode(&ev)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					serviced.Add(1)
				case http.StatusServiceUnavailable:
					if derr != nil {
						t.Errorf("undecodable 503 body: %v", derr)
						return
					}
					if ev.Reason != "" { // an admission shed, not a task failure
						shed.Add(1)
						if resp.Header.Get("Retry-After") == "" {
							t.Errorf("shed response without Retry-After (reason %q)", ev.Reason)
							return
						}
						if ev.Reason == ShedTier && tier == 0 {
							tier0Shed.Add(1)
						}
					} else {
						failed.Add(1) // severed / shard-down: chaos casualties
					}
				case http.StatusGatewayTimeout:
					timeouts.Add(1)
				default:
					t.Errorf("client %d: unexpected status %d (event %+v)", c, resp.StatusCode, ev)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(probeStop)
	<-probeDone
	close(chaosStop)
	<-chaosDone

	// Drain, then close: the documented shutdown order.
	sv.Drain()
	resp, err := client.Post(url, "application/json", strings.NewReader(`{"proc": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain status %d, want 503", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Submitted != st.Serviced+st.Canceled+st.Failed {
		t.Errorf("accounting identity broken at quiescence: submitted=%d serviced=%d canceled=%d failed=%d",
			st.Submitted, st.Serviced, st.Canceled, st.Failed)
	}
	if serviced.Load() == 0 {
		t.Error("no task serviced under overload: the fabric never made progress")
	}
	if shed.Load() == 0 {
		t.Errorf("no request shed at %d clients over %d inflight slots: the admission controller never engaged", clients, maxInfl)
	}
	if tier0Shed.Load() != 0 {
		t.Errorf("%d tier-0 requests tier-shed: tier 0 must shed only at the hard caps", tier0Shed.Load())
	}
	adm := sv.Admission().State()
	if adm.Inflight != 0 || adm.Queued != 0 {
		t.Errorf("admission census not drained: %+v", adm)
	}
	if adm.PeakQueued > maxQueue {
		t.Errorf("peak queue %d exceeded the %d cap", adm.PeakQueued, maxQueue)
	}
	if probes == 0 || worstHealth > healthBound {
		t.Errorf("/healthz answered %d probes under overload, the slowest in %v; want some, all within %v",
			probes, worstHealth, healthBound)
	}
	t.Logf("serviced=%d shed=%d timeouts=%d chaos-failed=%d linkfaults=%d repairs=%d severed=%d peak-queued=%d healthz: %d probes, worst %v",
		serviced.Load(), shed.Load(), timeouts.Load(), failed.Load(), st.LinkFaults, st.Repairs, st.Severed,
		adm.PeakQueued, probes, worstHealth)
}
