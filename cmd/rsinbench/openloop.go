package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rsin/internal/sched"
	"rsin/internal/server"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// The open-loop overload harness. The closed-loop bench (runSchedBench's
// 64 clients) self-throttles: a client waits for its previous task, so
// offered load can never exceed service capacity and the overload regime
// stays invisible. Here arrivals are a Poisson process at a configured
// offered rate, independent of completions, driven through the real
// internal/server HTTP front door — so the admission controller, the
// proportional-fair shedder, the deadline header and the Retry-After
// surface are all measured exactly as a remote client would see them.
//
// The sweep first measures the knee (the closed-loop capacity of the
// same server), then offers multiples of it from well under to 2x past,
// recording goodput, latency, shed rate and timeout curves per point.
// The shed gate (run with -openloop) enforces the robustness claims on the curve:
// past the knee the server sheds instead of building an unbounded queue,
// every shed carries Retry-After, tier 0 keeps >= 90% of its knee
// goodput at 2x overload, and the process stays responsive (/healthz
// p99) while overloaded.

// openLoopConfig records the harness shape so the artifact is
// self-describing.
type openLoopConfig struct {
	N              int       `json:"n"`
	MaxInflight    int       `json:"max_inflight"`
	MaxQueue       int       `json:"max_queue"`
	ShedStart      float64   `json:"shed_start"`
	HoldUS         int64     `json:"hold_us"`
	DeadlineMS     int64     `json:"deadline_ms"`
	TierMix        []float64 `json:"tier_mix"` // arrival share per tier, tier 0 first
	ProbeSecs      float64   `json:"probe_seconds"`
	PointSecs      float64   `json:"point_seconds"`
	OutstandingCap int       `json:"outstanding_cap"`
	Seed           int64     `json:"seed"`
}

// openLoopPoint is one offered-rate point of the sweep. Counters are
// exhaustive over arrivals: Offered == Serviced + Shed + Timeouts +
// Failed + Overflow, where Overflow counts arrivals the harness itself
// dropped at its outstanding-request cap (reported, never silent).
// Latency percentiles cover serviced requests only — the goodput's
// latency — and are null when a bin is empty, never a fabricated zero.
type openLoopPoint struct {
	Multiplier  float64 `json:"rate_multiplier"`
	OfferedRate float64 `json:"offered_rate_per_s"`
	Offered     int64   `json:"offered"`
	Serviced    int64   `json:"serviced"`
	Shed        int64   `json:"shed"`
	Timeouts    int64   `json:"timeouts"`
	Failed      int64   `json:"failed"`
	Overflow    int64   `json:"client_overflow"`
	// ShedMissingRetryAfter counts shed responses without a Retry-After
	// header — the contract says every one carries it, so this is 0.
	ShedMissingRetryAfter int64    `json:"shed_missing_retry_after"`
	GoodputPerS           float64  `json:"goodput_per_s"`
	ShedRate              float64  `json:"shed_rate"`
	P50MS                 *float64 `json:"p50_ms"`
	P99MS                 *float64 `json:"p99_ms"`
	Tier0Offered          int64    `json:"tier0_offered"`
	Tier0Serviced         int64    `json:"tier0_serviced"`
	Tier0GoodputPerS      float64  `json:"tier0_goodput_per_s"`
	Tier0P99MS            *float64 `json:"tier0_p99_ms"`
	// HealthP99MS is the /healthz probe latency during the point — the
	// "process stays responsive under overload" signal.
	HealthP99MS *float64 `json:"health_p99_ms"`
	// PeakQueued is the admission controller's high-water queue depth up
	// to the end of this point (cumulative over the sweep); it must never
	// exceed MaxQueue — bounded queues are the whole design.
	PeakQueued int `json:"peak_queued"`
}

// openLoopReport is the v5 `openloop` section of BENCH_sched.json.
type openLoopReport struct {
	Config   openLoopConfig  `json:"config"`
	KneePerS float64         `json:"knee_rate_per_s"`
	Points   []openLoopPoint `json:"points"`
}

// olHarness holds the live server side of the sweep.
type olHarness struct {
	cfg    openLoopConfig
	s      *sched.Scheduler
	sv     *server.Server
	srv    *http.Server
	url    string // POST /v1/tasks
	health string // GET /healthz
	client *http.Client
}

func startOpenLoopHarness(cfg openLoopConfig) (*olHarness, error) {
	s, err := sched.New(sched.Config{Shards: []system.Config{{Net: topology.Omega(cfg.N)}}})
	if err != nil {
		return nil, err
	}
	sv, err := server.New(server.Config{
		Sched: s,
		Admission: server.AdmissionConfig{
			MaxInflight: cfg.MaxInflight, MaxQueue: cfg.MaxQueue,
			ShedStart: cfg.ShedStart, RetryAfter: 100 * time.Millisecond,
		},
	})
	if err != nil {
		s.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	srv := sv.HTTPServer()
	go srv.Serve(ln)
	// HTTP/1.1 with a deep keep-alive pool: the load generator must not
	// bottleneck on connection churn or per-connection stream caps (the
	// h2c path is exercised by the internal/server tests).
	tr := &http.Transport{
		MaxIdleConns: cfg.OutstandingCap, MaxIdleConnsPerHost: cfg.OutstandingCap,
		MaxConnsPerHost: cfg.OutstandingCap,
	}
	return &olHarness{
		cfg: cfg, s: s, sv: sv, srv: srv,
		url:    fmt.Sprintf("http://%s/v1/tasks", ln.Addr()),
		health: fmt.Sprintf("http://%s/healthz", ln.Addr()),
		client: &http.Client{Transport: tr, Timeout: 10 * time.Second},
	}, nil
}

func (h *olHarness) stop() {
	h.srv.Close()
	h.s.Close()
}

// do fires one front-door request and classifies the outcome:
// "serviced", "shed", "shed-no-retry-after", "timeout" or "failed".
// Serviced requests also report their end-to-end latency.
func (h *olHarness) do(tier, proc int) (string, float64) {
	body := fmt.Sprintf(`{"proc": %d, "tier": %d, "hold_us": %d}`, proc, tier, h.cfg.HoldUS)
	req, err := http.NewRequest(http.MethodPost, h.url, strings.NewReader(body))
	if err != nil {
		return "failed", 0
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.DeadlineHeader, fmt.Sprintf("%dms", h.cfg.DeadlineMS))
	t0 := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return "failed", 0
	}
	defer resp.Body.Close()
	var ev struct {
		Reason string `json:"reason"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&ev)
	switch resp.StatusCode {
	case http.StatusOK:
		return "serviced", time.Since(t0).Seconds() * 1e3
	case http.StatusServiceUnavailable:
		if ev.Reason == "" {
			return "failed", 0 // a task failure (severed, shard down), not a shed
		}
		if resp.Header.Get("Retry-After") == "" {
			return "shed-no-retry-after", 0
		}
		return "shed", 0
	case http.StatusGatewayTimeout:
		return "timeout", 0
	default:
		return "failed", 0
	}
}

// measureKnee runs a short closed loop — MaxInflight-bounded concurrency,
// tier 0 so nothing tier-sheds — and returns the serviced rate: the
// capacity knee the open-loop multipliers are anchored to.
func (h *olHarness) measureKnee() (float64, error) {
	clients := 2 * h.cfg.N // enough concurrency to saturate the fabric
	dur := time.Duration(h.cfg.ProbeSecs * float64(time.Second))
	var serviced atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				if out, _ := h.do(0, c%h.cfg.N); out == "serviced" {
					serviced.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	knee := float64(serviced.Load()) / elapsed
	if knee <= 0 {
		return 0, fmt.Errorf("open loop: the capacity probe serviced nothing in %.1fs", elapsed)
	}
	return knee, nil
}

// pickTier samples the arrival tier from the configured mix.
func pickTier(rng *rand.Rand, mix []float64) int {
	u := rng.Float64()
	acc := 0.0
	for tier, share := range mix {
		acc += share
		if u < acc {
			return tier
		}
	}
	return len(mix) - 1
}

// runPoint offers Poisson arrivals at rate for the point duration.
// Pacing is absolute-time: each arrival has a precomputed due instant,
// the generator sleeps until it, and arrivals that fell due while it
// was behind fire immediately as a burst — so the average offered rate
// holds even when sleep granularity is coarser than the gap.
func (h *olHarness) runPoint(mult, rate float64, rng *rand.Rand) openLoopPoint {
	dur := time.Duration(h.cfg.PointSecs * float64(time.Second))
	var serviced, shed, timeouts, failed, overflow, noRetry atomic.Int64
	var tier0Off, tier0Srv atomic.Int64
	var latMu sync.Mutex
	var lat, lat0 []float64

	// Responsiveness probe: /healthz sampled throughout the point.
	healthStop := make(chan struct{})
	var healthLat []float64
	var healthWg sync.WaitGroup
	healthWg.Add(1)
	go func() {
		defer healthWg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-healthStop:
				return
			case <-tick.C:
				t0 := time.Now()
				resp, err := h.client.Get(h.health)
				if err != nil {
					continue
				}
				resp.Body.Close()
				healthLat = append(healthLat, time.Since(t0).Seconds()*1e3)
			}
		}
	}()

	sem := make(chan struct{}, h.cfg.OutstandingCap)
	var wg sync.WaitGroup
	offered := int64(0)
	start := time.Now()
	next := 0.0 // seconds from start to the next arrival
	for i := 0; ; i++ {
		next += rng.ExpFloat64() / rate
		due := time.Duration(next * float64(time.Second))
		if due > dur {
			break
		}
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		offered++
		tier := pickTier(rng, h.cfg.TierMix)
		if tier == 0 {
			tier0Off.Add(1)
		}
		select {
		case sem <- struct{}{}:
		default:
			// The harness's own outstanding cap: count it, never hide it.
			overflow.Add(1)
			continue
		}
		wg.Add(1)
		go func(tier, proc int) {
			defer wg.Done()
			defer func() { <-sem }()
			out, ms := h.do(tier, proc)
			switch out {
			case "serviced":
				serviced.Add(1)
				if tier == 0 {
					tier0Srv.Add(1)
				}
				latMu.Lock()
				lat = append(lat, ms)
				if tier == 0 {
					lat0 = append(lat0, ms)
				}
				latMu.Unlock()
			case "shed":
				shed.Add(1)
			case "shed-no-retry-after":
				shed.Add(1)
				noRetry.Add(1)
			case "timeout":
				timeouts.Add(1)
			default:
				failed.Add(1)
			}
		}(tier, i%h.cfg.N)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	close(healthStop)
	healthWg.Wait()

	return openLoopPoint{
		Multiplier:  mult,
		OfferedRate: rate,
		Offered:     offered,
		Serviced:    serviced.Load(),
		Shed:        shed.Load(),
		Timeouts:    timeouts.Load(),
		Failed:      failed.Load(),
		Overflow:    overflow.Load(),

		ShedMissingRetryAfter: noRetry.Load(),
		GoodputPerS:           float64(serviced.Load()) / elapsed,
		ShedRate:              float64(shed.Load()) / float64(max64(offered, 1)),
		P50MS:                 quantilePtr(lat, 0.50),
		P99MS:                 quantilePtr(lat, 0.99),
		Tier0Offered:          tier0Off.Load(),
		Tier0Serviced:         tier0Srv.Load(),
		Tier0GoodputPerS:      float64(tier0Srv.Load()) / elapsed,
		Tier0P99MS:            quantilePtr(lat0, 0.99),
		HealthP99MS:           quantilePtr(healthLat, 0.99),
		PeakQueued:            h.sv.Admission().State().PeakQueued,
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// runOpenLoop measures the knee, sweeps the rate grid and returns the
// openloop report section.
func runOpenLoop(seed int64, smoke bool) (openLoopReport, error) {
	// The hold time is deliberately long: the knee must come from fabric
	// capacity (N concurrent holds), far below what the CPU can push
	// through the HTTP stack — client, server and scheduler share this
	// process, and an overload of the *machine* would measure the Go
	// runtime's collapse, not the admission controller's discipline.
	cfg := openLoopConfig{
		N: 32, MaxInflight: 128, MaxQueue: 64, ShedStart: 0.5,
		HoldUS: 25000, DeadlineMS: 250,
		TierMix:   []float64{0.2, 0.3, 0.5},
		ProbeSecs: 1.0, PointSecs: 1.5, OutstandingCap: 1024,
		Seed: seed,
	}
	multipliers := []float64{0.5, 0.75, 1.0, 1.25, 1.5, 2.0}
	if smoke {
		cfg.N, cfg.MaxInflight, cfg.MaxQueue = 16, 64, 32
		cfg.HoldUS = 20000
		cfg.ProbeSecs, cfg.PointSecs = 0.4, 0.5
		multipliers = []float64{0.5, 1.0, 2.0}
	}
	h, err := startOpenLoopHarness(cfg)
	if err != nil {
		return openLoopReport{}, err
	}
	defer h.stop()

	knee, err := h.measureKnee()
	if err != nil {
		return openLoopReport{}, err
	}
	rep := openLoopReport{Config: cfg, KneePerS: knee}
	rng := rand.New(rand.NewSource(seed))
	for _, mult := range multipliers {
		p := h.runPoint(mult, mult*knee, rng)
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}

// openLoopFind returns the sweep point at the given multiplier.
func openLoopFind(rep openLoopReport, mult float64) *openLoopPoint {
	for i := range rep.Points {
		if rep.Points[i].Multiplier == mult {
			return &rep.Points[i]
		}
	}
	return nil
}

// gateShedCheck enforces the overload-robustness claims on the sweep
// (the shed gate of the table in sched.go); see the package comment at the top of this
// file for the list.
func gateShedCheck(rep openLoopReport) error {
	knee := openLoopFind(rep, 1.0)
	over := openLoopFind(rep, 2.0)
	if knee == nil || over == nil {
		return fmt.Errorf("the sweep is missing the 1.0x or 2.0x point")
	}
	for _, p := range rep.Points {
		if p.ShedMissingRetryAfter > 0 {
			return fmt.Errorf("%d shed responses at %.2fx carried no Retry-After header",
				p.ShedMissingRetryAfter, p.Multiplier)
		}
		if p.PeakQueued > rep.Config.MaxQueue {
			return fmt.Errorf("peak queue depth %d exceeded the %d cap at %.2fx — the queue is not bounded",
				p.PeakQueued, rep.Config.MaxQueue, p.Multiplier)
		}
		// An arrival the harness dropped at its own outstanding cap never
		// reached the server; a point that sheds mostly client-side did
		// not measure the server at the nominal rate.
		if p.Overflow*4 > p.Offered {
			return fmt.Errorf("the harness dropped %d of %d arrivals at %.2fx (outstanding cap %d) — the offered rate was not delivered",
				p.Overflow, p.Offered, p.Multiplier, rep.Config.OutstandingCap)
		}
	}
	if over.Shed == 0 {
		return fmt.Errorf("no request shed at 2.0x the knee (%.0f/s offered) — the admission controller never engaged",
			over.OfferedRate)
	}
	if knee.Tier0Serviced == 0 {
		return fmt.Errorf("tier 0 serviced nothing at the knee — no baseline to retain")
	}
	if over.Tier0GoodputPerS < 0.9*knee.Tier0GoodputPerS {
		return fmt.Errorf("tier-0 goodput at 2.0x (%.0f/s) fell below 90%% of its knee value (%.0f/s) — the proportional-fair shedder is not protecting tier 0",
			over.Tier0GoodputPerS, knee.Tier0GoodputPerS)
	}
	if over.Tier0P99MS == nil {
		return fmt.Errorf("no admitted tier-0 latency samples at 2.0x — an empty bin must fail the gate, not pass it")
	}
	bound := 2 * float64(rep.Config.DeadlineMS)
	if *over.Tier0P99MS > bound {
		return fmt.Errorf("admitted tier-0 p99 %.1fms at 2.0x exceeds the %.0fms bound — queueing is blowing up past the knee",
			*over.Tier0P99MS, bound)
	}
	if over.HealthP99MS == nil || *over.HealthP99MS > 100 {
		return fmt.Errorf("/healthz p99 %s at 2.0x — the process is not responsive under overload",
			ms(over.HealthP99MS))
	}
	return nil
}
