// Package server is the network front door of the scheduling stack: an
// HTTP/2 (h2c) + JSON serving surface over the batched scheduling
// service (internal/sched), with admission control and load shedding in
// front of Submit so offered load the fabric cannot serve degrades the
// service predictably instead of wedging it.
//
// The closed-loop drivers (cmd/rsinserve's client goroutines, the
// -sched benchmark) self-throttle: a client submits its next task only
// after the previous one completed, so offered load can never exceed
// service capacity and the overload regime is invisible. A real serving
// surface is open-loop — arrivals do not wait for completions — and the
// paper's optimal circuit-granting discipline must survive offered load
// past the knee. This package adds the two missing layers:
//
//   - Admission: every request passes an admission controller before it
//     may consume a scheduler queue slot. Two composable policies decide
//     (see Admission): a hard threshold gate on concurrency and queue
//     depth, and a proportional-fair per-tier shedder that drops the
//     least-urgent priority classes first as the queue fills (tier 0
//     sheds last, and only at the hard limit). Shed requests fail fast
//     with a typed error matching ErrOverload that carries a Retry-After
//     backoff hint; they never touch the scheduler.
//   - Cancellation mapping: the HTTP request context (client disconnect,
//     per-request deadline header) is threaded into Scheduler.SubmitCtx,
//     so an abandoned request withdraws its task and releases the queue
//     slot instead of leaving a zombie to be scheduled.
//
// The shedding design follows the heavy-traffic control policies of
// Budhiraja & Johnson (PAPERS.md): a threshold rule bounds the total
// backlog, and within the bound the queue headroom is divided among the
// priority classes in proportion to their weights — the discrete
// trunk-reservation analogue of their proportional-fair allocation.
package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rsin/internal/obs"
	"rsin/internal/system"
)

// ErrOverload is matched (errors.Is) by every admission rejection. The
// concrete error is an *OverloadError carrying the tier, the policy that
// shed the request and the suggested client backoff.
var ErrOverload = errors.New("server: overload")

// Shed reasons, stable strings for logs, metrics and API responses.
const (
	// ShedInflight: the hard concurrency threshold (MaxInflight) is
	// reached; every tier sheds.
	ShedInflight = "inflight-limit"
	// ShedQueue: the hard queue-depth threshold (MaxQueue) is reached;
	// every tier sheds, tier 0 only ever sheds here.
	ShedQueue = "queue-limit"
	// ShedTier: the proportional-fair shedder dropped the request — the
	// remaining queue headroom is reserved for more urgent tiers.
	ShedTier = "tier-shed"
	// ShedDraining: the server is draining for shutdown; no new work.
	ShedDraining = "draining"
)

// OverloadError is the typed admission rejection.
type OverloadError struct {
	Tier       int           // the shed request's priority class
	Reason     string        // ShedInflight | ShedQueue | ShedTier | ShedDraining
	RetryAfter time.Duration // suggested client backoff before resubmitting
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: overload (%s, tier %d): retry after %v", e.Reason, e.Tier, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverload) match.
func (e *OverloadError) Unwrap() error { return ErrOverload }

// AdmissionConfig parameterizes an Admission controller.
type AdmissionConfig struct {
	// MaxInflight is the hard threshold gate on admitted requests that
	// have not yet reached a terminal state (serviced, canceled, failed).
	// At the limit every tier sheds: the gate bounds handler concurrency
	// and therefore memory, whatever the tier mix. Default 4096.
	MaxInflight int
	// MaxQueue is the hard threshold gate on admitted requests that are
	// not yet provisioned (still queued for a grant). It bounds queue
	// growth absolutely: past it even tier 0 sheds. Default 1024.
	MaxQueue int
	// ShedStart is the queue-depth fraction (of MaxQueue) where the
	// proportional-fair shedder engages. Below it every tier is admitted;
	// above it the remaining headroom is divided among the tiers in
	// proportion to their weights, least urgent shed first. Default 0.5.
	ShedStart float64
	// Weights holds one positive weight per tier, index = tier, most
	// urgent first; its length fixes how many tiers the controller
	// accepts. Defaults to system.TierWeight over all MaxTier+1 classes
	// (strictly decreasing, so the shed order is tier MaxTier first,
	// tier 0 last).
	Weights []int64
	// RetryAfter is the base backoff hint attached to shed requests; the
	// hint scales up to 2x as the queue fills (an overloaded server asks
	// clients to stay away longer). Default 1s.
	RetryAfter time.Duration
	// MaxRetryAfter caps the scaled hint. Without a cap a generous base
	// silently doubled under load into multi-minute backoff headers that
	// well-behaved clients obeyed, parking them long after the overload
	// cleared. Default 30s.
	MaxRetryAfter time.Duration
	// Obs, when non-nil, receives the admission instruments: per-tier
	// shed counters, admitted/shed totals, inflight and queued gauges.
	// Nil disables them (nil-safe no-ops, like the rest of the stack).
	Obs *obs.Registry
}

// Admission is the admission controller: a small amount of synchronized
// state (inflight and queued census, per tier) consulted before every
// Submit. All methods are safe for concurrent use.
//
// Life cycle of one request: Admit returns a *Ticket (or an overload
// error); Grant marks the request provisioned (it leaves the queued
// census); Finish marks it terminal (it leaves the inflight census, and
// the queued census too if it never granted). Finish is idempotent and
// must be called exactly once per admitted request on every path.
type Admission struct {
	cfg AdmissionConfig
	// reserve[k] is the fraction of the total tier weight held by tiers
	// strictly more urgent than k: tier k is shed once the remaining
	// queue headroom falls within that reserved share. reserve[0] == 0 —
	// tier 0 is only ever shed by the hard gates.
	reserve []float64

	mu           sync.Mutex
	inflight     int
	queued       int
	queuedByTier []int
	peakQueued   int // high-water mark, evidence of bounded queue growth

	shedByTier []int64

	// Instruments (nil-safe when cfg.Obs is nil).
	admitted    *obs.Counter
	shedTotal   *obs.Counter
	shedTier    []*obs.Counter
	inflightG   *obs.Gauge
	queuedG     *obs.Gauge
	admissionMS *obs.Histogram
}

// NewAdmission validates the configuration and builds the controller.
func NewAdmission(cfg AdmissionConfig) (*Admission, error) {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4096
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1024
	}
	if cfg.ShedStart == 0 {
		cfg.ShedStart = 0.5
	}
	if cfg.ShedStart < 0 || cfg.ShedStart >= 1 {
		return nil, fmt.Errorf("server: ShedStart %v out of range [0, 1)", cfg.ShedStart)
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 30 * time.Second
	}
	if cfg.Weights == nil {
		cfg.Weights = make([]int64, system.MaxTier+1)
		for t := range cfg.Weights {
			cfg.Weights[t] = system.TierWeight(t)
		}
	}
	var total int64
	for t, w := range cfg.Weights {
		if w <= 0 {
			return nil, fmt.Errorf("server: tier %d weight %d must be positive", t, w)
		}
		total += w
	}
	a := &Admission{
		cfg:          cfg,
		reserve:      make([]float64, len(cfg.Weights)),
		queuedByTier: make([]int, len(cfg.Weights)),
		shedByTier:   make([]int64, len(cfg.Weights)),
		shedTier:     make([]*obs.Counter, len(cfg.Weights)),
	}
	var cum int64
	for t, w := range cfg.Weights {
		a.reserve[t] = float64(cum) / float64(total)
		cum += w
	}
	if reg := cfg.Obs; reg != nil {
		a.admitted = reg.Counter("rsin_server_admitted_total")
		a.shedTotal = reg.Counter("rsin_server_shed_total")
		a.inflightG = reg.Gauge("rsin_server_inflight")
		a.queuedG = reg.Gauge("rsin_server_queued")
		a.admissionMS = reg.Histogram("rsin_server_admission_ms", obs.ExpBuckets(0.001, 2, 16))
		for t := range a.shedTier {
			a.shedTier[t] = reg.Counter(fmt.Sprintf("rsin_server_shed_tier%d_total", t))
		}
	}
	return a, nil
}

// Ticket tracks one admitted request through the controller's census.
type Ticket struct {
	a       *Admission
	tier    int
	granted bool
	done    bool
}

// Admit decides one request. It either returns a Ticket (the request
// entered the inflight and queued census) or an *OverloadError matching
// ErrOverload. The decision is O(1): two threshold comparisons and one
// headroom comparison against the tier's precomputed reserve.
func (a *Admission) Admit(tier int) (*Ticket, error) {
	start := time.Now()
	if tier < 0 || tier >= len(a.cfg.Weights) {
		return nil, fmt.Errorf("server: tier %d out of range [0, %d)", tier, len(a.cfg.Weights))
	}
	a.mu.Lock()
	// Hard threshold gate: concurrency, then queue depth. These bound the
	// backlog for every tier alike — tier 0 sheds here and only here.
	reason := ""
	switch {
	case a.inflight >= a.cfg.MaxInflight:
		reason = ShedInflight
	case a.queued >= a.cfg.MaxQueue:
		reason = ShedQueue
	default:
		// Proportional-fair shedder: past ShedStart the remaining queue
		// headroom h shrinks linearly 1 -> 0; tier k is shed once h falls
		// inside the weight share reserved for the tiers more urgent than
		// it. Least urgent tiers drown first, tier 0 never (reserve 0).
		load := float64(a.queued) / float64(a.cfg.MaxQueue)
		if load >= a.cfg.ShedStart {
			h := (1 - load) / (1 - a.cfg.ShedStart)
			if h <= a.reserve[tier] {
				reason = ShedTier
			}
		}
	}
	if reason != "" {
		a.shedByTier[tier]++
		retry := a.retryAfterLocked()
		a.mu.Unlock()
		a.shedTotal.Inc()
		a.shedTier[tier].Inc()
		a.admissionMS.Observe(time.Since(start).Seconds() * 1e3)
		return nil, &OverloadError{Tier: tier, Reason: reason, RetryAfter: retry}
	}
	a.inflight++
	a.queued++
	a.queuedByTier[tier]++
	if a.queued > a.peakQueued {
		a.peakQueued = a.queued
	}
	a.mu.Unlock()
	a.admitted.Inc()
	a.inflightG.Add(1)
	a.queuedG.Add(1)
	a.admissionMS.Observe(time.Since(start).Seconds() * 1e3)
	return &Ticket{a: a, tier: tier}, nil
}

// retryAfterLocked scales the base backoff hint with the queue fill — an
// emptier queue asks for the base, a full one for twice it — then clamps
// the result to MaxRetryAfter so the header never exiles a client past
// the configured ceiling. Called with a.mu held.
func (a *Admission) retryAfterLocked() time.Duration {
	load := float64(a.queued) / float64(a.cfg.MaxQueue)
	if load > 1 {
		load = 1
	}
	d := time.Duration(float64(a.cfg.RetryAfter) * (1 + load))
	if d > a.cfg.MaxRetryAfter {
		d = a.cfg.MaxRetryAfter
	}
	return d
}

// RetryAfter reports the current backoff hint (used by the drain path,
// which sheds without consulting Admit).
func (a *Admission) RetryAfter() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retryAfterLocked()
}

// Grant marks the ticket's request provisioned: it leaves the queued
// census but stays inflight until Finish.
func (t *Ticket) Grant() {
	if t == nil || t.granted || t.done {
		return
	}
	t.granted = true
	t.a.mu.Lock()
	t.a.queued--
	t.a.queuedByTier[t.tier]--
	t.a.mu.Unlock()
	t.a.queuedG.Add(-1)
}

// Finish marks the ticket's request terminal, releasing its inflight
// slot (and its queue slot, if it never granted). Idempotent.
func (t *Ticket) Finish() {
	if t == nil || t.done {
		return
	}
	t.done = true
	t.a.mu.Lock()
	t.a.inflight--
	if !t.granted {
		t.a.queued--
		t.a.queuedByTier[t.tier]--
	}
	t.a.mu.Unlock()
	t.a.inflightG.Add(-1)
	if !t.granted {
		t.a.queuedG.Add(-1)
	}
}

// AdmissionState is a consistent snapshot of the controller's census,
// served by /healthz and recorded by the open-loop benchmark.
type AdmissionState struct {
	Inflight    int     `json:"inflight"`
	Queued      int     `json:"queued"`
	PeakQueued  int     `json:"peak_queued"`
	MaxInflight int     `json:"max_inflight"`
	MaxQueue    int     `json:"max_queue"`
	ShedStart   float64 `json:"shed_start"`
	ShedByTier  []int64 `json:"shed_by_tier"`
}

// State snapshots the census under the controller's lock.
func (a *Admission) State() AdmissionState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionState{
		Inflight:    a.inflight,
		Queued:      a.queued,
		PeakQueued:  a.peakQueued,
		MaxInflight: a.cfg.MaxInflight,
		MaxQueue:    a.cfg.MaxQueue,
		ShedStart:   a.cfg.ShedStart,
		ShedByTier:  append([]int64(nil), a.shedByTier...),
	}
}
