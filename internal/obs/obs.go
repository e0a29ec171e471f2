// Package obs is the dependency-free observability layer of the
// scheduling stack: atomic counters and gauges, latency histograms backed
// by stats.Accumulator, and a fixed-capacity ring buffer of scheduling
// trace events. It exists so the production-tier services (internal/sched,
// internal/system, internal/token) can expose solver cost, queue churn and
// grant latency without taking a dependency outside the repository.
//
// Every type is nil-safe: methods on a nil *Counter, *Gauge, *Histogram,
// *Trace or *Registry are no-ops (or return zero values), so an
// instrumented package resolves its instruments once at construction —
// nil when observability is disabled — and the hot path pays only an
// untaken branch, with zero additional allocations. TestNilInstruments
// pins that contract with testing.AllocsPerRun.
//
// Exporting is pull-based: Registry.WritePrometheus renders the classic
// text exposition format, Registry.Snapshot returns a JSON-marshalable
// copy, and Handler serves both plus the trace and net/http/pprof over
// HTTP (the rsinserve -http ops endpoint).
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rsin/internal/stats"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n < 0 is ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value reports the current count (0 on a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value; unlike a Counter it may move in
// both directions.
type Gauge struct{ v atomic.Int64 }

// Add moves the value by delta (either sign).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reports the current value (0 on a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into buckets with fixed upper bounds
// (Prometheus "le" semantics: bucket i holds x <= Bounds[i]; one implicit
// overflow bucket past the last bound) and carries a stats.Accumulator for
// the mean/min/max/stddev of the same stream. Observe is mutex-protected
// and allocation-free.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; last is the overflow bucket
	acc    stats.Accumulator
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs.NewHistogram: at least one bucket bound is required")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs.NewHistogram: bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// ExpBuckets returns n exponential bucket bounds start, start*factor, ...
// — the latency-histogram shape (e.g. ExpBuckets(0.01, 2, 18) spans 10µs
// to ~1.3s in milliseconds).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic(fmt.Sprintf("obs.ExpBuckets(%v, %v, %d): need start > 0, factor > 1, n > 0", start, factor, n))
	}
	b := make([]float64, n)
	x := start
	for i := range b {
		b[i] = x
		x *= factor
	}
	return b
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.counts[sort.SearchFloat64s(h.bounds, x)]++
	h.acc.Add(x)
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"` // bucket upper bounds; +Inf implicit
	Counts []int64   `json:"counts"` // per-bucket counts; last is overflow
	N      int       `json:"n"`
	Mean   float64   `json:"mean"`
	StdDev float64   `json:"stddev"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Snapshot copies the histogram state under its lock. A nil Histogram
// yields a zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		N:      h.acc.N(),
		Mean:   h.acc.Mean(),
		StdDev: h.acc.StdDev(),
		Min:    h.acc.Min(),
		Max:    h.acc.Max(),
	}
}

// Registry is a named collection of instruments plus one trace ring. The
// get-or-create accessors are for construction time, not hot paths:
// resolve instruments once and keep the pointers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	trace    *Trace
	// collectors run at every Snapshot; see Collect.
	collectors []func(emit func(name string, gauge bool, v int64))
}

// defaultTraceCap bounds the trace ring of NewRegistry; at production
// event rates it holds the last few scheduling epochs — enough to see what
// the service was deciding when an alert fired, small enough to pin.
const defaultTraceCap = 2048

// NewRegistry returns an empty registry with a trace ring of the default
// capacity.
func NewRegistry() *Registry { return NewRegistryTrace(defaultTraceCap) }

// NewRegistryTrace returns an empty registry with a trace ring of the
// given capacity (0 disables tracing: Trace() returns nil).
func NewRegistryTrace(traceCap int) *Registry {
	r := &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
	if traceCap > 0 {
		r.trace = NewTrace(traceCap)
	}
	return r
}

// Counter returns the named counter, creating it on first use. Nil
// registries return a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later callers get the existing histogram, whatever
// its bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Collect registers a scrape-time source: fn runs at every Snapshot (and so
// every WritePrometheus) and emits counter or gauge values computed on the
// spot, for an owner that already keeps the numbers and would otherwise
// push a second copy of each. Values emitted under one name add up, across
// collectors and onto a stored instrument of that name. fn runs outside the
// registry lock and must be safe to call from any goroutine. No-op on a nil
// registry.
func (r *Registry) Collect(fn func(emit func(name string, gauge bool, v int64))) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Trace returns the registry's event ring (nil on a nil registry or when
// tracing is disabled).
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}
