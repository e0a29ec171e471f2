package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
)

// Snapshot is a consistent-enough copy of every instrument in a registry
// for JSON export: each counter, gauge and histogram is copied atomically
// (per instrument; the set is not one global instant — see
// sched.Scheduler.Stats for the same cross-instrument contract).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every instrument and adds what the registered collectors
// emit (see Collect). A nil registry yields empty maps.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	collectors := r.collectors // append-only: the captured length stays valid unlocked
	r.mu.Unlock()
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range hists {
		s.Histograms[n] = h.Snapshot()
	}
	for _, collect := range collectors {
		collect(func(name string, gauge bool, v int64) {
			if gauge {
				s.Gauges[name] += v
			} else {
				s.Counters[name] += v
			}
		})
	}
	return s
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (version 0.0.4), names sorted for deterministic
// output. Histograms render cumulative _bucket{le=...} series plus _sum
// and _count, matching the convention scrapers expect.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	bw := bufio.NewWriter(w)
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum)
		}
		if len(h.Counts) > 0 {
			cum += h.Counts[len(h.Counts)-1]
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(bw, "%s_sum %s\n", name, formatFloat(h.Mean*float64(h.N)))
		fmt.Fprintf(bw, "%s_count %d\n", name, h.N)
	}
	return bw.Flush()
}

// formatFloat renders a float the way Prometheus expects: no exponent for
// ordinary magnitudes, no trailing zeros.
func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
