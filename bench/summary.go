package main

import (
	"time"

	"rsin/internal/sched"
)

// topStats is a top-depth run reduced to the numbers the metric tables
// name. Rates and percentiles are the better decile over the window's
// slices; CPU and allocation figures are window totals over operations
// attempted.
type topStats struct {
	attempted, serviced int64
	window              time.Duration

	tasksPerS, tier0PerS float64
	p50, p99, tier0P99   float64
	cpuUS, allocs        float64
	servicedShare        float64
	deadlineMet          float64

	// Whole-window tail: the highest percentile with at least ten samples
	// beyond it, its value, and the sample count behind every latency.
	topPct, topMS float64
	samples       int

	peakMB float64
	conns  int64
	stats  sched.Stats // counter deltas over the window
}

func pct(q float64) func([]float32, time.Duration) float64 {
	return func(sorted []float32, _ time.Duration) float64 { return quantile(sorted, q) }
}

func perSecond(sorted []float32, span time.Duration) float64 {
	n := 0
	for _, v := range sorted {
		if v > 0 {
			n++
		}
	}
	return float64(n) / span.Seconds()
}

// summarize reduces a closed-loop run.
func summarize(out *runOut) topStats {
	var ops, lat, ops0, lat0 []*series
	for _, cl := range out.clients {
		ops, lat = append(ops, &cl.ops), append(lat, &cl.lat)
		if cl.gen.tier() == 0 {
			ops0, lat0 = append(ops0, &cl.ops), append(lat0, &cl.lat)
		}
	}
	t := topStats{window: out.to - out.from, peakMB: out.peakMB, conns: out.conns, stats: statsDelta(out.st0, out.st1)}
	slice := min(sliceLen, t.window)
	cOps, cLat := cut(ops, out.from, out.to, slice), cut(lat, out.from, out.to, slice)
	cOps0, cLat0 := cOps, cLat
	if len(ops0) != len(ops) {
		cOps0, cLat0 = cut(ops0, out.from, out.to, slice), cut(lat0, out.from, out.to, slice)
	}
	t.attempted = int64(len(cOps.all))
	for _, v := range cOps.all {
		if v > 0 {
			t.serviced++
		}
	}
	t.tasksPerS, t.tier0PerS = cOps.over(perSecond, true), cOps0.over(perSecond, true)
	t.p50, t.p99, t.tier0P99 = cLat.over(pct(0.50), false), cLat.over(pct(0.99), false), cLat0.over(pct(0.99), false)
	if t.attempted > 0 {
		t.cpuUS = float64(out.u1.cpu-out.u0.cpu) / 1e3 / float64(t.attempted)
		t.allocs = float64(out.u1.mallocs-out.u0.mallocs) / float64(t.attempted)
		t.servicedShare = float64(t.serviced) / float64(t.attempted)
	}
	t.deadlineMet = 1 // closed loops set no deadline
	t.samples = len(cLat.all)
	t.topPct = topPercentile(t.samples)
	t.topMS = quantile(cLat.all, t.topPct)
	return t
}

// statsDelta subtracts the monotone counters the metric tables use.
func statsDelta(a, b sched.Stats) sched.Stats {
	d := b
	d.Submitted -= a.Submitted
	d.Granted -= a.Granted
	d.Serviced -= a.Serviced
	d.Epochs -= a.Epochs
	d.Cycles -= a.Cycles
	d.Deferred -= a.Deferred
	d.Failed -= a.Failed
	d.Restarts -= a.Restarts
	d.LinkFaults -= a.LinkFaults
	d.Severed -= a.Severed
	d.Repairs -= a.Repairs
	d.Preempts -= a.Preempts
	d.GangsSubmitted -= a.GangsSubmitted
	d.GangsServiced -= a.GangsServiced
	d.ColdSolves -= a.ColdSolves
	d.WarmSolves -= a.WarmSolves
	d.MultiFastPath -= a.MultiFastPath
	d.MultiGreedy -= a.MultiGreedy
	d.MultiGapUnits -= a.MultiGapUnits
	return d
}

// endToEndValues maps a top-depth run onto the end-to-end metric names.
func (t topStats) endToEndValues() map[string]float64 {
	return map[string]float64{
		"tasks_per_s":         t.tasksPerS,
		"lat_p50_ms":          t.p50,
		"cpu_us_per_task":     t.cpuUS,
		"allocs_per_task":     t.allocs,
		"serviced_share":      t.servicedShare,
		"goodput_per_s":       t.tasksPerS,
		"tier0_goodput_per_s": t.tier0PerS,
		"deadline_met_share":  t.deadlineMet,
	}
}

// tailValues maps a top-depth run onto the ungated tail.* names.
func (t topStats) tailValues() map[string]float64 {
	return map[string]float64{
		"tail.p99_ms":       t.p99,
		"tail.tier0_p99_ms": t.tier0P99,
		"tail.due_p99_ms":   t.p99, // a closed loop's request is due when it is issued
		"tail.top_pct":      100 * t.topPct,
		"tail.top_ms":       t.topMS,
		"tail.samples":      float64(t.samples),
		"tail.fail_share":   1 - t.servicedShare,
		"proc.peak_heap_mb": t.peakMB,
		"gen.connections":   float64(t.conns),
	}
}
