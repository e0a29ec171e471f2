package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"rsin/internal/stats"
)

// cpuNow reports the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocsNow reports runtime.MemStats.Mallocs. It stops the world, so it
// is read at window edges only.
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapInuseMB samples the in-use heap without stopping the world.
func heapInuseMB() float64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()+s[1].Value.Uint64()) / (1 << 20)
}

// watchHeap samples the in-use heap four times a second until the
// returned stop is called; stop reports the peak in MB.
func watchHeap() (stop func() float64) {
	quit, done := make(chan struct{}), make(chan struct{})
	peak := 0.0
	go func() {
		defer close(done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				peak = max(peak, heapInuseMB())
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		return peak
	}
}

// usage is a counter snapshot at a window edge.
type usage struct {
	cpu     time.Duration
	mallocs uint64
}

func usageNow() usage { return usage{cpu: cpuNow(), mallocs: mallocsNow()} }

// quantile reads the q-quantile of ascending-sorted samples by nearest
// rank; 0 when there are none.
func quantile(sorted []float32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// topPercentile reports the highest of p50, p90, p99, p99.9, p99.99 that
// still has at least ten samples beyond it, or 0 when even the median has
// fewer.
func topPercentile(n int) float64 {
	top := 0.0
	for _, q := range []float64{0.50, 0.90, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-q) >= 10-1e-6 {
			top = q
		}
	}
	return top
}

// series holds timed samples: a value (milliseconds or microseconds) and
// the offset from the run's start, in seconds, at which it completed.
type series struct {
	v  []float32
	at []float32
}

func (s *series) add(v float64, at time.Duration) {
	s.v = append(s.v, float32(v))
	s.at = append(s.at, float32(at.Seconds()))
}

// window returns the sorted values completed in [from, to).
func (s *series) window(from, to time.Duration) []float32 {
	return cut([]*series{s}, from, to, to-from).all
}

// sliced is a set of series cut into the slices of a measured window:
// each slice's values sorted, and all of them sorted together.
type sliced struct {
	per   [][]float32
	spans []time.Duration
	all   []float32
}

// cut buckets the samples completed in [from, to) into slices of the given
// length. A last slice shorter than the rest is left out of per (its
// samples still count in all), unless it is the only one.
func cut(ss []*series, from, to, slice time.Duration) sliced {
	n := int((to - from + slice - 1) / slice)
	var c sliced
	c.per = make([][]float32, n)
	lo, hi, w := float32(from.Seconds()), float32(to.Seconds()), float32(slice.Seconds())
	for _, s := range ss {
		for i, at := range s.at {
			if at >= lo && at < hi {
				k := min(int((at-lo)/w), n-1)
				c.per[k] = append(c.per[k], s.v[i])
			}
		}
	}
	for k := range c.per {
		slices.Sort(c.per[k])
		c.all = append(c.all, c.per[k]...)
		c.spans = append(c.spans, min(slice, to-from-time.Duration(k)*slice))
	}
	slices.Sort(c.all)
	if n > 1 && c.spans[n-1] < slice {
		c.per, c.spans = c.per[:n-1], c.spans[:n-1]
	}
	return c
}

// over applies stat to every slice and returns the decile of the results
// on the better side: the upper one where higher is better, the lower one
// otherwise. What disturbs a slice on a shared box — a vCPU descheduled by
// the host, a neighbour on the core's other thread — only ever slows it,
// so the slow slices say more about the box than about the program. Over
// ten runs the spread between runs fell the further up the statistic sat
// — worse quartile, median, better quartile, better decile of 1 s slices:
// 13, 9, 5, 4% on untyped_sparse and 18, 15, 13, 11% on tiered_faults
// (30, 26, 20, 12% and 49, 33, 20, 15% while the vCPUs still halted).
func (c sliced) over(stat func(sorted []float32, span time.Duration) float64, higherIsBetter bool) float64 {
	per := make([]float64, len(c.per))
	for k := range c.per {
		per[k] = stat(c.per[k], c.spans[k])
	}
	if higherIsBetter {
		return stats.Quantile(per, 0.9)
	}
	return stats.Quantile(per, 0.1)
}
