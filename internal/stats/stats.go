// Package stats provides the small statistical toolkit used by the
// simulation and benchmark harnesses: running accumulators, confidence
// intervals and quantiles, all deterministic and allocation-light.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator collects samples and reports summary statistics. The zero
// value is ready to use.
type Accumulator struct {
	n          int
	sum, sumSq float64
	min, max   float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 || x < a.min {
		a.min = x
	}
	if a.n == 0 || x > a.max {
		a.max = x
	}
	a.n++
	a.sum += x
	a.sumSq += x * x
}

// N reports the sample count.
func (a *Accumulator) N() int { return a.n }

// Mean reports the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Variance reports the unbiased sample variance (0 for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	m := a.Mean()
	v := (a.sumSq - float64(a.n)*m*m) / float64(a.n-1)
	if v < 0 {
		return 0 // numerical noise
	}
	return v
}

// StdDev reports the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr reports the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 reports the half-width of the 95% normal confidence interval of the
// mean.
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// Min and Max report the sample extremes (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max reports the largest sample seen.
func (a *Accumulator) Max() float64 { return a.max }

// String renders "mean ± ci95 (n=N)".
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", a.Mean(), a.CI95(), a.n)
}

// Percentiles returns the qs-quantiles of a sample slice in one pass over
// a single sorted copy — the latency-report shape (p50/p90/p99/...) the
// load harnesses print. NaN samples are dropped first (see Quantile for
// the full convention).
func Percentiles(samples []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	s := sortedFinite(samples)
	if len(s) == 0 {
		return out
	}
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

// Quantile returns the q-quantile of a sample slice; the slice is not
// modified. The convention, pinned by TestQuantileConvention:
//
//   - linear interpolation between order statistics at rank q*(n-1)
//     (the "R-7" / numpy-default rule), so a single-element slice
//     returns that element for every q;
//   - q <= 0 returns the minimum, q >= 1 the maximum (clamped, never an
//     index panic); a NaN q returns NaN;
//   - NaN samples are dropped before ranking — they carry no order
//     information, and letting them through would poison neighboring
//     quantiles via sort.Float64s's unspecified NaN placement. An empty
//     or all-NaN slice returns 0 (the harnesses' "no data" value).
func Quantile(samples []float64, q float64) float64 {
	s := sortedFinite(samples)
	if len(s) == 0 {
		return 0
	}
	return quantileSorted(s, q)
}

// sortedFinite copies samples without NaNs and sorts the copy.
func sortedFinite(samples []float64) []float64 {
	s := make([]float64, 0, len(samples))
	for _, x := range samples {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates the q-quantile of an already-sorted,
// NaN-free, non-empty slice.
func quantileSorted(s []float64, q float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}
