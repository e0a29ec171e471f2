package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(a.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v", a.Variance())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
	if !strings.Contains(a.String(), "n=8") {
		t.Fatalf("String: %s", a.String())
	}
}

func TestAccumulatorSingleSample(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if a.Variance() != 0 || a.CI95() != 0 {
		t.Fatal("single sample should have zero spread")
	}
	if a.Min() != 3 || a.Max() != 3 {
		t.Fatal("extremes wrong")
	}
}

func TestQuickVarianceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		var a Accumulator
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Scale down to avoid float overflow in sumSq.
			a.Add(math.Mod(x, 1e6))
		}
		return a.Variance() >= 0 && a.StdErr() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Quantile sorted the caller's slice")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Fatalf("interpolated median = %v, want 5", got)
	}
}

func TestPercentiles(t *testing.T) {
	var samples []float64
	for i := 100; i >= 1; i-- {
		samples = append(samples, float64(i))
	}
	got := Percentiles(samples, 0, 0.5, 0.99, 1)
	want := []float64{
		Quantile(samples, 0),
		Quantile(samples, 0.5),
		Quantile(samples, 0.99),
		Quantile(samples, 1),
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("percentile %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if got[0] != 1 || got[3] != 100 {
		t.Fatalf("extremes wrong: %v", got)
	}
	if empty := Percentiles(nil, 0.5, 0.9); empty[0] != 0 || empty[1] != 0 {
		t.Fatalf("empty input: %v", empty)
	}
}

// TestQuantileConvention pins the interpolation convention and its edge
// cases in one table: R-7 linear interpolation at rank q*(n-1), q
// clamped to [0,1], single-element slices constant in q, and NaN
// samples dropped before ranking.
func TestQuantileConvention(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name    string
		samples []float64
		q       float64
		want    float64
	}{
		{"q0 is min", []float64{3, 1, 2}, 0, 1},
		{"q1 is max", []float64{3, 1, 2}, 1, 3},
		{"q below 0 clamps", []float64{3, 1, 2}, -0.5, 1},
		{"q above 1 clamps", []float64{3, 1, 2}, 1.5, 3},
		{"median of even n interpolates", []float64{1, 2, 3, 4}, 0.5, 2.5},
		{"R-7 rank: q*(n-1)", []float64{10, 20, 30, 40, 50}, 0.25, 20},
		{"interpolated rank", []float64{0, 10}, 0.75, 7.5},
		{"single element, q=0", []float64{7}, 0, 7},
		{"single element, q=0.5", []float64{7}, 0.5, 7},
		{"single element, q=1", []float64{7}, 1, 7},
		{"NaN samples dropped", []float64{nan, 1, nan, 3}, 0.5, 2},
		{"NaN dropped at extremes", []float64{nan, 5, nan}, 1, 5},
		{"empty returns 0", nil, 0.5, 0},
		{"all NaN returns 0", []float64{nan, nan}, 0.5, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Quantile(c.samples, c.q); got != c.want {
				t.Fatalf("Quantile(%v, %v) = %v, want %v", c.samples, c.q, got, c.want)
			}
		})
	}
	if got := Quantile([]float64{1, 2}, nan); !math.IsNaN(got) {
		t.Fatalf("Quantile with NaN q = %v, want NaN", got)
	}
	// Percentiles shares the same convention, including the NaN drop.
	ps := Percentiles([]float64{nan, 4, 2, nan}, 0, 0.5, 1)
	if ps[0] != 2 || ps[1] != 3 || ps[2] != 4 {
		t.Fatalf("Percentiles = %v, want [2 3 4]", ps)
	}
	// Inputs must never be mutated (both copy before sorting).
	in := []float64{3, 1, 2}
	_ = Quantile(in, 0.5)
	_ = Percentiles(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}
