// Package queueing provides the classical analytic models used to sanity
// check the discrete-event simulation: Erlang-B (circuit-switched loss),
// server utilization and Patel's acceptance recurrence. The performance
// studies the paper builds on ([19], [29], [30], [39]) analyze
// resource-sharing hardware with exactly these tools; here they validate
// internal/sim at operating points where the RSIN itself is not the
// bottleneck.
package queueing

import (
	"fmt"
	"math"
)

// ErlangB returns the blocking probability of an M/M/c/c loss system
// offered `a` Erlangs (a = lambda / mu) on c servers, via the numerically
// stable recurrence B(0)=1, B(k) = a B(k-1) / (k + a B(k-1)).
func ErlangB(c int, a float64) float64 {
	if c < 0 || a < 0 {
		panic(fmt.Sprintf("queueing.ErlangB: c=%d a=%v", c, a))
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// PatelAcceptance returns the probability that a request is accepted by an
// unbuffered delta network of b x b crossbars and `stages` stages under
// independent uniform random destinations, per Patel's classic analysis
// [37]: the per-stage recurrence p_{i+1} = 1 - (1 - p_i/b)^b, with the
// acceptance ratio p_stages / p_0. This is the analytic counterpart of the
// address-mapping heuristic's conflicts, used to validate the simulators.
func PatelAcceptance(b, stages int, p float64) float64 {
	if b < 2 || stages < 1 || p < 0 || p > 1 {
		panic(fmt.Sprintf("queueing.PatelAcceptance: b=%d stages=%d p=%v", b, stages, p))
	}
	pi := p
	for s := 0; s < stages; s++ {
		pi = 1 - math.Pow(1-pi/float64(b), float64(b))
	}
	if p == 0 {
		return 1
	}
	return pi / p
}

// Utilization returns the server utilization lambda/(c*mu), clamped to 1.
func Utilization(c int, lambda, mu float64) float64 {
	if c <= 0 || mu <= 0 {
		panic("queueing.Utilization: bad parameters")
	}
	u := lambda / (float64(c) * mu)
	if u > 1 {
		return 1
	}
	return u
}
