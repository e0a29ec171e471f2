package core

import "fmt"

// Collective lowering: multi-endpoint patterns with phase structure,
// flattened onto the paper's circuit model. A collective over k ranks is
// a sequence of phases; within a phase every participating rank transmits
// one chunk concurrently, and the phase must complete before the next
// begins (a barrier). Each phase therefore maps onto one gang: every
// sender needs its circuit at the same time, all-or-nothing, which is
// exactly the atomic-grant contract internal/sched's gangs provide.
//
// The lowering is topology-agnostic — it emits who sends which chunk to
// whom per phase; the scheduler decides which fabric resources realize
// the transfers.

// Collective identifies a supported collective pattern.
type Collective int

const (
	// RingAllReduce reduces k chunks across k ranks and leaves every rank
	// with the full reduced vector: k-1 reduce-scatter phases followed by
	// k-1 allgather phases, 2(k-1) total.
	RingAllReduce Collective = iota
	// RingReduceScatter reduces k chunks across k ranks, leaving each
	// rank with one fully reduced chunk: k-1 phases.
	RingReduceScatter
)

// String names the pattern for reports and logs.
func (c Collective) String() string {
	switch c {
	case RingAllReduce:
		return "ring-allreduce"
	case RingReduceScatter:
		return "reduce-scatter"
	}
	return fmt.Sprintf("collective(%d)", int(c))
}

// Transfer is one rank's transmission within a phase: the chunk it ships
// to the next ring neighbor. From and To index into the rank list, not
// the fabric's processors — callers map ranks to processors.
type Transfer struct {
	From  int // sending rank index
	To    int // receiving rank index
	Chunk int // chunk index being shipped
}

// Phase is the set of transfers that run concurrently between two
// barriers. In the ring patterns every rank sends exactly once and
// receives exactly once per phase.
type Phase []Transfer

// LowerCollective lowers a pattern over k ranks into its phase sequence.
// Ring step t of the reduce-scatter half has rank r send chunk (r-t) mod
// k to rank (r+1) mod k; the allgather half shifts the already-reduced
// chunks around the same ring. Correctness (every rank ends with every
// chunk reduced for RingAllReduce; each chunk fully reduced somewhere for
// RingReduceScatter) is pinned by simulation in the package tests.
//
// The plan is two allocations whatever its length: the phases share one
// backing array of transfers, each capped at its own k, so an append to
// one phase copies it instead of overwriting the next.
func LowerCollective(pattern Collective, k int) ([]Phase, error) {
	if k < 2 {
		return nil, fmt.Errorf("core: a collective needs at least 2 ranks, got %d", k)
	}
	n := k - 1 // the reduce-scatter half: both patterns start with it
	switch pattern {
	case RingReduceScatter:
	case RingAllReduce:
		n *= 2
	default:
		return nil, fmt.Errorf("core: unknown collective pattern %d", int(pattern))
	}
	all := make([]Transfer, n*k)
	phases := make([]Phase, n)
	for t := range phases {
		ph := Phase(all[t*k : (t+1)*k : (t+1)*k])
		// Reduce-scatter step t ships chunk r-t. After that half rank r
		// holds the fully reduced chunk (r+1) mod k, and allgather step
		// a = t-(k-1) ships chunk r+1-a = r-(t-k): each phase rotates the
		// reduced chunks one hop around the ring.
		shift := t
		if t >= k-1 {
			shift = t - k
		}
		for r := range ph {
			ph[r] = Transfer{From: r, To: (r + 1) % k, Chunk: ((r-shift)%k + k) % k}
		}
		phases[t] = ph
	}
	return phases, nil
}
