// Package mincost implements minimum-cost flow, the engine behind
// Transformation 2 (§III-C): scheduling with request priorities and resource
// preferences reduces to advancing a fixed amount of flow F0 from source to
// sink at minimum total cost.
//
// Two independent algorithms are provided and cross-checked in tests:
//
//   - SuccessiveShortestPaths: repeatedly augment along a cheapest residual
//     s-t path (Bellman-Ford, so negative residual costs are handled).
//   - OutOfKilter: Fulkerson's out-of-kilter method [18], the algorithm the
//     paper cites via Edmonds & Karp [13]; it maintains node potentials and
//     restores complementary-slackness ("kilter") conditions arc by arc. For
//     0-1 capacity networks its time bound is O(|V| |E|^2), the figure
//     quoted in §III-C.
//
// Both write the optimal assignment into graph.Arc.Flow.
package mincost

import (
	"errors"
	"fmt"

	"rsin/internal/graph"
)

// ErrInfeasible reports that the requested flow value exceeds the network's
// maximum flow.
var ErrInfeasible = errors.New("mincost: requested flow value is infeasible")

// Counters records primitive-operation counts for the monitor cost model.
type Counters struct {
	Augmentations    int // augmenting paths or cycles advanced
	ArcScans         int // residual arcs examined
	NodeVisits       int // nodes labeled or dequeued
	PotentialUpdates int // dual (node-potential) adjustments (out-of-kilter)
}

// Result is the outcome of a min-cost flow computation.
type Result struct {
	Value int64 // flow advanced from source to sink
	Cost  int64 // total cost sum of w(e) f(e)
	Ops   Counters
}

const inf = int64(1) << 62

// SuccessiveShortestPaths finds the minimum-cost flow of value exactly
// target. It starts from a zero assignment (any existing flow is reset).
// If the maximum flow is smaller than target it returns ErrInfeasible,
// leaving the (maximal, cheapest) partial assignment in place.
func SuccessiveShortestPaths(g *graph.Network, target int64) (Result, error) {
	g.ResetFlow()
	var res Result

	n := g.NumNodes()
	// Paired residual arcs: 2i forward, 2i+1 backward.
	m := len(g.Arcs)
	to := make([]int, 2*m)
	cp := make([]int64, 2*m)
	cost := make([]int64, 2*m)
	head := make([][]int32, n)
	for i := range g.Arcs {
		a := &g.Arcs[i]
		to[2*i], cp[2*i], cost[2*i] = a.To, a.Cap, a.Cost
		to[2*i+1], cp[2*i+1], cost[2*i+1] = a.From, 0, -a.Cost
		head[a.From] = append(head[a.From], int32(2*i))
		head[a.To] = append(head[a.To], int32(2*i+1))
	}

	dist := make([]int64, n)
	inQueue := make([]bool, n)
	prevArc := make([]int, n)

	for res.Value < target {
		// Bellman-Ford (SPFA) shortest path s->t on residual costs.
		for i := range dist {
			dist[i] = inf
			prevArc[i] = -1
			inQueue[i] = false
		}
		dist[g.Source] = 0
		queue := []int{g.Source}
		inQueue[g.Source] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			inQueue[v] = false
			res.Ops.NodeVisits++
			for _, id := range head[v] {
				res.Ops.ArcScans++
				w := to[id]
				if cp[id] > 0 && dist[v]+cost[id] < dist[w] {
					dist[w] = dist[v] + cost[id]
					prevArc[w] = int(id)
					if !inQueue[w] {
						inQueue[w] = true
						queue = append(queue, w)
					}
				}
			}
		}
		if dist[g.Sink] >= inf {
			writeBackFlows(g, cp)
			return res, fmt.Errorf("%w: advanced %d of %d", ErrInfeasible, res.Value, target)
		}
		amt := target - res.Value
		for v := g.Sink; v != g.Source; {
			id := prevArc[v]
			if cp[id] < amt {
				amt = cp[id]
			}
			v = to[id^1]
		}
		for v := g.Sink; v != g.Source; {
			id := prevArc[v]
			cp[id] -= amt
			cp[id^1] += amt
			v = to[id^1]
		}
		res.Value += amt
		res.Cost += amt * dist[g.Sink]
		res.Ops.Augmentations++
	}
	writeBackFlows(g, cp)
	return res, nil
}

// writeBackFlows converts paired residual capacities into Arc.Flow values.
func writeBackFlows(g *graph.Network, cp []int64) {
	for i := range g.Arcs {
		g.Arcs[i].Flow = cp[2*i+1]
	}
}
