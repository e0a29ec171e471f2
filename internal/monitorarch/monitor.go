// Package monitorarch models the centralized monitor architecture of §IV
// (Fig. 6): a dedicated monitor maintains the status of the interconnection
// network and the resources; on each scheduling cycle it builds the flow
// network (Transformation 1), derives the optimal request-resource mapping
// with a software flow algorithm, then acknowledges requesting processors,
// notifies allocated resources and establishes the paths.
//
// "The implementation is sequential, and the overhead is measured by the
// number of instructions executed in the algorithm." The Cost model assigns
// an instruction count to each primitive operation; experiment E10 compares
// the resulting totals against the distributed architecture's clock-period
// counts.
package monitorarch

import (
	"fmt"

	"rsin/internal/core"
	"rsin/internal/maxflow"
	"rsin/internal/topology"
)

// Algorithm selects the software max-flow algorithm the monitor runs.
type Algorithm int

const (
	Dinic Algorithm = iota
	FordFulkerson
	EdmondsKarp
)

func (a Algorithm) String() string {
	switch a {
	case Dinic:
		return "dinic"
	case FordFulkerson:
		return "ford-fulkerson"
	case EdmondsKarp:
		return "edmonds-karp"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Cost maps primitive operations to instruction counts. The defaults are
// deliberately conservative toward the monitor (a handful of RISC-like
// instructions per elementary step); even so the token architecture wins by
// orders of magnitude because its unit cost is one gate-limited clock
// period.
type Cost struct {
	PerTransformLink int // building one arc of the flow network
	PerArcScan       int // examining one residual arc
	PerNodeVisit     int // queue/stack handling per node
	PerAugmentation  int // bookkeeping per augmenting path
	PerAcknowledge   int // message to a processor/resource + path setup
}

// DefaultCost is a representative instruction cost assignment.
var DefaultCost = Cost{
	PerTransformLink: 6,
	PerArcScan:       4,
	PerNodeVisit:     8,
	PerAugmentation:  20,
	PerAcknowledge:   50,
}

// Result is the outcome of one monitor scheduling cycle.
type Result struct {
	Mapping      *core.Mapping
	Instructions int64 // modeled instruction count for the whole cycle
}

// Schedule runs one scheduling cycle on the monitor architecture: it
// snapshots the network state, solves the max-flow scheduling problem with
// the chosen algorithm, and accounts the executed instructions.
func Schedule(net *topology.Network, reqs []core.Request, avail []core.Avail, alg Algorithm, cost *Cost) (*Result, error) {
	if cost == nil {
		c := DefaultCost
		cost = &c
	}
	tr := core.Transform1(net, reqs, avail)
	var fr maxflow.Result
	switch alg {
	case Dinic:
		fr = maxflow.Dinic(tr.G)
	case FordFulkerson:
		fr = maxflow.FordFulkerson(tr.G)
	case EdmondsKarp:
		fr = maxflow.EdmondsKarp(tr.G)
	default:
		return nil, fmt.Errorf("monitorarch: unknown algorithm %v", alg)
	}
	m, err := tr.MappingFromFlow()
	if err != nil {
		return nil, err
	}
	m.Ops = core.OpCounts{
		Augmentations: fr.Ops.Augmentations,
		Phases:        fr.Ops.Phases,
		ArcScans:      fr.Ops.ArcScans,
		NodeVisits:    fr.Ops.NodeVisits,
	}
	instr := int64(len(tr.G.Arcs)) * int64(cost.PerTransformLink)
	instr += int64(fr.Ops.ArcScans) * int64(cost.PerArcScan)
	instr += int64(fr.Ops.NodeVisits) * int64(cost.PerNodeVisit)
	instr += int64(fr.Ops.Augmentations) * int64(cost.PerAugmentation)
	instr += int64(len(m.Assigned)) * int64(cost.PerAcknowledge)
	return &Result{Mapping: m, Instructions: instr}, nil
}
