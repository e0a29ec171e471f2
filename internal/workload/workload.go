// Package workload generates the synthetic request/availability ensembles
// driving the experiments: Bernoulli request and free-resource patterns
// (the ensemble behind the paper's blocking-probability figures), hot-spot
// variants, priority/preference and type assignment, and random
// pre-occupation of the network by established circuits.
//
// Every generator takes an explicit *rand.Rand so experiments are exactly
// reproducible from a seed.
package workload

import (
	"math/rand"

	"rsin/internal/core"
	"rsin/internal/topology"
)

// Pattern is one scheduling-cycle input: the requests pending and the
// resources free.
type Pattern struct {
	Requests []core.Request
	Avail    []core.Avail

	// Requesting and Free are the same information in the []bool shape the
	// token architecture consumes.
	Requesting []bool
	Free       []bool
}

// Config parameterizes pattern generation.
type Config struct {
	PRequest float64 // probability a processor requests (per cycle)
	PFree    float64 // probability a resource is free

	// Priorities/Preferences, when positive, draw levels uniformly from
	// [1, value] for every request/resource.
	Priorities  int64
	Preferences int64

	// Types, when > 1, assigns each request and resource a uniform type in
	// [0, Types).
	Types int

	// HotSpot, when set, directs requests preferentially: processors with
	// index < Procs/4 request with probability min(1, 2*PRequest).
	HotSpot bool
}

// Generate draws one pattern for the network. Processors whose links are
// occupied never request; resources whose links are occupied are never
// free (they are still serving a previous allocation).
func Generate(rng *rand.Rand, net *topology.Network, cfg Config) Pattern {
	p := Pattern{
		Requesting: make([]bool, net.Procs),
		Free:       make([]bool, net.Ress),
	}
	for i := 0; i < net.Procs; i++ {
		if net.Links[net.ProcLink[i]].State != topology.LinkFree {
			continue
		}
		prob := cfg.PRequest
		if cfg.HotSpot && i < net.Procs/4 {
			prob = 2 * cfg.PRequest
			if prob > 1 {
				prob = 1
			}
		}
		if rng.Float64() < prob {
			req := core.Request{Proc: i}
			if cfg.Priorities > 0 {
				req.Priority = 1 + rng.Int63n(cfg.Priorities)
			}
			if cfg.Types > 1 {
				req.Type = rng.Intn(cfg.Types)
			}
			p.Requests = append(p.Requests, req)
			p.Requesting[i] = true
		}
	}
	for r := 0; r < net.Ress; r++ {
		if net.Links[net.ResLink[r]].State != topology.LinkFree {
			continue
		}
		if rng.Float64() < cfg.PFree {
			a := core.Avail{Res: r}
			if cfg.Preferences > 0 {
				a.Preference = 1 + rng.Int63n(cfg.Preferences)
			}
			if cfg.Types > 1 {
				a.Type = rng.Intn(cfg.Types)
			}
			p.Avail = append(p.Avail, a)
			p.Free[r] = true
		}
	}
	return p
}

// FailRandomLinks marks the given fraction of interior links permanently
// occupied, modeling scattered link failures (the fault-tolerance setting
// of §IV: the distributed architecture keeps scheduling around dead
// links). Processor and resource attachment links are spared so endpoints
// stay addressable; the failed link IDs are returned.
func FailRandomLinks(rng *rand.Rand, net *topology.Network, fraction float64) []int {
	if fraction <= 0 {
		return nil
	}
	var interior []int
	for _, l := range net.Links {
		if l.From.Kind == topology.KindBox && l.To.Kind == topology.KindBox &&
			l.State == topology.LinkFree {
			interior = append(interior, l.ID)
		}
	}
	rng.Shuffle(len(interior), func(i, j int) { interior[i], interior[j] = interior[j], interior[i] })
	k := int(fraction * float64(len(net.Links)))
	if k > len(interior) {
		k = len(interior)
	}
	failed := interior[:k]
	for _, id := range failed {
		net.OccupyLink(id)
	}
	return failed
}

// OccupyRandom establishes random circuits until the requested fraction of
// links is occupied or no further circuit fits, and returns the circuits
// established. It models the partially-occupied network of experiment E6.
func OccupyRandom(rng *rand.Rand, net *topology.Network, fraction float64) []topology.Circuit {
	var out []topology.Circuit
	if fraction <= 0 {
		return out
	}
	target := int(fraction * float64(len(net.Links)))
	usedP := make([]bool, net.Procs)
	usedR := make([]bool, net.Ress)
	occupied := len(net.Links) - net.FreeLinks()
	// Random processor order; each establishes a circuit to a random
	// reachable resource.
	procs := rng.Perm(net.Procs)
	for _, p := range procs {
		if occupied >= target {
			break
		}
		if usedP[p] {
			continue
		}
		// Collect reachable unused resources, pick one uniformly.
		var reach []int
		seen := map[int]bool{}
		net.FindPath(p, func(r int) bool {
			if !usedR[r] && !seen[r] {
				seen[r] = true
				reach = append(reach, r)
			}
			return false // keep exploring: enumerate instead of stopping
		})
		if len(reach) == 0 {
			continue
		}
		r := reach[rng.Intn(len(reach))]
		c := net.FindPath(p, func(res int) bool { return res == r })
		if c == nil {
			continue
		}
		if err := net.Establish(*c); err != nil {
			continue
		}
		usedP[p] = true
		usedR[r] = true
		occupied += len(c.Links)
		out = append(out, *c)
	}
	return out
}
