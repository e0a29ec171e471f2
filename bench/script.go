package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"

	"rsin/internal/system"
)

// The op script. --seed selects everything the service receives: which
// processor a client sits on, its tier, each task's need vector, each
// gang's members, every arrival instant of the open loop and every fault
// target. The service sees only these generated operations.

// opSpec is one generated operation: a singleton task, or (Members set) a
// gang whose members each need one resource.
type opSpec struct {
	Task    system.Task
	Members []int // gang member processors, distinct
}

// opGen yields one client's operations in order.
type opGen struct {
	w      *workloadDef
	client int
	rng    *rand.Rand
	proc   int   // the client's processor, where the workload pins one
	procs  []int // collective clients: the rank processors; typed_pool: the processors, dealt in a loop
	deck   []int // typed_pool: the client's shuffled need vectors, dealt in a loop
	dealt  int
}

const (
	fabricN16   = 16
	fabricN32   = 32
	fabricN64   = 64
	typedTypes  = 3
	gangSize    = 4
	gangClients = 16 // of the 24 gang-workload clients; the rest run collectives
)

// typedDeck is the typed_pool demand mix as a deck of 64 need vectors:
// rsinbench's multi distribution (each type wanted with probability 1/2,
// then one or two units with equal odds; an empty vector becomes one unit
// of one type) enumerated once. Every client deals the whole deck in a
// seeded order, so the seed changes who asks for what when, never how
// much is asked for in total — drawn independently, the demand itself
// moved throughput by more between seeds than any change under test
// would.
var typedDeck = func() [][typedTypes]int {
	var deck [][typedTypes]int
	draws := [4]int{0, 0, 1, 2}
	empties := 0
	for i := 0; i < 64; i++ {
		v := [typedTypes]int{draws[i%4], draws[i/4%4], draws[i/16]}
		if v == [typedTypes]int{} {
			v[empties%typedTypes] = 1
			empties++
		}
		deck = append(deck, v)
	}
	return deck
}()

// streamSeed derives an independent stream per (seed, purpose, index).
func streamSeed(seed int64, purpose string, idx int) int64 {
	h := sha256.Sum256([]byte(purpose))
	return seed*0x9e3779b97f4a7c + int64(binary.LittleEndian.Uint64(h[:8])>>1) + int64(idx)*7919
}

// newOpGen builds client c's generator. Clients of the untyped and
// front-door workloads sit on a seeded permutation of processors so no
// two share one; tiered clients share 32 processors two by two, client c
// and c+32 (same tier, same need) on processor c%32.
func newOpGen(w *workloadDef, seed int64, c int) *opGen {
	g := &opGen{w: w, client: c, rng: rand.New(rand.NewSource(streamSeed(seed, w.Name, c)))}
	perm := rand.New(rand.NewSource(streamSeed(seed, w.Name+"/perm", 0)))
	switch w.Name {
	case "untyped_sat", "untyped_sparse":
		// 2 shards: client c is on shard c%2, processor perm[c/2].
		g.proc = perm.Perm(fabricN64)[c/2]
	case "frontdoor_zero_hold":
		g.proc = perm.Perm(fabricN64)[c%fabricN64]
	case "tiered_faults":
		// Fixed placement: which tier sits behind which switchbox moves the
		// preemption rate by far more than a regression would, so the seed
		// picks only the fault targets here.
		g.proc = c % fabricN32
	case "typed_pool":
		g.deck, g.procs = g.rng.Perm(len(typedDeck)), g.rng.Perm(fabricN16)
	case "gangs":
		if c >= gangClients {
			// Collective client: four rank processors of its own band.
			p := perm.Perm(fabricN32)
			k := c - gangClients
			g.procs = append([]int(nil), p[k*gangSize:(k+1)*gangSize]...)
		}
	}
	return g
}

// next yields the client's next operation.
func (g *opGen) next() opSpec {
	switch g.w.Name {
	case "typed_pool":
		units, proc := typedDeck[g.deck[g.dealt%len(g.deck)]], g.procs[g.dealt%fabricN16]
		g.dealt++
		needs := map[int]int{}
		for ty, n := range units {
			if n > 0 {
				needs[ty] = n
			}
		}
		return opSpec{Task: system.Task{Proc: proc, Needs: needs}}
	case "tiered_faults":
		return opSpec{Task: system.Task{Proc: g.proc, Tier: g.client % 8, Need: 1 + (g.client/8)%2}}
	case "gangs":
		if g.procs != nil {
			return opSpec{Members: g.procs}
		}
		return opSpec{Members: g.rng.Perm(fabricN32)[:gangSize]}
	default:
		return opSpec{Task: system.Task{Proc: g.proc, Need: 1}}
	}
}

// shard reports the shard a client's operations go to.
func (g *opGen) shard() int {
	if g.w.Name == "untyped_sat" || g.w.Name == "untyped_sparse" {
		return g.client % 2
	}
	return 0
}

// tier reports the client's priority class (0 where the workload has one
// class).
func (g *opGen) tier() int {
	if g.w.Name == "tiered_faults" {
		return g.client % 8
	}
	return 0
}

// faultGen yields the tiered_faults fault targets: alternately a resource
// and a link of the Omega-32 fabric.
type faultGen struct {
	rng   *rand.Rand
	n     int
	links int
}

func newFaultGen(seed int64, links int) *faultGen {
	return &faultGen{rng: rand.New(rand.NewSource(streamSeed(seed, "faults", 0))), links: links}
}

func (f *faultGen) next() system.FaultOp {
	f.n++
	if f.n%2 == 1 {
		return system.FaultOp{Target: system.FaultTargetResource, Index: f.rng.Intn(fabricN32)}
	}
	return system.FaultOp{Target: system.FaultTargetLink, Index: f.rng.Intn(f.links)}
}

// arrival is one open-loop request: due at Due from the ladder's start.
type arrival struct {
	DueNS int64
	Rung  int
	Tier  int
	Proc  int
}

// genArrivals lays the Poisson ladder out: rung k offers ladderRates[k]
// for rungNS nanoseconds, rungs back to back in ascending order so a
// rung's backlog can only spill into a heavier one.
func genArrivals(seed int64, rates []float64, rungNS int64) []arrival {
	rng := rand.New(rand.NewSource(streamSeed(seed, "arrivals", 0)))
	var out []arrival
	for k, rate := range rates {
		t := float64(int64(k) * rungNS)
		end := float64(int64(k+1) * rungNS)
		for {
			t += rng.ExpFloat64() / rate * 1e9
			if t >= end {
				break
			}
			u, tier, acc := rng.Float64(), len(tierMix)-1, 0.0
			for i, share := range tierMix {
				acc += share
				if u < acc {
					tier = i
					break
				}
			}
			out = append(out, arrival{DueNS: int64(t), Rung: k, Tier: tier, Proc: rng.Intn(fabricN32)})
		}
	}
	return out
}

// scriptHash digests the head of a workload's script: the first ops of
// every client, the first fault targets and, for the open loop, a short
// ladder. Same seed, same bytes.
func scriptHash(w *workloadDef, seed int64) string {
	h := sha256.New()
	put := func(vs ...int) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
			h.Write(b[:])
		}
	}
	for c := 0; c < w.Clients; c++ {
		g := newOpGen(w, seed, c)
		put(c, g.shard(), g.tier())
		for i := 0; i < 64; i++ {
			op := g.next()
			put(op.Task.Proc, op.Task.Tier, op.Task.Need)
			for ty := 0; ty < typedTypes; ty++ {
				put(op.Task.Needs[ty])
			}
			put(op.Members...)
		}
	}
	if w.Name == "tiered_faults" {
		f := newFaultGen(seed, 1<<10)
		for i := 0; i < 64; i++ {
			op := f.next()
			put(int(op.Target), op.Index)
		}
	}
	if w.Open {
		for _, a := range genArrivals(seed, ladderRates, 1e8) {
			put(int(a.DueNS), a.Rung, a.Tier, a.Proc)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
