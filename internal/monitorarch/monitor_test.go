package monitorarch

import (
	"math/rand"
	"testing"

	"rsin/internal/core"
	"rsin/internal/token"
	"rsin/internal/topology"
)

func scenario(rng *rand.Rand, net *topology.Network) ([]core.Request, []core.Avail, []bool, []bool) {
	requesting := make([]bool, net.Procs)
	free := make([]bool, net.Ress)
	var reqs []core.Request
	var avail []core.Avail
	for p := 0; p < net.Procs; p++ {
		if rng.Float64() < 0.6 {
			requesting[p] = true
			reqs = append(reqs, core.Request{Proc: p})
		}
	}
	for r := 0; r < net.Ress; r++ {
		if rng.Float64() < 0.6 {
			free[r] = true
			avail = append(avail, core.Avail{Res: r})
		}
	}
	return reqs, avail, requesting, free
}

func TestAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		net := topology.Omega(8)
		reqs, avail, _, _ := scenario(rng, net)
		var counts []int
		for _, alg := range []Algorithm{Dinic, FordFulkerson, EdmondsKarp} {
			res, err := Schedule(net, reqs, avail, alg, nil)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			counts = append(counts, res.Mapping.Allocated())
			if res.Instructions <= 0 && len(reqs) > 0 && len(avail) > 0 {
				t.Fatalf("%v: no instructions accounted", alg)
			}
		}
		if counts[0] != counts[1] || counts[1] != counts[2] {
			t.Fatalf("trial %d: algorithms disagree: %v", trial, counts)
		}
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	net := topology.Omega(8)
	if _, err := Schedule(net, nil, nil, Algorithm(42), nil); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if Dinic.String() != "dinic" || FordFulkerson.String() != "ford-fulkerson" ||
		EdmondsKarp.String() != "edmonds-karp" || Algorithm(7).String() == "" {
		t.Fatal("Algorithm.String broken")
	}
}

func TestInstructionCountScalesWithSize(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	small := topology.Omega(8)
	big := topology.Omega(64)
	rs, as, _, _ := scenario(rng, small)
	rb, ab, _, _ := scenario(rng, big)
	s, err := Schedule(small, rs, as, Dinic, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(big, rb, ab, Dinic, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Instructions <= s.Instructions {
		t.Fatalf("instructions did not grow with size: %d vs %d", s.Instructions, b.Instructions)
	}
}

func TestCustomCostModel(t *testing.T) {
	net := topology.Omega(8)
	reqs := []core.Request{{Proc: 0}}
	avail := []core.Avail{{Res: 0}}
	zero := &Cost{}
	res, err := Schedule(net, reqs, avail, Dinic, zero)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 0 {
		t.Fatalf("zero cost model accounted %d instructions", res.Instructions)
	}
	one := &Cost{PerAcknowledge: 1}
	res, err = Schedule(net, reqs, avail, Dinic, one)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != int64(res.Mapping.Allocated()) {
		t.Fatalf("acknowledge-only model: %d instructions for %d allocations",
			res.Instructions, res.Mapping.Allocated())
	}
}

// TestTokenArchitectureWinsOnModeledCost reproduces the §IV claim that the
// distributed realization is much faster: comparing clock periods (token)
// against modeled instructions (monitor) at equal allocation quality, the
// token architecture's count is consistently the smaller number, and the
// allocations agree.
func TestTokenArchitectureWinsOnModeledCost(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 20; trial++ {
		net := topology.Omega(16)
		reqs, avail, requesting, free := scenario(rng, net)
		mon, err := Schedule(net, reqs, avail, Dinic, nil)
		if err != nil {
			t.Fatal(err)
		}
		tok, err := token.Schedule(net, requesting, free, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mon.Mapping.Allocated() != tok.Mapping.Allocated() {
			t.Fatalf("trial %d: monitor %d vs token %d allocations",
				trial, mon.Mapping.Allocated(), tok.Mapping.Allocated())
		}
		if len(reqs) > 0 && len(avail) > 0 && int64(tok.Clocks) >= mon.Instructions {
			t.Fatalf("trial %d: token clocks %d not below monitor instructions %d",
				trial, tok.Clocks, mon.Instructions)
		}
	}
}
