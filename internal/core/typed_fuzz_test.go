package core_test

import (
	"testing"

	"rsin/internal/core"
	"rsin/internal/topology"
	"rsin/internal/workload"
)

// fuzzFabrics are the fabrics FuzzHeteroBound picks from: eight ports at
// most, so the exact oracle stays cheap. The last has six extra stages and
// so 64 paths per pair, past the routing table's cap: without a table to
// search, its bound misses go to the LP.
var fuzzFabrics = []func() *topology.Network{
	func() *topology.Network { return topology.Omega(8) },
	func() *topology.Network { return topology.Benes(8) },
	func() *topology.Network { return topology.Clos(2, 2, 3) },
	func() *topology.Network { return topology.Baseline(8) },
	func() *topology.Network { return topology.Crossbar(4, 6) },
	func() *topology.Network { return topology.OmegaExtra(8, 6) },
}

// FuzzHeteroBound fuzzes (fabric pick, fault set, typed requests, typed
// free resources) through the typed solver. faults: up to four bytes, each
// failing a link (below 128) or a box; reqs and avail: byte i is
// processor/resource i's entry, 0 mod 4 for none, else type (b mod 4)-1.
// The corpus is seeded with workload.AdversarialTyped's instances on these
// fabrics, so even a short run reaches all three paths — bound met, search
// settled (the instances on Omega-8 and Benes-8 that miss the bound) and
// LP (the one on the fabric with no routing table). Whatever path the epoch
// takes, it must agree with HeteroOptions{Exact: true} and the
// branch-and-bound oracle whenever it claims a zero gap — a search-settled
// epoch always does — stay within its recorded gap of them otherwise,
// never exceed its own bound, and return only circuits that are legal on
// the faulted fabric and type-correct.
func FuzzHeteroBound(f *testing.F) {
	for _, in := range workload.AdversarialTyped() {
		pick := -1
		for i, build := range fuzzFabrics {
			if build().Name == in.Net.Name {
				pick = i
			}
		}
		if pick < 0 {
			continue // a fabric too large for the fuzzer's oracle
		}
		var faults []byte
		for _, l := range in.Net.FaultedLinks() {
			faults = append(faults, byte(l))
		}
		reqs := make([]byte, in.Net.Procs)
		for _, r := range in.Reqs {
			reqs[r.Proc] = byte(r.Type + 1)
		}
		avail := make([]byte, in.Net.Ress)
		for _, a := range in.Avail {
			avail[a.Res] = byte(a.Type + 1)
		}
		f.Add(uint8(pick), faults, reqs, avail)
	}
	f.Add(uint8(0), []byte{200}, []byte{1, 2, 3, 1, 2, 3, 1, 2}, []byte{3, 2, 1, 3, 2, 1, 3, 2})
	f.Fuzz(func(t *testing.T, pick uint8, faults, reqBytes, availBytes []byte) {
		net := fuzzFabrics[int(pick)%len(fuzzFabrics)]()
		if len(faults) > 4 {
			faults = faults[:4]
		}
		for _, b := range faults {
			if b >= 128 && len(net.Boxes) > 0 {
				net.FailBox(int(b-128) % len(net.Boxes))
			} else {
				net.FailLink(int(b) % len(net.Links))
			}
		}
		var reqs []core.Request
		for p := 0; p < net.Procs && p < len(reqBytes); p++ {
			if ty := int(reqBytes[p] % 4); ty > 0 {
				reqs = append(reqs, core.Request{Proc: p, Type: ty - 1})
			}
		}
		var avail []core.Avail
		for r := 0; r < net.Ress && r < len(availBytes); r++ {
			if ty := int(availBytes[r] % 4); ty > 0 {
				avail = append(avail, core.Avail{Res: r, Type: ty - 1})
			}
		}
		if len(reqs) == 0 {
			return
		}
		checkAgainstOracle(t, net.Name, net, reqs, avail)
	})
}
