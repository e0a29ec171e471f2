package topology

import "rsin/internal/bitset"

// Link words. Beside each Link's State, a Network keeps two bit vectors
// over link IDs, bit l for link l, in the style of the token
// architecture's per-link registers: open marks the links that are free
// and usable — what a scheduler may route a new circuit over — and
// unusable the links a failed link, switchbox or resource masks. Every
// method that writes a State (Establish, Release, ForceRelease,
// OccupyLink, Reset) updates open with it, and every change of the fault
// epoch recomputes unusable, and open from it. A solve therefore reads
// the fabric as ⌈Links/64⌉ words instead of a per-link State and
// LinkUsable walk. Link.State is written nowhere outside this package (a
// go/parser test at the module root holds that), so the words cannot
// drift from it; TestLinkWordsMatchRecount holds them to a per-link
// recount after every operation.

// OpenLinks returns the free-and-usable link words: bit l is set exactly
// when link l is free and, under the current faults, usable. Bits at or
// past len(Links) are zero. The slice is the network's own: a caller
// reads it, copies it if it must keep it across a change to the network,
// and never writes it.
func (n *Network) OpenLinks() bitset.Bits { return n.open }

// OccupyLink marks one link occupied outside any circuit: a fixture's
// stand-in for a busy or dead wire, which ForceRelease or Reset frees
// again. Occupying an occupied link is a no-op.
func (n *Network) OccupyLink(id int) { n.setState(id, LinkOccupied) }

// setState writes one link's State and its open bit.
func (n *Network) setState(l int, st LinkState) {
	n.Links[l].State = st
	n.open.SetTo(l, st == LinkFree && !n.unusable.Get(l))
}

// newFaultEpoch advances the fault epoch after a Fail or Repair changed
// the fault set, and recomputes the words under it.
func (n *Network) newFaultEpoch() {
	n.faultEpoch++
	n.refreshWords()
}

// refreshWords recomputes both word sets from the fault flags and the
// links' states: once per fault epoch, and on Build and Reset.
func (n *Network) refreshWords() {
	for l := range n.Links {
		healthy := n.linkHealthy(l)
		n.unusable.SetTo(l, !healthy)
		n.open.SetTo(l, healthy && n.Links[l].State == LinkFree)
	}
}
