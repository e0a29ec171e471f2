package topology

import (
	"fmt"
	"slices"
)

// Hardware fault model. A physical RSIN component — a link, a switchbox,
// a resource — can fail in the field and later be repaired. Failed
// components stay in the Network (indices are stable) but are excluded
// from scheduling: internal/core masks unusable links out of the flow
// transformations, internal/token refuses to propagate tokens across
// them, and FindPath skips them, so every scheduler solves on the
// surviving subgraph. A failed switchbox makes all links on its ports
// unusable; a failed resource makes the link into it unusable.
//
// Fault state is orthogonal to circuit-switching state: failing a link
// does not change its LinkState. Tearing down circuits that traverse a
// newly failed component is the owning system's job (internal/system
// severs them and re-queues the lost units); ForceRelease is the
// teardown primitive.
//
// Every successful Fail/Repair increments the network's fault epoch, a
// cheap generation counter that lets layered caches (degraded-capacity
// gauges, per-shard admission limits) detect that the surviving
// topology changed without diffing fault sets.

// FailLink marks a link failed. Failing an already-failed link is a
// no-op; the fault epoch advances only on a state change.
func (n *Network) FailLink(id int) error {
	if id < 0 || id >= len(n.Links) {
		return fmt.Errorf("topology %q: link %d out of range [0,%d)", n.Name, id, len(n.Links))
	}
	if n.linkFault == nil {
		n.linkFault = make([]bool, len(n.Links))
	}
	if !n.linkFault[id] {
		n.linkFault[id] = true
		n.newFaultEpoch()
	}
	return nil
}

// RepairLink clears a link fault. Repairing a healthy link is a no-op.
func (n *Network) RepairLink(id int) error {
	if id < 0 || id >= len(n.Links) {
		return fmt.Errorf("topology %q: link %d out of range [0,%d)", n.Name, id, len(n.Links))
	}
	if n.linkFault != nil && n.linkFault[id] {
		n.linkFault[id] = false
		n.newFaultEpoch()
	}
	return nil
}

// FailBox marks a switchbox failed: every link on its ports becomes
// unusable until RepairBox.
func (n *Network) FailBox(id int) error {
	if id < 0 || id >= len(n.Boxes) {
		return fmt.Errorf("topology %q: box %d out of range [0,%d)", n.Name, id, len(n.Boxes))
	}
	if n.boxFault == nil {
		n.boxFault = make([]bool, len(n.Boxes))
	}
	if !n.boxFault[id] {
		n.boxFault[id] = true
		n.newFaultEpoch()
	}
	return nil
}

// RepairBox clears a switchbox fault.
func (n *Network) RepairBox(id int) error {
	if id < 0 || id >= len(n.Boxes) {
		return fmt.Errorf("topology %q: box %d out of range [0,%d)", n.Name, id, len(n.Boxes))
	}
	if n.boxFault != nil && n.boxFault[id] {
		n.boxFault[id] = false
		n.newFaultEpoch()
	}
	return nil
}

// FailResource marks a resource failed: it must not be offered to any
// scheduler, and the link into it becomes unusable.
func (n *Network) FailResource(r int) error {
	if r < 0 || r >= n.Ress {
		return fmt.Errorf("topology %q: resource %d out of range [0,%d)", n.Name, r, n.Ress)
	}
	if n.resFault == nil {
		n.resFault = make([]bool, n.Ress)
	}
	if !n.resFault[r] {
		n.resFault[r] = true
		n.newFaultEpoch()
	}
	return nil
}

// RepairResource clears a resource fault.
func (n *Network) RepairResource(r int) error {
	if r < 0 || r >= n.Ress {
		return fmt.Errorf("topology %q: resource %d out of range [0,%d)", n.Name, r, n.Ress)
	}
	if n.resFault != nil && n.resFault[r] {
		n.resFault[r] = false
		n.newFaultEpoch()
	}
	return nil
}

// LinkFaulted reports whether the link itself is marked failed (not
// whether it is usable — see LinkUsable).
func (n *Network) LinkFaulted(id int) bool {
	return n.linkFault != nil && n.linkFault[id]
}

// BoxFaulted reports whether a switchbox is marked failed.
func (n *Network) BoxFaulted(id int) bool {
	return n.boxFault != nil && n.boxFault[id]
}

// ResourceFaulted reports whether a resource is marked failed.
func (n *Network) ResourceFaulted(r int) bool {
	return n.resFault != nil && n.resFault[r]
}

// LinkUsable reports whether a link may carry a new circuit or token:
// the link is not failed, neither endpoint box is failed, and an
// endpoint resource is not failed. Usability ignores circuit-switching
// occupancy — an occupied link is usable but busy. It reads one bit of
// the unusable words, which each fault epoch recomputes.
func (n *Network) LinkUsable(id int) bool { return !n.unusable.Get(id) }

// linkHealthy is LinkUsable computed from the fault flags: what
// refreshWords writes into the unusable words.
func (n *Network) linkHealthy(id int) bool {
	if n.linkFault != nil && n.linkFault[id] {
		return false
	}
	l := n.Links[id]
	if n.boxFault != nil {
		if l.From.Kind == KindBox && n.boxFault[l.From.Index] {
			return false
		}
		if l.To.Kind == KindBox && n.boxFault[l.To.Index] {
			return false
		}
	}
	if n.resFault != nil && l.To.Kind == KindResource && n.resFault[l.To.Index] {
		return false
	}
	return true
}

// FaultEpoch reports the generation counter advanced by every effective
// Fail/Repair. Callers cache derived state (reachability, degraded
// capacity) keyed by this value.
func (n *Network) FaultEpoch() uint64 { return n.faultEpoch }

// HasFaults reports whether any component is currently failed.
func (n *Network) HasFaults() bool {
	for _, f := range n.linkFault {
		if f {
			return true
		}
	}
	for _, f := range n.boxFault {
		if f {
			return true
		}
	}
	for _, f := range n.resFault {
		if f {
			return true
		}
	}
	return false
}

// FaultedLinks lists the currently failed link IDs in ascending order.
func (n *Network) FaultedLinks() []int {
	var out []int
	for id, f := range n.linkFault {
		if f {
			out = append(out, id)
		}
	}
	return out
}

// ForceRelease frees every link of a circuit unconditionally. It is the
// teardown primitive for severed circuits: after a component failure the
// path is no longer contiguous-and-usable, so the validating Release
// would refuse it, yet the occupied links (all owned by this one
// circuit — circuits are link-disjoint) must return to the free state.
func (n *Network) ForceRelease(c Circuit) {
	for _, lid := range c.Links {
		if lid >= 0 && lid < len(n.Links) {
			n.setState(lid, LinkFree)
		}
	}
}

// ReachableResources reports, per resource, whether it is structurally
// reachable from at least one processor over usable links, ignoring
// circuit occupancy (occupied links free up again; failed ones do not).
// A failed resource is never reachable. This is the basis of degraded
// capacity: a healthy resource behind a dead switchbox contributes
// nothing to the surviving fabric.
//
// The sweep runs on scratch the Network keeps, so it allocates only on
// its first call: the slice returned is that scratch, valid until the
// next call, and a caller that keeps it longer copies it.
func (n *Network) ReachableResources() []bool {
	sw := &n.sweep
	sw.reach = slices.Grow(sw.reach[:0], n.Ress)[:n.Ress]
	sw.seenBox = slices.Grow(sw.seenBox[:0], len(n.Boxes))[:len(n.Boxes)]
	clear(sw.reach)
	clear(sw.seenBox)
	queue := sw.queue[:0] // link IDs to traverse, walked by index
	for p := 0; p < n.Procs; p++ {
		if lid := n.ProcLink[p]; lid != -1 && n.LinkUsable(lid) {
			queue = append(queue, lid)
		}
	}
	for i := 0; i < len(queue); i++ {
		to := n.Links[queue[i]].To
		switch to.Kind {
		case KindResource:
			sw.reach[to.Index] = true
		case KindBox:
			if sw.seenBox[to.Index] {
				continue
			}
			sw.seenBox[to.Index] = true
			for _, out := range n.Boxes[to.Index].Out {
				if out != -1 && n.LinkUsable(out) {
					queue = append(queue, out)
				}
			}
		}
	}
	sw.queue = queue
	if n.resFault != nil {
		for r, f := range n.resFault {
			if f {
				sw.reach[r] = false
			}
		}
	}
	return sw.reach
}

// reachSweep is ReachableResources' scratch, kept on the Network.
type reachSweep struct {
	reach, seenBox []bool
	queue          []int
}

// UsableByType reports the degraded-capacity census per resource type:
// given types[r] naming each resource's type (nil means a single type 0),
// how many resources are neither failed nor stranded behind failed
// components — structurally reachable from at least one processor on the
// surviving fabric. With no active faults it equals the configured
// census. This is the per-type capacity the admission and banker layers
// check typed demand vectors against.
func (n *Network) UsableByType(types []int) map[int]int {
	tyOf := func(r int) int {
		if types == nil {
			return 0
		}
		return types[r]
	}
	m := map[int]int{}
	if !n.HasFaults() {
		for r := 0; r < n.Ress; r++ {
			m[tyOf(r)]++
		}
		return m
	}
	reach := n.ReachableResources()
	for r := 0; r < n.Ress; r++ {
		if reach[r] {
			m[tyOf(r)]++
		}
	}
	return m
}
