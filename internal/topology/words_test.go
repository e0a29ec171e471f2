package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rsin/internal/bitset"
)

// recountOpen computes the open words from first principles: each link's
// State and fault flags, the usability rule of LinkUsable spelled out.
func recountOpen(n *Network) (open, usable bitset.Bits) {
	open, usable = bitset.Make(len(n.Links)), bitset.Make(len(n.Links))
	for _, l := range n.Links {
		ok := !n.LinkFaulted(l.ID)
		for _, e := range []Endpoint{l.From, l.To} {
			if e.Kind == KindBox && n.BoxFaulted(e.Index) {
				ok = false
			}
		}
		if l.To.Kind == KindResource && n.ResourceFaulted(l.To.Index) {
			ok = false
		}
		usable.SetTo(l.ID, ok)
		open.SetTo(l.ID, ok && l.State == LinkFree)
	}
	return open, usable
}

// TestLinkWordsMatchRecount runs a seeded script of every operation that
// moves a link's state or the fault set — Establish, Release,
// ForceRelease, OccupyLink, Reset, each Fail and Repair, and Clone — on
// Omega, Benes and Clos fabrics, and after every operation requires the
// open words to equal a per-link recount of State == LinkFree and
// usability, and LinkUsable to agree with the recount link by link.
func TestLinkWordsMatchRecount(t *testing.T) {
	for _, build := range []func() *Network{
		func() *Network { return Omega(16) },
		func() *Network { return Benes(8) },
		func() *Network { return Clos(3, 2, 4) },
	} {
		net := build()
		t.Run(net.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			var circuits []Circuit
			check := func(step int, op string) {
				t.Helper()
				want, usable := recountOpen(net)
				if got := net.OpenLinks(); !slices.Equal(got, want) {
					t.Fatalf("step %d (%s): open words %x, recount %x", step, op, got, want)
				}
				for l := range net.Links {
					if net.LinkUsable(l) != usable.Get(l) {
						t.Fatalf("step %d (%s): LinkUsable(%d) = %v, recount %v", step, op, l, net.LinkUsable(l), usable.Get(l))
					}
				}
			}
			check(0, "build")
			pick := func(n int) int { return rng.Intn(n) }
			for step := 1; step <= 3000; step++ {
				var op string
				switch k := pick(12); {
				case k < 4:
					p := pick(net.Procs)
					c := net.FindPath(p, func(int) bool { return true })
					op = fmt.Sprintf("establish p%d", p)
					if c != nil {
						if err := net.Establish(*c); err != nil {
							t.Fatalf("step %d: %s: %v", step, op, err)
						}
						circuits = append(circuits, *c)
					}
				case k < 6 && len(circuits) > 0:
					i := pick(len(circuits))
					op = fmt.Sprintf("release %v", circuits[i].Links)
					if pick(2) == 0 {
						op = "force-" + op
						net.ForceRelease(circuits[i])
					} else if err := net.Release(circuits[i]); err != nil {
						t.Fatalf("step %d: %s: %v", step, op, err)
					}
					circuits = slices.Delete(circuits, i, i+1)
				case k == 6:
					l := pick(len(net.Links))
					op = fmt.Sprintf("occupy %d", l)
					net.OccupyLink(l)
				case k == 7 && pick(10) == 0:
					op = "reset"
					net.Reset()
					circuits = circuits[:0]
				case k == 8:
					l := pick(len(net.Links))
					op = fmt.Sprintf("fail/repair link %d", l)
					if pick(2) == 0 {
						_ = net.FailLink(l)
					} else {
						_ = net.RepairLink(l)
					}
				case k == 9:
					b := pick(len(net.Boxes))
					op = fmt.Sprintf("fail/repair box %d", b)
					if pick(2) == 0 {
						_ = net.FailBox(b)
					} else {
						_ = net.RepairBox(b)
					}
				case k == 10:
					r := pick(net.Ress)
					op = fmt.Sprintf("fail/repair res %d", r)
					if pick(2) == 0 {
						_ = net.FailResource(r)
					} else {
						_ = net.RepairResource(r)
					}
				default:
					op = "clone"
					c := net.Clone()
					if !slices.Equal(c.OpenLinks(), net.OpenLinks()) {
						t.Fatalf("step %d: clone's open words %x, original's %x", step, c.OpenLinks(), net.OpenLinks())
					}
					// The clone's words are its own.
					c.Reset()
					check(step, "clone, original after the clone's reset")
					net = c
					circuits = circuits[:0]
				}
				check(step, op)
			}
		})
	}
}
