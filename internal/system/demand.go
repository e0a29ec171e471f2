package system

import (
	"cmp"
	"fmt"
	"slices"
)

// DemandEntry is one component of a demand vector: Count units of resource
// type Type.
type DemandEntry struct {
	Type  int
	Count int
}

// Demand is the one shape demand takes below the Submit boundary: one entry
// per resource type, sorted by type, every count positive. The paper's
// homogeneous MRSIN is its one-entry case (§III-D); a gang's demand is the
// entry-wise sum over its members (they hold their units together).
type Demand []DemandEntry

// AppendDemand appends a validated task's normalised demand (see
// ValidateTask) to dst and returns the extended vector: the Needs vector
// sorted by type, or — the scalar form being exactly the one-type special
// case — the single entry {Type, Need}, with Need <= 0 read as 1. A caller
// with inline backing for the common one-type case allocates nothing.
func (t Task) AppendDemand(dst Demand) Demand {
	if t.Needs == nil {
		n := t.Need
		if n <= 0 {
			n = 1
		}
		return append(dst, DemandEntry{Type: t.Type, Count: n})
	}
	return appendVector(dst, t.Needs)
}

// appendVector appends a type->count map to dst in type order.
func appendVector(dst Demand, needs map[int]int) Demand {
	base := len(dst)
	for ty, n := range needs {
		dst = append(dst, DemandEntry{Type: ty, Count: n})
	}
	slices.SortFunc(dst[base:], byType)
	return dst
}

func byType(a, b DemandEntry) int { return cmp.Compare(a.Type, b.Type) }

// GangDemand sums the members' demand per type: a gang's members hold
// their units together, so admission tests the whole sum at once.
func GangDemand(members []Task) Demand { return AppendGangDemand(nil, members) }

// AppendGangDemand is GangDemand appending to dst, so a caller with inline
// backing for the few types a task alone names allocates nothing.
func AppendGangDemand(dst Demand, members []Task) Demand {
	base := len(dst)
	for _, t := range members {
		dst = t.AppendDemand(dst)
	}
	sum := dst[base:]
	for i := 1; i < len(sum); i++ { // insertion sort: a member's own demand comes sorted
		for j := i; j > 0 && sum[j].Type < sum[j-1].Type; j-- {
			sum[j], sum[j-1] = sum[j-1], sum[j]
		}
	}
	out := sum[:0]
	for _, e := range sum {
		if n := len(out); n > 0 && out[n-1].Type == e.Type {
			out[n-1].Count += e.Count
		} else {
			out = append(out, e)
		}
	}
	return dst[:base+len(out)]
}

// Total reports the unit demand summed over all types.
func (d Demand) Total() int {
	n := 0
	for _, e := range d {
		n += e.Count
	}
	return n
}

// Fits is the one admission predicate: does the demand fit a usable census
// (resources per type that are neither failed nor stranded — System.
// UsableResources; {0: total} on a fabric without configured types)? Every
// entry must fit its own type's stock, so a type the census does not carry
// never fits. On a shortfall it names the lowest short type and what the
// census holds of it.
func (d Demand) Fits(usable map[int]int) (ty, have int, ok bool) {
	for _, e := range d {
		if e.Count > usable[e.Type] {
			return e.Type, usable[e.Type], false
		}
	}
	return 0, 0, true
}

// Shortfall is Fits as an error, the one every admission site returns: nil
// when the demand fits, else an ErrUnsatisfiable naming the short type,
// what is needed of it and what the census holds.
func (d Demand) Shortfall(usable map[int]int) error {
	ty, have, ok := d.Fits(usable)
	if ok {
		return nil
	}
	need := 0
	for _, e := range d {
		if e.Type == ty {
			need = e.Count
		}
	}
	return fmt.Errorf("%d resources of type %d needed together, fabric has %d usable: %w",
		need, ty, have, ErrUnsatisfiable)
}
