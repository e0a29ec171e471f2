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

// Demand normalises a validated task's declared demand (see ValidateTask):
// the Needs vector sorted by type, or — the scalar form being exactly the
// one-type special case — the single entry {Type, Need}, with Need <= 0
// read as 1.
func (t Task) Demand() Demand { return t.AppendDemand(nil) }

// AppendDemand appends the task's normalised demand to dst and returns the
// extended vector, so a caller with inline backing for the common one-type
// case allocates nothing.
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
	slices.SortFunc(dst[base:], func(a, b DemandEntry) int { return cmp.Compare(a.Type, b.Type) })
	return dst
}

// GangDemand sums the members' demand per type: a gang's members hold
// their units together, so admission tests the whole sum at once.
func GangDemand(members []Task) Demand {
	var sum Demand
	var one [1]DemandEntry
	for _, t := range members {
		for _, e := range t.AppendDemand(one[:0]) {
			i, found := slices.BinarySearchFunc(sum, e.Type, func(d DemandEntry, ty int) int { return cmp.Compare(d.Type, ty) })
			if found {
				sum[i].Count += e.Count
			} else {
				sum = slices.Insert(sum, i, e)
			}
		}
	}
	return sum
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
