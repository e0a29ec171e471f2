package main

import "testing"

// TestMultiProbeDeterministic pins the gap probe that the multi gate enforces
// in CI. The ensemble is pure computation on a seeded RNG, so the counters
// are bit-identical on every machine: every instance is either certified
// optimal (zero gap by construction) or records a gap that bounds its
// distance to the exact branch-and-bound oracle, and the ensemble reaches
// both the bound-certified path and the LP behind a missed bound.
func TestMultiProbeDeterministic(t *testing.T) {
	rep, err := runMultiProbe(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials == 0 || rep.FastPath == 0 {
		t.Fatalf("probe ran %d trials with %d certified fast paths", rep.Trials, rep.FastPath)
	}
	if rep.BoundCertified == 0 || rep.BoundMisses == 0 {
		t.Fatalf("probe did not exercise both paths: %d bound-certified, %d bound misses", rep.BoundCertified, rep.BoundMisses)
	}
	if rep.BoundViolations != 0 {
		t.Errorf("%d instances where alloc + recorded gap failed to bound the oracle", rep.BoundViolations)
	}
	if rep.ZeroGapMismatches != 0 {
		t.Errorf("%d instances claimed zero gap yet under-allocated vs the oracle", rep.ZeroGapMismatches)
	}
	if rep.Allocated+rep.GapUnits < rep.OracleAllocated {
		t.Errorf("aggregate alloc %d + gap %d below oracle %d", rep.Allocated, rep.GapUnits, rep.OracleAllocated)
	}
	// Two identical replays must agree exactly — the probe is the
	// deterministic half of the multi gate.
	again, err := runMultiProbe(true)
	if err != nil {
		t.Fatal(err)
	}
	if again != rep {
		t.Errorf("probe is not deterministic: %+v vs %+v", rep, again)
	}
}
