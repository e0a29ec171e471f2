package main

import (
	"encoding/json"
	"strings"
	"testing"

	"rsin/internal/stats"
)

// TestTierBinsEmptyBin: a priority class with no samples must report
// null percentiles, not the zero stats.Percentiles fabricates for empty
// input. Before the fix, an empty tier bin serialized as p99_ms: 0 —
// indistinguishable from genuinely sub-millisecond latency, so the tier gate
// would pass vacuously on a run where tier 0 never completed a task.
func TestTierBinsEmptyBin(t *testing.T) {
	// 2 clients across 4 tiers: tier 0's client has samples, tier 1's
	// client aborted before its first completion (nil row), tiers 2 and
	// 3 have no clients at this load shape.
	perClient := [][]float64{{1, 2, 3, 4}, nil}
	bins := tierBins(perClient, 2, 4)
	if len(bins) != 4 {
		t.Fatalf("got %d bins, want 4", len(bins))
	}
	if bins[0].N != 4 || bins[0].P50 == nil || bins[0].P99 == nil {
		t.Fatalf("populated bin: %+v", bins[0])
	}
	if want := stats.Quantile(perClient[0], 0.99); *bins[0].P99 != want {
		t.Errorf("tier0 p99 = %v, want %v", *bins[0].P99, want)
	}
	for _, b := range bins[1:] {
		if b.N != 0 || b.P50 != nil || b.P99 != nil {
			t.Errorf("empty tier %d reported data: %+v", b.Tier, b)
		}
	}

	data, err := json.Marshal(bins)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"p99_ms":null`) {
		t.Errorf("empty bin did not serialize as null: %s", data)
	}
	if strings.Contains(string(data), `"tier":1,"n":0,"p50_ms":0`) {
		t.Errorf("empty bin serialized a garbage zero: %s", data)
	}
}

// TestTierBinsInterleaving pins the client→class mapping (client c is in
// class c mod tiers) the report and the harness both rely on.
func TestTierBinsInterleaving(t *testing.T) {
	perClient := [][]float64{{10}, {20}, {30}, {40}}
	bins := tierBins(perClient, 4, 2)
	if bins[0].N != 2 || bins[1].N != 2 {
		t.Fatalf("bins %+v, want 2 samples each", bins)
	}
	want0 := stats.Quantile([]float64{10, 30}, 0.99)
	want1 := stats.Quantile([]float64{20, 40}, 0.99)
	if *bins[0].P99 != want0 || *bins[1].P99 != want1 {
		t.Errorf("p99s = %v/%v, want %v/%v (clients 0,2 in tier 0; 1,3 in tier 1)",
			*bins[0].P99, *bins[1].P99, want0, want1)
	}
}
