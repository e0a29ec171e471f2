package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// manifest mirrors ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func keys(m map[string]metricValue) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d names, BENCHMARK.json has %d\n emitted: %v\n file:    %v", what, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: emitted %q where BENCHMARK.json has %q", what, got[i], want[i])
		}
	}
}

// TestNamesMatchManifest runs every workload at smoke size through the
// driver's code path, untraced and traced, and holds the emitted workload
// and metric names to BENCHMARK.json's: the committed artifact and the
// binary cannot drift apart.
func TestNamesMatchManifest(t *testing.T) {
	m := readManifest(t)

	var fileWorkloads, specWorkloads []string
	for _, w := range m.Workloads {
		fileWorkloads = append(fileWorkloads, w.Name)
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is not [A-Za-z0-9_.-]+", w.Name)
		}
		if def := findWorkload(w.Name); def != nil && def.Why != w.Why {
			t.Errorf("workload %s: why differs between spec.go and BENCHMARK.json", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
	for _, w := range workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	sameSet(t, "workloads", specWorkloads, fileWorkloads)

	var fileE2E, fileLayer []string
	specE2E := map[string]metricDef{}
	for _, d := range endToEnd {
		specE2E[d.Name] = d
	}
	sawSetup := false
	for _, e := range m.EndToEnd {
		fileE2E = append(fileE2E, e.Name)
		d := specE2E[e.Name]
		switch {
		case !nameRE.MatchString(e.Name):
			t.Errorf("end-to-end name %q is not [A-Za-z0-9_.-]+", e.Name)
		case !unitRE.MatchString(e.Unit) || e.Unit != d.Unit:
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in spec.go", e.Name, e.Unit, d.Unit)
		case e.Better != "lower" && e.Better != "higher" || e.Better != d.Better:
			t.Errorf("%s: direction %q in BENCHMARK.json, %q in spec.go", e.Name, e.Better, d.Better)
		case e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 || *e.Bound != d.Bound:
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in spec.go (must be in (0, 0.25])", e.Name, e.Bound, d.Bound)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			sawSetup = true
		}
	}
	if !sawSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	specLayer := map[string]metricDef{}
	for _, d := range perLayer {
		specLayer[d.Name] = d
	}
	for _, e := range m.PerLayer {
		fileLayer = append(fileLayer, e.Name)
		d := specLayer[e.Name]
		if !nameRE.MatchString(e.Name) || !unitRE.MatchString(e.Unit) || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer %q: unit %q direction %q in BENCHMARK.json, %q %q in spec.go", e.Name, e.Unit, e.Better, d.Unit, d.Better)
		}
	}
	if len(fileLayer) > 128 {
		t.Errorf("%d per-layer metrics, over 128", len(fileLayer))
	}

	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, _, err := driverRun(w, 1, 200*time.Millisecond, false, true, false)
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			sameSet(t, w.Name+" end-to-end", keys(res.Metrics), fileE2E)
			res, _, err = driverRun(w, 1, 400*time.Millisecond, true, true, false)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			sameSet(t, w.Name+" per-layer", keys(res.Metrics), fileLayer)
		})
	}
}
