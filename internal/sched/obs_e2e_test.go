package sched

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rsin/internal/core"
	"rsin/internal/obs"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// scrape fetches one endpoint of the ops server.
func scrape(t *testing.T, base, path string) (string, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// promValue extracts a plain counter/gauge sample from Prometheus text.
func promValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in exposition:\n%s", name, text)
	return 0
}

// goldenMetricNames is every instrument name an instrumented MaxFlow
// scheduler exported before the Stats counters became a scrape-time
// projection (captured from that commit): dashboards key on these, so a
// rename or a dropped series must fail here, not in production.
var goldenMetricNames = []string{
	"rsin_sched_canceled_total",
	"rsin_sched_cycles_total",
	"rsin_sched_deferred_total",
	"rsin_sched_epoch_solve_ms",
	"rsin_sched_epochs_total",
	"rsin_sched_failed_total",
	"rsin_sched_fault_ops_total",
	"rsin_sched_free_resources",
	"rsin_sched_gang_severs_total",
	"rsin_sched_gang_submit_to_grant_ms",
	"rsin_sched_gangs_activated_total",
	"rsin_sched_gangs_canceled_total",
	"rsin_sched_gangs_failed_total",
	"rsin_sched_gangs_granted_total",
	"rsin_sched_gangs_serviced_total",
	"rsin_sched_gangs_submitted_total",
	"rsin_sched_grant_to_release_ms",
	"rsin_sched_granted_tier0_total",
	"rsin_sched_granted_tier1_total",
	"rsin_sched_granted_tier2_total",
	"rsin_sched_granted_tier3_total",
	"rsin_sched_granted_tier4_total",
	"rsin_sched_granted_tier5_total",
	"rsin_sched_granted_tier6_total",
	"rsin_sched_granted_tier7_total",
	"rsin_sched_granted_total",
	"rsin_sched_preempts_total",
	"rsin_sched_rejected_total",
	"rsin_sched_repair_ops_total",
	"rsin_sched_restarts_total",
	"rsin_sched_serviced_total",
	"rsin_sched_severed_total",
	"rsin_sched_submit_to_grant_ms",
	"rsin_sched_submit_to_grant_tier0_ms",
	"rsin_sched_submit_to_grant_tier1_ms",
	"rsin_sched_submit_to_grant_tier2_ms",
	"rsin_sched_submit_to_grant_tier3_ms",
	"rsin_sched_submit_to_grant_tier4_ms",
	"rsin_sched_submit_to_grant_tier5_ms",
	"rsin_sched_submit_to_grant_tier6_ms",
	"rsin_sched_submit_to_grant_tier7_ms",
	"rsin_sched_submitted_total",
	"rsin_sched_usable_resources",
	"rsin_solver_arc_scans_total",
	"rsin_solver_augmentations_total",
	"rsin_solver_cold_solves_total",
	"rsin_solver_fast_paths_total",
	"rsin_solver_multi_fast_path_total",
	"rsin_solver_multi_gap_units_total",
	"rsin_solver_multi_greedy_total",
	"rsin_solver_multi_lp_total",
	"rsin_solver_multi_retries_total",
	"rsin_solver_multi_search_total",
	"rsin_solver_node_visits_total",
	"rsin_solver_phases_total",
	"rsin_solver_warm_arcs_touched_total",
	"rsin_solver_warm_retractions_total",
	"rsin_solver_warm_solves_total",
	"rsin_system_cold_solves_total",
	"rsin_system_cycle_ms",
	"rsin_system_cycles_total",
	"rsin_system_deferred_total",
	"rsin_system_fast_paths_total",
	"rsin_system_fault_ops_total",
	"rsin_system_gang_resets_total",
	"rsin_system_gangs_activated_total",
	"rsin_system_gangs_submitted_total",
	"rsin_system_granted_total",
	"rsin_system_preempts_total",
	"rsin_system_repair_ops_total",
	"rsin_system_sever_acks_total",
	"rsin_system_severed_total",
	"rsin_system_unsat_total",
	"rsin_system_warm_arcs_touched_total",
	"rsin_system_warm_retractions_total",
	"rsin_system_warm_solves_total",
}

// promNames lists the instruments of a Prometheus exposition, from its
// TYPE lines.
func promNames(text string) []string {
	var names []string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	return names
}

// checkGoldenNames fails with the names an endpoint dropped or invented.
func checkGoldenNames(t *testing.T, endpoint string, got []string) {
	t.Helper()
	have := map[string]bool{}
	for _, n := range got {
		have[n] = true
	}
	for _, n := range goldenMetricNames {
		if !have[n] {
			t.Errorf("%s no longer exports %s", endpoint, n)
		}
		delete(have, n)
	}
	for n := range have {
		t.Errorf("%s exports %s, which is not in the golden list", endpoint, n)
	}
}

// TestObsEndToEnd runs the instrumented scheduler under load with
// fail->heal hardware chaos while scraping the HTTP ops endpoints, then
// validates at quiescence that every statsTable row, on both endpoints,
// agrees exactly with Scheduler.Stats(), and that the exported name set is
// the golden one.
func TestObsEndToEnd(t *testing.T) {
	const (
		clients = 16
		tasks   = 30
		shards  = 2
	)
	reg := obs.NewRegistry()
	cfg := Config{Obs: reg}
	for i := 0; i < shards; i++ {
		cfg.Shards = append(cfg.Shards, system.Config{Net: topology.Omega(8)})
	}
	s := newScheduler(t, cfg)
	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			task := system.Task{Proc: (c / shards) % 8, Need: 1}
			for i := 0; i < tasks; i++ {
				h, err := s.Submit(c%shards, task)
				if err != nil {
					continue
				}
				<-h.Done()
				if h.Err() != nil {
					continue
				}
				s.EndService(h)
			}
		}(c)
	}
	// Chaos and mid-run scrapes: the endpoints must serve consistently
	// while counters move (run with -race to pin the locking).
	rng := rand.New(rand.NewSource(11))
	nLinks := len(cfg.Shards[0].Net.Links)
	for f := 0; f < 10; f++ {
		shard, link := rng.Intn(shards), rng.Intn(nLinks)
		if err := s.FailLink(shard, link); err == nil {
			time.Sleep(500 * time.Microsecond)
			s.RepairLink(shard, link)
		}
		scrape(t, srv.URL, "/metrics")
		scrape(t, srv.URL, "/metrics.json")
	}
	wg.Wait()

	st := s.Stats()
	text, ctype := scrape(t, srv.URL, "/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}
	for _, row := range statsTable {
		want := reflect.ValueOf(row.field(&st)).Elem().Int()
		if got := promValue(t, text, row.name); got != want {
			t.Errorf("/metrics %s = %d, Stats says %d", row.name, got, want)
		}
	}
	checkGoldenNames(t, "/metrics", promNames(text))
	// The latency histogram must have one submit-to-grant sample per grant
	// of a single-unit task (every admitted task here needs one unit).
	if got := promValue(t, text, "rsin_sched_submit_to_grant_ms_count"); got != st.Submitted-st.Failed-st.Canceled {
		t.Errorf("submit_to_grant count = %d, want %d", got, st.Submitted-st.Failed-st.Canceled)
	}

	jsonBody, ctype := scrape(t, srv.URL, "/metrics.json")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/metrics.json content type %q", ctype)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(jsonBody), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	var jsonNames []string
	for _, m := range []map[string]int64{snap.Counters, snap.Gauges} {
		for name := range m {
			jsonNames = append(jsonNames, name)
		}
	}
	for name := range snap.Histograms {
		jsonNames = append(jsonNames, name)
	}
	checkGoldenNames(t, "/metrics.json", jsonNames)
	for _, row := range statsTable {
		got, ok := snap.Counters[row.name]
		if row.gauge {
			got, ok = snap.Gauges[row.name]
		}
		if want := reflect.ValueOf(row.field(&st)).Elem().Int(); !ok || got != want {
			t.Errorf("/metrics.json %s = %d (present %v, gauge %v), Stats says %d", row.name, got, ok, row.gauge, want)
		}
	}
	if n := snap.Histograms["rsin_sched_epoch_solve_ms"].N; int64(n) != 0 && int64(n) > st.Epochs {
		t.Errorf("solve histogram N = %d > epochs %d", n, st.Epochs)
	}

	traceBody, _ := scrape(t, srv.URL, "/trace?n=5")
	var tr struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(traceBody), &tr); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if tr.Total == 0 || len(tr.Events) == 0 || len(tr.Events) > 5 {
		t.Errorf("trace total=%d events=%d, want active trace capped at 5", tr.Total, len(tr.Events))
	}
	for _, e := range tr.Events {
		if e.Kind == "" {
			t.Errorf("trace event without kind: %+v", e)
		}
	}

	if body, _ := scrape(t, srv.URL, "/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}
	index, _ := scrape(t, srv.URL, "/")
	for _, link := range []string{"/metrics", "/metrics.json", "/trace", "/debug/pprof/"} {
		if !strings.Contains(index, link) {
			t.Errorf("index missing %s", link)
		}
	}
}

// TestGangLabelsReachTrace: the name a client gives a gang or a collective
// is the Result of the "gangsubmit" event, read back from /trace — the one
// place that ties the gang ID every later event carries to the client's
// name for it. Unlabelled gangs record none.
func TestGangLabelsReachTrace(t *testing.T) {
	reg := obs.NewRegistry()
	s := newScheduler(t, Config{Obs: reg, Shards: []system.Config{{Net: topology.Omega(8)}}})
	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()

	for _, label := range []string{"step-17", ""} {
		gh, err := s.SubmitGang(0, GangSpec{Members: []system.Task{{Proc: 0}, {Proc: 1}}, Label: label})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, gh, "gang")
		if err := s.EndGang(gh); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.RunCollective(context.Background(), 0, CollectiveSpec{
		Pattern: core.RingAllReduce, Procs: []int{2, 3, 4}, Label: "grads",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunCollective(context.Background(), 0, CollectiveSpec{
		Pattern: core.RingReduceScatter, Procs: []int{5, 6},
	}); err != nil {
		t.Fatal(err)
	}

	body, _ := scrape(t, srv.URL, "/trace")
	var tr struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	var got []string
	for _, e := range tr.Events {
		// The system layer records its own "gangsubmit" (Val = gang ID, no
		// Task); the service's carries the gang ID as Task.
		if e.Kind == evGangSubmit && e.Task != 0 {
			got = append(got, e.Result)
		}
	}
	want := []string{"step-17", ""}
	for pi := 0; pi < res.Phases; pi++ {
		want = append(want, "grads/p"+strconv.Itoa(pi))
	}
	want = append(want, core.RingReduceScatter.String()+"/p0")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gangsubmit labels on /trace = %q, want %q", got, want)
	}
}
