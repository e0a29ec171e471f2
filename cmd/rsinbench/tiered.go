package main

import (
	"fmt"
	"sync"
	"time"

	"rsin/internal/sched"
	"rsin/internal/stats"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// tierLatency is one priority class's end-to-end latency distribution in
// the tiered comparison run. The percentiles are pointers: a class that
// produced no samples (every client aborted, or the class has no clients
// at this load shape) reports null, never a zero that could masquerade
// as sub-millisecond latency downstream.
type tierLatency struct {
	Tier int      `json:"tier"`
	N    int      `json:"n"`
	P50  *float64 `json:"p50_ms"`
	P99  *float64 `json:"p99_ms"`
}

// tieredReport is the SLO-tier section of BENCH_sched.json (schema v4):
// the same contended workload driven twice — once untiered under the
// max-flow discipline (the baseline) and once with the clients spread
// across every priority class under min-cost + preemption — with the
// per-tier percentiles side by side. The QoS claim the tier gate in CI
// smoke enforces: tier 0's p99 must not exceed the untiered baseline's
// p99 on the identical load. Missing percentiles (empty bins) fail the
// gate instead of passing it vacuously.
type tieredReport struct {
	Topology    string        `json:"topology"`
	Procs       int           `json:"procs"`
	Ress        int           `json:"ress"`
	Clients     int           `json:"clients"`
	Tasks       int           `json:"tasks_per_client"`
	Tiers       int           `json:"tiers"`
	Preempt     bool          `json:"preempt"`
	BaselineP50 *float64      `json:"untiered_p50_ms"`
	BaselineP99 *float64      `json:"untiered_p99_ms"`
	PerTier     []tierLatency `json:"per_tier"`
	Preempts    int64         `json:"preempts"`
}

// quantilePtr is Quantile with an honest empty case: nil when there are
// no samples, instead of the zero stats.Percentiles would fabricate.
func quantilePtr(samples []float64, q float64) *float64 {
	if len(samples) == 0 {
		return nil
	}
	v := stats.Quantile(samples, q)
	return &v
}

// ms renders a nullable millisecond quantile for the summary lines.
func ms(v *float64) string {
	if v == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.3fms", *v)
}

// tierBins groups the per-client latency series by priority class
// (client c is in class c mod tiers) and computes each class's
// percentiles. Aborted clients leave nil rows; a class whose rows are
// all empty gets N=0 and nil percentiles.
func tierBins(perClient [][]float64, clients, tiers int) []tierLatency {
	bins := make([]tierLatency, 0, tiers)
	for tier := 0; tier < tiers; tier++ {
		var lat []float64
		for c := tier; c < clients; c += tiers {
			lat = append(lat, perClient[c]...)
		}
		bins = append(bins, tierLatency{
			Tier: tier, N: len(lat),
			P50: quantilePtr(lat, 0.50), P99: quantilePtr(lat, 0.99),
		})
	}
	return bins
}

// runTieredComparison measures what the priority tiers buy. The fabric is
// a deliberately over-subscribed crossbar (4 clients per processor, 4
// processors per resource) so every cycle is a contended solve: the
// untiered baseline grants an arbitrary max-cardinality subset, the
// tiered run grants the max weighted value — tier-0 queue heads win every
// cycle they appear in, so their tail latency collapses while the low
// tiers absorb the queueing.
func runTieredComparison(smoke bool) (tieredReport, error) {
	rep := tieredReport{
		Topology: "crossbar", Procs: 16, Ress: 4,
		Clients: 64, Tasks: 100, Tiers: system.MaxTier + 1, Preempt: true,
	}
	if smoke {
		rep.Procs, rep.Ress, rep.Clients, rep.Tasks = 8, 2, 16, 30
	}

	// Untiered baseline: max-flow discipline, no classes.
	basePerClient, _, err := driveTieredClients(rep, false)
	if err != nil {
		return rep, fmt.Errorf("untiered baseline: %w", err)
	}
	var baseLat []float64
	for _, lat := range basePerClient {
		baseLat = append(baseLat, lat...)
	}
	rep.BaselineP50 = quantilePtr(baseLat, 0.50)
	rep.BaselineP99 = quantilePtr(baseLat, 0.99)

	// Tiered run: identical load, min-cost discipline, client c in
	// class c mod tiers, preemption armed.
	tierPerClient, st, err := driveTieredClients(rep, true)
	if err != nil {
		return rep, fmt.Errorf("tiered run: %w", err)
	}
	rep.Preempts = st.Preempts
	rep.PerTier = tierBins(tierPerClient, rep.Clients, rep.Tiers)
	return rep, nil
}

// driveTieredClients is the shared client harness: every client submits
// rep.Tasks single-resource tasks on processor c mod procs and, when
// tiered, in priority class c mod tiers.
func driveTieredClients(rep tieredReport, tiered bool) ([][]float64, sched.Stats, error) {
	sc := system.Config{Net: topology.Crossbar(rep.Procs, rep.Ress)}
	scfg := sched.Config{Shards: []system.Config{sc}}
	if tiered {
		scfg.Shards[0].Discipline = system.MinCost
		scfg.Preempt = rep.Preempt
	}
	s, err := sched.New(scfg)
	if err != nil {
		return nil, sched.Stats{}, err
	}
	defer s.Close()

	latencies := make([][]float64, rep.Clients)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for c := 0; c < rep.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			task := system.Task{Proc: c % rep.Procs}
			if tiered {
				task.Tier = c % rep.Tiers
			}
			lat := make([]float64, 0, rep.Tasks)
			for i := 0; i < rep.Tasks; i++ {
				t0 := time.Now()
				h, err := s.Submit(0, task)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				<-h.Done()
				if h.Err() != nil {
					errOnce.Do(func() { firstErr = h.Err() })
					return
				}
				lat = append(lat, time.Since(t0).Seconds()*1e3)
				if err := s.EndService(h); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
			latencies[c] = lat
		}(c)
	}
	wg.Wait()
	return latencies, s.Stats(), firstErr
}
