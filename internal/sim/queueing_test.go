package sim

import (
	"math"
	"testing"

	"rsin/internal/queueing"
	"rsin/internal/topology"
)

// TestLightLoadUtilizationMatchesTheory holds the simulator to the
// classical model at E14's light operating point (EXPERIMENTS.md): on an
// Omega-8 at 0.3 tasks per processor per unit time, each holding its
// resource for E[S] = 0.4 + 0.6, the RSIN is not the bottleneck, so every
// offered task is served and the measured utilization must match
// queueing.Utilization — lambda*E[S]/c — within 2%. Each seed's horizon
// offers ≈24k tasks, enough that the run's own noise is a fraction of that.
func TestLightLoadUtilizationMatchesTheory(t *testing.T) {
	const (
		rate, transmit, service = 0.3, 0.4, 0.6
		horizon                 = 10000
	)
	net := topology.Omega(8)
	lambda := rate * float64(net.Procs)
	want := queueing.Utilization(net.Ress, lambda, 1/(transmit+service))
	for seed := int64(1); seed <= 2; seed++ {
		m, err := Run(Config{
			Net: net, Schedule: optimal,
			ArrivalRate: rate, TransmitTime: transmit, ServiceTime: service,
			Horizon: horizon, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Dropped != 0 {
			t.Fatalf("seed %d: %d tasks dropped with unbounded queues", seed, m.Dropped)
		}
		if rel := math.Abs(m.Utilization-want) / want; rel > 0.02 {
			t.Errorf("seed %d: utilization %.4f, theory %.4f (%.1f%% off, tolerance 2%%)", seed, m.Utilization, want, 100*rel)
		}
		t.Logf("seed %d: utilization %.4f, theory %.4f, %d tasks", seed, m.Utilization, want, m.Offered)
	}
}
