package queueing

import (
	"math"
	"math/rand"
	"testing"

	"rsin/internal/core"
	"rsin/internal/sim"
	"rsin/internal/topology"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestErlangBKnownValues(t *testing.T) {
	// Classic table values.
	cases := []struct {
		c    int
		a    float64
		want float64
	}{
		{1, 1, 0.5},
		{2, 1, 0.2},
		{2, 2, 0.4},
		{10, 5, 0.018385},
		{0, 3, 1},
	}
	for _, tc := range cases {
		if got := ErlangB(tc.c, tc.a); !approx(got, tc.want, 1e-4) {
			t.Fatalf("ErlangB(%d, %v) = %v, want %v", tc.c, tc.a, got, tc.want)
		}
	}
}

func TestErlangBMonotone(t *testing.T) {
	for c := 1; c < 20; c++ {
		if ErlangB(c, 5) <= ErlangB(c+1, 5) {
			t.Fatalf("ErlangB not decreasing in c at c=%d", c)
		}
	}
	for a := 1.0; a < 10; a++ {
		if ErlangB(5, a) >= ErlangB(5, a+1) {
			t.Fatalf("ErlangB not increasing in a at a=%v", a)
		}
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { ErlangB(-1, 1) },
		func() { Utilization(0, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad input accepted")
				}
			}()
			fn()
		}()
	}
}

func TestPatelAcceptanceBasics(t *testing.T) {
	// One 2x2 stage at full load: p' = 1 - (1/2)^2 = 0.75.
	if got := PatelAcceptance(2, 1, 1); !approx(got, 0.75, 1e-12) {
		t.Fatalf("one stage: %v", got)
	}
	// Acceptance decreases with stage count and increases as load drops.
	if PatelAcceptance(2, 3, 1) >= PatelAcceptance(2, 2, 1) {
		t.Fatal("not decreasing in stages")
	}
	if PatelAcceptance(2, 3, 0.25) <= PatelAcceptance(2, 3, 1) {
		t.Fatal("not increasing as load drops")
	}
	if got := PatelAcceptance(2, 3, 0); got != 1 {
		t.Fatalf("zero load acceptance %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad args accepted")
		}
	}()
	PatelAcceptance(1, 1, 0.5)
}

// TestPatelMatchesUnbufferedSimulation validates Patel's recurrence
// against a direct simulation of an unbuffered Omega (= delta 2^3) under
// independent uniform destinations: each conflict at a switch output
// drops all but one request.
func TestPatelMatchesUnbufferedSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := topology.Omega(8)
	const trials = 20000
	accepted, offered := 0, 0
	for i := 0; i < trials; i++ {
		// Independent uniform destinations at full load.
		winners := map[int]int{} // link -> request index (first wins; tie broken randomly by order shuffle)
		order := rng.Perm(8)
		for _, p := range order {
			dest := rng.Intn(8)
			c := net.FindPath(p, func(r int) bool { return r == dest })
			offered++
			ok := true
			for _, l := range c.Links {
				if w, taken := winners[l]; taken && w != p {
					ok = false
					break
				}
			}
			if ok {
				accepted++
				for _, l := range c.Links {
					winners[l] = p
				}
			}
		}
	}
	measured := float64(accepted) / float64(offered)
	want := PatelAcceptance(2, 3, 1)
	// Patel's stage-independence assumption is known to be slightly
	// pessimistic (measured throughput runs a few percent above the
	// recurrence); accept a 5-point band and require the bias direction.
	if math.Abs(measured-want) > 0.05 {
		t.Fatalf("measured acceptance %.4f vs Patel %.4f", measured, want)
	}
	if measured < want-0.01 {
		t.Fatalf("simulation below the analytic estimate (%.4f < %.4f): arbitration bug?", measured, want)
	}
}

// TestSimMatchesAnalyticAtLightLoad validates the discrete-event simulator
// against M/M/c theory in a regime where the interconnection network never
// blocks (crossbar, light load): measured utilization must match
// lambda_total * E[S] / c and the system behaves like c parallel servers.
func TestSimMatchesAnalyticAtLightLoad(t *testing.T) {
	const (
		procs        = 8
		lambdaPer    = 0.05
		transmitMean = 0.5
		serviceMean  = 1.5
		horizon      = 20000.0
	)
	net := topology.Crossbar(procs, procs)
	m, err := sim.Run(sim.Config{
		Net: net,
		Schedule: func(n *topology.Network, r []core.Request, a []core.Avail) (*core.Mapping, error) {
			return core.ScheduleMaxFlow(n, r, a)
		},
		ArrivalRate:  lambdaPer,
		TransmitTime: transmitMean,
		ServiceTime:  serviceMean,
		Horizon:      horizon,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	lambdaTot := lambdaPer * procs
	holding := transmitMean + serviceMean // resource busy through transmit + service
	wantUtil := Utilization(procs, lambdaTot, 1/holding)
	if !approx(m.Utilization, wantUtil, 0.02) {
		t.Fatalf("sim utilization %.4f vs analytic %.4f", m.Utilization, wantUtil)
	}
	// At this load blocking is negligible, so response ~ transmit+service
	// plus a tiny wait.
	if m.MeanResp < holding*0.9 || m.MeanResp > holding*1.3 {
		t.Fatalf("mean response %.3f vs service demand %.3f", m.MeanResp, holding)
	}
	// Erlang-B cross-check: loss would be tiny at a = lambda*holding.
	if b := ErlangB(procs, lambdaTot*holding); b > 0.01 {
		t.Fatalf("analytic loss %.4f unexpectedly high for the chosen regime", b)
	}
}
