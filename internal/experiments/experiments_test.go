package experiments

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"rsin/internal/heuristic"
	"rsin/internal/topology"
	"rsin/internal/workload"
)

// parsePct converts a "12.3%" cell back to a float in [0,1].
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), "%"))
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad percentage cell %q: %v", s, err)
	}
	return v / 100
}

func TestE1AllocatesAllFive(t *testing.T) {
	tab := E1Fig2()
	if len(tab.Rows) != 5 {
		t.Fatalf("E1 allocated %d rows, want 5", len(tab.Rows))
	}
	seenP := map[string]bool{}
	seenR := map[string]bool{}
	for _, r := range tab.Rows {
		seenP[r[0]] = true
		seenR[r[1]] = true
	}
	for _, p := range []string{"p1", "p3", "p5", "p7", "p8"} {
		if !seenP[p] {
			t.Fatalf("E1 missing request %s", p)
		}
	}
	for _, r := range []string{"r1", "r3", "r5", "r7", "r8"} {
		if !seenR[r] {
			t.Fatalf("E1 missing resource %s", r)
		}
	}
}

// TestE4Shape asserts the paper's headline comparison: optimal blocking is
// small and the address-mapping heuristic blocks several times more.
func TestE4Shape(t *testing.T) {
	tab := E4CubeBlocking(1, 400)
	for _, row := range tab.Rows {
		opt := parsePct(t, row[1])
		grd := parsePct(t, row[2])
		adr := parsePct(t, row[3])
		if opt > grd+1e-9 || opt > adr+1e-9 {
			t.Fatalf("optimal blocks more than a heuristic: %v", row)
		}
	}
	// At p=0.75 (the contended regime) the gap must be wide.
	row := tab.Rows[2]
	opt, adr := parsePct(t, row[1]), parsePct(t, row[3])
	if opt > 0.10 {
		t.Fatalf("optimal blocking %.3f, paper band is a few percent", opt)
	}
	if adr < 3*opt {
		t.Fatalf("address mapping %.3f not clearly worse than optimal %.3f", adr, opt)
	}
}

func TestE5OmegaUnderFivePercent(t *testing.T) {
	tab := E5OmegaBlocking(2, 300)
	for _, row := range tab.Rows {
		if opt := parsePct(t, row[1]); opt > 0.05 {
			t.Fatalf("omega %s optimal blocking %.3f > 5%%", row[0], opt)
		}
	}
}

func TestE6GapGrowsWithOccupancy(t *testing.T) {
	tab := E6OccupancySweep(3, 300)
	firstAdr := parsePct(t, tab.Rows[0][2])
	lastAdr := parsePct(t, tab.Rows[len(tab.Rows)-1][2])
	if lastAdr <= firstAdr {
		t.Fatalf("address-mapping blocking did not grow with occupancy: %v -> %v", firstAdr, lastAdr)
	}
	for _, row := range tab.Rows {
		if parsePct(t, row[1]) > parsePct(t, row[2])+1e-9 {
			t.Fatalf("optimal worse than heuristic at occupancy %s", row[0])
		}
	}
}

func TestE7ExtraStagesReduceBlocking(t *testing.T) {
	tab := E7ExtraStages(4, 300)
	base := parsePct(t, tab.Rows[0][3])  // address mapping on plain omega
	plus2 := parsePct(t, tab.Rows[2][3]) // address mapping with 2 extra stages
	if plus2 >= base {
		t.Fatalf("extra stages did not reduce arbitrary-mapping blocking: %.3f -> %.3f", base, plus2)
	}
	// Optimal on omega+2 at full load should be (near) zero.
	if opt := parsePct(t, tab.Rows[2][2]); opt > 0.02 {
		t.Fatalf("omega+2 optimal blocking %.3f, want ~0", opt)
	}
}

func TestE10TokenBeatsMonitor(t *testing.T) {
	tab := E10TokenVsMonitor(5, 10)
	for _, row := range tab.Rows {
		clocks, _ := strconv.ParseFloat(row[1], 64)
		instr, _ := strconv.ParseFloat(row[3], 64)
		if clocks <= 0 || instr <= 0 {
			t.Fatalf("empty measurements: %v", row)
		}
		if instr <= clocks {
			t.Fatalf("monitor (%v instr) not slower than token (%v clocks)", instr, clocks)
		}
	}
}

func TestE11HasFourDisciplines(t *testing.T) {
	tab := E11TableII(6)
	if len(tab.Rows) != 4 {
		t.Fatalf("Table II rows = %d, want 4", len(tab.Rows))
	}
	wantProblems := []string{"maximum flow", "minimum cost flow", "real multicommodity flow", "integer multicommodity flow"}
	for i, row := range tab.Rows {
		if row[1] != wantProblems[i] {
			t.Fatalf("row %d problem %q, want %q", i, row[1], wantProblems[i])
		}
	}
}

func TestE12RatioBounded(t *testing.T) {
	tab := E12DinicScaling(7, 20)
	var ratios []float64
	for _, row := range tab.Rows {
		r, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, r)
	}
	// The normalized cost must not grow with size (the bound holds).
	if ratios[len(ratios)-1] > 2*ratios[0]+0.5 {
		t.Fatalf("Dinic cost outgrew the V^2/3 E bound: %v", ratios)
	}
}

func TestE13MostlyIntegral(t *testing.T) {
	tab := E13Integrality(8, 40)
	for _, row := range tab.Rows {
		parts := strings.Split(row[1], "/")
		hit, _ := strconv.Atoi(parts[0])
		n, _ := strconv.Atoi(parts[1])
		if n == 0 || hit*3 < n*2 {
			t.Fatalf("%s: only %s LP optima integral", row[0], row[1])
		}
	}
}

func TestE14TableShape(t *testing.T) {
	tab := E14LoadBalance(9)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 loads x 2 schedulers)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		util, _ := strconv.ParseFloat(row[2], 64)
		if util <= 0 || util > 1 {
			t.Fatalf("utilization %v out of range: %v", util, row)
		}
	}
}

func TestE15PoliciesTradeCyclesForBatching(t *testing.T) {
	tab := E15CyclePolicy(11)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	cycles := func(row []string) int {
		v, _ := strconv.Atoi(row[1])
		return v
	}
	immediate := cycles(tab.Rows[0])
	batch4 := cycles(tab.Rows[2])
	if batch4 >= immediate {
		t.Fatalf("batch>=4 ran %d cycles, immediate %d", batch4, immediate)
	}
}

func TestE16PlacementOrdering(t *testing.T) {
	tab := E16Placement(12, 80)
	cont := parsePct(t, tab.Rows[0][1])
	opt := parsePct(t, tab.Rows[2][1])
	if opt > cont+1e-9 {
		t.Fatalf("optimized placement (%v) worse than contiguous (%v)", opt, cont)
	}
}

// TestE17CircuitWinsForLongTasks asserts the §II modeling rationale: for
// long tasks the RSIN (circuit-switched, destination-free) delivers faster
// than store-and-forward packet switching.
func TestE17CircuitWinsForLongTasks(t *testing.T) {
	tab := E17CircuitVsPacket(13, 30)
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	last := tab.Rows[len(tab.Rows)-1] // longest task length
	pkt, rsn := parse(last[1]), parse(last[3])
	if rsn >= pkt {
		t.Fatalf("RSIN (%v) not faster than packets (%v) for long tasks", rsn, pkt)
	}
	// RSIN must beat fixed-destination circuit switching at every length
	// (rerouting freedom can only help).
	for _, row := range tab.Rows {
		if parse(row[3]) > parse(row[2])+1e-9 {
			t.Fatalf("RSIN slower than fixed-destination circuits at L=%s: %v", row[0], row)
		}
	}
}

// TestE18GammaDegradesGracefully: under link failures the multipath gamma
// network's optimal blocking stays far below the unique-path omega's.
func TestE18GammaDegradesGracefully(t *testing.T) {
	tab := E18FaultTolerance(14, 150)
	last := tab.Rows[len(tab.Rows)-1] // highest failure rate
	omegaOpt := parsePct(t, last[1])
	omegaAdr := parsePct(t, last[2])
	gammaOpt := parsePct(t, last[3])
	if gammaOpt >= omegaOpt {
		t.Fatalf("gamma (%v) should degrade less than omega (%v)", gammaOpt, omegaOpt)
	}
	if omegaOpt >= omegaAdr {
		t.Fatalf("optimal (%v) should stay below address mapping (%v) under failures", omegaOpt, omegaAdr)
	}
}

// TestExactBlockingAgreesWithMonteCarlo: the closed-form enumeration and
// the E4-style Monte Carlo ensemble must agree within sampling error on
// the 8x8 cube at the headline operating point.
func TestExactBlockingAgreesWithMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("2^16 max-flow solves")
	}
	build := func() *topology.Network { return topology.IndirectCube(8) }
	exact := ExactBlocking(build, 0.75, 0.75)
	if exact <= 0 || exact > 0.05 {
		t.Fatalf("exact optimal blocking %.5f outside the paper's optimal band", exact)
	}
	rng := rand.New(rand.NewSource(15))
	mc := blockingEnsemble(rng, build, heuristic.Optimal,
		workload.Config{PRequest: 0.75, PFree: 0.75}, 0, 3000)
	if diff := math.Abs(mc.Mean() - exact); diff > 3*mc.CI95()+1e-4 {
		t.Fatalf("Monte Carlo %.5f vs exact %.5f (diff %.5f, ci %.5f)",
			mc.Mean(), exact, diff, mc.CI95())
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "hello")
	s := tab.String()
	for _, want := range []string{"== T: demo ==", "a  bb", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestAllQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness too slow for -short")
	}
	if len(Suite) != 14 {
		t.Fatalf("Suite lists %d experiments", len(Suite))
	}
	for _, e := range Suite {
		tab := e.Run(1, 200)
		if tab.ID != e.ID {
			t.Errorf("Suite row %s runs table %s", e.ID, tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", tab.ID)
		}
	}
}
