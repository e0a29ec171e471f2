package main

import (
	"strings"
	"testing"
	"time"
)

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := scriptHash(w, 7), scriptHash(w, 7), scriptHash(w, 8)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %s then %s", w.Name, a, b)
		}
		if a == c && w.Name != "untyped_sat" && w.Name != "untyped_sparse" && w.Name != "frontdoor_zero_hold" {
			t.Errorf("%s: seeds 7 and 8 generate the same script", w.Name)
		}
	}
	// The pinned-processor workloads differ by seed in the permutation.
	differ := false
	for c := 0; c < 64; c++ {
		w := findWorkload("untyped_sat")
		if newOpGen(w, 7, c).proc != newOpGen(w, 8, c).proc {
			differ = true
		}
	}
	if !differ {
		t.Error("untyped_sat: seeds 7 and 8 place every client on the same processor")
	}
}

func TestSliceDecile(t *testing.T) {
	// Eleven 1 s slices holding 10, 20, ... 110 operations in a scrambled
	// order, slice k's latencies all k ms: over slices the better decile of
	// the rate is the second highest, 100/s, and of the latency the second
	// lowest, 2 ms, whatever the pooled figures would be.
	var s series
	order := []int{3, 1, 7, 11, 5, 9, 2, 10, 4, 8, 6}
	total := 0
	for slice, k := range order {
		for i := 0; i < 10*k; i++ {
			s.add(float64(k), time.Duration(slice+1)*time.Second+time.Duration(i)*time.Millisecond)
		}
		total += 10 * k
	}
	from := time.Second
	c := cut([]*series{&s}, from, 12*time.Second, time.Second)
	if got := c.over(perSecond, true); got != 100 {
		t.Errorf("upper decile of ops/s over slices = %v, want 100", got)
	}
	if got := c.over(pct(0.5), false); got != 2 {
		t.Errorf("lower decile of slice p50s = %v, want 2", got)
	}
	if len(c.all) != total {
		t.Errorf("window holds %d samples, want %d", len(c.all), total)
	}
	// A trailing part-slice is left out of the slice statistics, not out
	// of the totals; a window shorter than a slice is one slice.
	if c := cut([]*series{&s}, from, 11500*time.Millisecond, time.Second); len(c.per) != 10 || len(c.all) != total {
		t.Errorf("10.5 s window in 1 s slices: %d slices, %d samples; want 10 and %d", len(c.per), len(c.all), total)
	}
	if got := cut([]*series{&s}, from, from+500*time.Millisecond, time.Second).over(perSecond, true); got != 60 {
		t.Errorf("short window ops/s = %v, want 60 (30 operations in half a second)", got)
	}
}

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {99999, 0.999}, {100000, 0.9999}, {5000000, 0.9999}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float32, 1000)
	for i := range sorted {
		sorted[i] = float32(i + 1)
	}
	if got := quantile(sorted, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
}

// A server that stalls must be charged to the arrivals it delayed: run
// inline, the third request stalls the generator 50 ms, so the arrivals
// due during the stall fire late, and their latency — timed from the due
// instant, not from when they were sent — and gen.late_p99_ms show it.
func TestOpenLoopTimesFromTheDueInstant(t *testing.T) {
	var arrivals []arrival
	for i := 0; i < 10; i++ {
		arrivals = append(arrivals, arrival{DueNS: int64(i) * int64(10*time.Millisecond)})
	}
	n := 0
	fire := func(arrival) outcome {
		if n++; n == 3 {
			time.Sleep(50 * time.Millisecond)
		}
		return oServiced
	}
	inline := func(f func()) { f() }
	res := runLadder(arrivals, 4, inline, fire, nil)
	if res[0].latMS > 20 || res[0].lateMS > 20 {
		t.Errorf("first arrival: late %.1f ms, latency %.1f ms; nothing had stalled yet", res[0].lateMS, res[0].latMS)
	}
	// Arrival 3 was due at 30 ms; the stall ran from 20 to 70 ms.
	if res[3].lateMS < 35 || res[3].latMS < 35 {
		t.Errorf("arrival due during the stall: late %.1f ms, latency %.1f ms; want both >= 35", res[3].lateMS, res[3].latMS)
	}
	rungs := censusLadder(arrivals, res, []float64{100})
	if late := quantile(rungs[0].late, 0.99); late < 35 {
		t.Errorf("gen.late_p99_ms = %.1f, want the stall to show (>= 35)", late)
	}
	// Arrivals 3 to 6 fired more than 5 ms late: due 30-60 ms, fired at 70.
	if share := lateShare(rungs[0].late); share < 0.35 {
		t.Errorf("gen.late_share = %.2f, want at least the four arrivals the stall delayed (0.4)", share)
	}
	if got := lateShare([]float32{0.1, 0.4, 2, 5, 30}); got != 0.4 {
		t.Errorf("lateShare of two in five = %v, want 0.4", got)
	}
}

func TestEveryArrivalLandsInExactlyOneOutcome(t *testing.T) {
	rates := []float64{2000, 4000}
	arrivals := genArrivals(3, rates, int64(50*time.Millisecond))
	outs := []outcome{oServiced, oShed, oShedNoRetryAfter, oTimeout, oFailed}
	hold := make(chan struct{})
	fire := func(a arrival) outcome {
		if a.Proc == 0 {
			<-hold // pins a slot so the cap overflows
		}
		return outs[a.Proc%len(outs)]
	}
	go func() { time.Sleep(120 * time.Millisecond); close(hold) }()
	var rungsSeen []int
	res := runLadder(arrivals, 3, func(f func()) { go f() }, fire, func(k int) { rungsSeen = append(rungsSeen, k) })
	if len(rungsSeen) != 2 || rungsSeen[0] != 0 || rungsSeen[1] != 1 {
		t.Errorf("onRung saw %v, want each rung once in order", rungsSeen)
	}
	rungs := censusLadder(arrivals, res, rates)
	var total, overflow int64
	for _, r := range rungs {
		if r.offered != r.serviced+r.shed+r.timeouts+r.failed+r.overflow {
			t.Errorf("rung %.0f: offered %d != %d+%d+%d+%d+%d", r.rate, r.offered, r.serviced, r.shed, r.timeouts, r.failed, r.overflow)
		}
		if int64(len(r.lat)) != r.serviced || int64(len(r.late)) != r.offered {
			t.Errorf("rung %.0f: %d latencies for %d serviced, %d lateness samples for %d offered", r.rate, len(r.lat), r.serviced, len(r.late), r.offered)
		}
		total += r.offered
		overflow += r.overflow
	}
	if total != int64(len(arrivals)) {
		t.Errorf("census holds %d arrivals of %d", total, len(arrivals))
	}
	if overflow == 0 {
		t.Error("the outstanding cap of 3 never overflowed; the test did not exercise it")
	}
	if all := pool(rungs...); all.offered != total || all.noRetryAfter == 0 {
		t.Errorf("pooled: offered %d of %d, shed-without-Retry-After %d", all.offered, total, all.noRetryAfter)
	}
}

func TestMaxRateOK(t *testing.T) {
	fast, slow := []float32{20, 30, 40}, []float32{20, 30, 140}
	rungs := []rungStats{
		{rate: 640, offered: 100, serviced: 100, lat: fast},
		{rate: 960, offered: 100, serviced: 99, lat: fast},
		{rate: 1280, offered: 100, serviced: 100, lat: slow}, // p99 beyond 100 ms
		{rate: 1920, offered: 100, serviced: 98, lat: fast},  // under 99% serviced
	}
	if got := maxRateOK(rungs); got != 960 {
		t.Errorf("max_rate_ok_per_s = %v, want 960", got)
	}
}

func TestLedgerRefusesADoubleHold(t *testing.T) {
	w := findWorkload("untyped_sparse")
	e, err := build(w, dSched, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.led.acquire(1, []int{5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := e.led.acquire(0, []int{5}); err != nil {
		t.Errorf("resource 5 of another shard: %v", err)
	}
	if err := e.led.acquire(1, []int{6}); err == nil {
		t.Error("resource 6 of shard 1 granted twice and the ledger said nothing")
	}
	e.led.release(1, []int{6})
	if err := e.led.acquire(1, []int{6}); err != nil {
		t.Errorf("after release: %v", err)
	}
	if !typedExact([]int{0, 1, 2, 0}, map[int]int{0: 2, 2: 1}, []int{0, 3, 2}) {
		t.Error("typedExact rejected an exact typed grant")
	}
	if typedExact([]int{0, 1, 2, 0}, map[int]int{0: 2, 2: 1}, []int{0, 2}) {
		t.Error("typedExact accepted a short typed grant")
	}
}

// A broken check must leave no metrics behind: with the ledger told that
// every resource is already held, the run reports the violation and no
// result.
func TestBrokenLedgerPrintsNoMetrics(t *testing.T) {
	w := findWorkload("untyped_sparse")
	res, _, err := driverRun(w, 1, 100*time.Millisecond, false, true, true)
	if err == nil || res != nil {
		t.Fatalf("run with a broken ledger returned result %v, error %v", res, err)
	}
	if !strings.Contains(err.Error(), "ledger") {
		t.Errorf("error does not name the ledger: %v", err)
	}
}
