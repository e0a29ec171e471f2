package main

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"rsin/internal/sched"
)

// The open loop. Arrivals fire on the script's schedule whether or not
// earlier ones have been answered, so a queue can build; each request is
// timed from the instant it was due, which charges a stall to the
// requests it delayed, and the generator reports how late it ran.

type outcome int

const (
	oServiced outcome = iota
	oShed
	oShedNoRetryAfter
	oTimeout
	oFailed
	oOverflow // dropped by the harness at its own outstanding cap
)

// arrivalResult is what became of one arrival.
type arrivalResult struct {
	out    outcome
	lateMS float64 // fired - due: the generator's own lateness
	latMS  float64 // answered - due
}

// runLadder fires every arrival at its due instant and returns the
// results in script order. At most limit requests are outstanding; an
// arrival beyond that is dropped and counted, never queued in the
// harness. spawn runs a request (go f() in production; a test may run it
// inline to stall the generator). onRung, when non-nil, is called on the
// generator's goroutine as the first arrival of each rung falls due.
func runLadder(arrivals []arrival, limit int, spawn func(func()), fire func(arrival) outcome, onRung func(rung int)) []arrivalResult {
	res := make([]arrivalResult, len(arrivals))
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	start := time.Now()
	rung := -1
	for i, a := range arrivals {
		due := time.Duration(a.DueNS)
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if a.Rung != rung && onRung != nil {
			onRung(a.Rung)
		}
		rung = a.Rung
		res[i].lateMS = float64(time.Since(start)-due) / 1e6
		select {
		case sem <- struct{}{}:
		default:
			res[i].out, res[i].latMS = oOverflow, res[i].lateMS
			continue
		}
		wg.Add(1)
		spawn(func() {
			defer wg.Done()
			res[i].out = fire(a)
			res[i].latMS = float64(time.Since(start)-due) / 1e6
			<-sem
		})
	}
	wg.Wait()
	return res
}

// rungStats is one offered rate's exhaustive outcome census: offered ==
// serviced + shed + timeouts + failed + overflow.
type rungStats struct {
	rate                                                float64
	offered, serviced, shed, timeouts, failed, overflow int64
	noRetryAfter                                        int64
	tier0Serviced                                       int64
	lat, lat0, late                                     []float32 // ms, sorted; lat* cover serviced requests
}

func censusLadder(arrivals []arrival, res []arrivalResult, rates []float64) []rungStats {
	rungs := make([]rungStats, len(rates))
	for k := range rungs {
		rungs[k].rate = rates[k]
	}
	for i, a := range arrivals {
		r := &rungs[a.Rung]
		r.offered++
		r.late = append(r.late, float32(res[i].lateMS))
		switch res[i].out {
		case oServiced:
			r.serviced++
			r.lat = append(r.lat, float32(res[i].latMS))
			if a.Tier == 0 {
				r.tier0Serviced++
				r.lat0 = append(r.lat0, float32(res[i].latMS))
			}
		case oShed:
			r.shed++
		case oShedNoRetryAfter:
			r.shed++
			r.noRetryAfter++
		case oTimeout:
			r.timeouts++
		case oFailed:
			r.failed++
		case oOverflow:
			r.overflow++
		}
	}
	for k := range rungs {
		slices.Sort(rungs[k].lat)
		slices.Sort(rungs[k].lat0)
		slices.Sort(rungs[k].late)
	}
	return rungs
}

// pool adds rungs up (the two overload rungs are reported pooled).
func pool(rungs ...rungStats) rungStats {
	var p rungStats
	for _, r := range rungs {
		p.offered += r.offered
		p.serviced += r.serviced
		p.shed += r.shed
		p.timeouts += r.timeouts
		p.failed += r.failed
		p.overflow += r.overflow
		p.noRetryAfter += r.noRetryAfter
		p.tier0Serviced += r.tier0Serviced
		p.lat = append(p.lat, r.lat...)
		p.lat0 = append(p.lat0, r.lat0...)
		p.late = append(p.late, r.late...)
	}
	slices.Sort(p.lat)
	slices.Sort(p.lat0)
	slices.Sort(p.late)
	return p
}

// errEnvironment marks a refusal that blames the box, not the program: the
// generator could not keep its schedule, or a stall of the VM bunched
// arrivals into a burst. runAt measures again rather than report it.
var errEnvironment = errors.New("unhealthy run")

// lateShare is the share of arrivals fired more than lateLimitMS late
// (sorted lateness in ms).
func lateShare(sortedLate []float32) float64 {
	if len(sortedLate) == 0 {
		return 0
	}
	i, _ := slices.BinarySearch(sortedLate, float32(lateLimitMS))
	return float64(len(sortedLate)-i) / float64(len(sortedLate))
}

// maxRateOK is the highest rung that serviced at least overloadOKShare of
// what was offered with p99-from-due within overloadLimitMS; 0 if none.
func maxRateOK(rungs []rungStats) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.offered > 0 && float64(r.serviced) >= overloadOKShare*float64(r.offered) && quantile(r.lat, 0.99) <= overloadLimitMS {
			best = max(best, r.rate)
		}
	}
	return best
}

// openOut is what one ladder run leaves behind.
type openOut struct {
	rungs      []rungStats
	rungDur    time.Duration
	u0, u1     usage // at the first overload rung and at the ladder's end
	stats      sched.Stats
	peakQueued int
	peakMB     float64
	conns      int64
}

// fireHTTP sends one arrival through the front door and classifies the
// answer.
func fireHTTP(e *env, d depth) func(arrival) outcome {
	deadline := overloadDeadline.String()
	return func(a arrival) outcome {
		body := []byte(fmt.Sprintf(`{"proc":%d,"tier":%d,"hold_us":%d}`, a.Proc, a.Tier, overloadHoldUS))
		var hc *http.Client
		if d == dWire {
			c := a.Proc % len(e.httpc)
			select {
			case e.streams[c] <- struct{}{}:
				defer func() { <-e.streams[c] }()
			default:
				return oOverflow
			}
			hc = e.httpc[c]
		}
		code, hdr, rep, err := post(e, d, hc, body, deadline)
		switch {
		case err != nil:
			return oFailed
		case code == http.StatusOK && rep.Event == "serviced":
			return oServiced
		case code == http.StatusServiceUnavailable && rep.Reason != "":
			if hdr.Get("Retry-After") == "" {
				return oShedNoRetryAfter
			}
			return oShed
		case code == http.StatusGatewayTimeout:
			return oTimeout
		default:
			return oFailed
		}
	}
}

// runOpen builds a fresh front door at depth d, warms it at the lowest
// rate, then offers the ladder: len(ladderRates) rungs of dur/len each.
// exercise marks the main measured run, which is refused if the generator
// was unhealthy or the shedder did not fire where it must and only there;
// the short ladders of the traced pass and the smoke tests report the
// same gen.* numbers without being judged by them.
func runOpen(w *workloadDef, d depth, seed int64, warm, dur time.Duration, exercise bool) (*openOut, error) {
	e, err := build(w, d, nil)
	if err != nil {
		return nil, err
	}
	fire := fireHTTP(e, d)
	spawn := func(f func()) { go f() }
	runLadder(genArrivals(seed+1, ladderRates[:1], int64(warm)), outstandingCap, spawn, fire, nil)

	out := &openOut{rungDur: dur / time.Duration(len(ladderRates))}
	arrivals := genArrivals(seed, ladderRates, int64(out.rungDur))
	stopHeap := watchHeap()
	st0 := e.sch.Stats()
	// CPU and allocations are taken over the two overload rungs: below
	// the ceiling the process mostly idles and what it burns per request
	// is the runtime looking for work (514 us at 640/s against 250 us at
	// 2560/s), which says nothing about the program.
	res := runLadder(arrivals, outstandingCap, spawn, fire, func(rung int) {
		if rung == len(ladderRates)-2 {
			out.u0 = usageNow()
		}
	})
	out.u1 = usageNow()
	out.peakMB = stopHeap()
	out.stats = statsDelta(st0, e.sch.Stats())
	out.peakQueued = e.srv.Admission().State().PeakQueued
	out.conns = e.conns.Load()
	out.rungs = censusLadder(arrivals, res, ladderRates)
	final := e.close()
	return out, checkOpen(e, out, final, exercise)
}

// checkOpen is the open loop's gate: every arrival in exactly one
// outcome, none unexpected, terminal accounting exact, the generator
// healthy below the ceiling, and the shedder exercised where it must be
// and only there.
func checkOpen(e *env, out *openOut, final sched.Stats, exercise bool) error {
	for _, r := range out.rungs {
		if r.offered != r.serviced+r.shed+r.timeouts+r.failed+r.overflow {
			return fmt.Errorf("rung %.0f/s: outcome census broken: offered %d != serviced %d + shed %d + timeouts %d + failed %d + overflow %d",
				r.rate, r.offered, r.serviced, r.shed, r.timeouts, r.failed, r.overflow)
		}
		if r.failed > 0 {
			return fmt.Errorf("rung %.0f/s: %d requests ended in an outcome the workload does not allow", r.rate, r.failed)
		}
		if r.noRetryAfter > 0 {
			return fmt.Errorf("rung %.0f/s: %d shed answers carried no Retry-After", r.rate, r.noRetryAfter)
		}
	}
	if err := checkFinal(e, final, out.conns); err != nil {
		return err
	}
	if !exercise {
		return nil
	}
	// Generator health, over the rungs at or below the ceiling pooled (the
	// gen.* numbers reported): above it the server's own backlog, not the
	// generator, decides what a late arrival meets.
	if below := pool(out.rungs[:3]...); below.offered > 0 {
		if share := lateShare(below.late); share > lateLimitShare {
			return fmt.Errorf("%w: %.3f of arrivals at or below 1280/s fired more than %.0f ms late (limit %.2f); the numbers would measure the generator", errEnvironment, share, lateLimitMS, lateLimitShare)
		}
		if share := float64(below.overflow) / float64(below.offered); share > overflowLimitShare {
			return fmt.Errorf("%w: %.3f of arrivals at or below 1280/s dropped at the harness's outstanding cap", errEnvironment, share)
		}
	}
	if lo := out.rungs[0]; float64(lo.shed) > quietShedShare*float64(lo.offered) {
		return fmt.Errorf("%w: did not exercise: %d of %d requests shed at %.0f/s, half the fabric ceiling", errEnvironment, lo.shed, lo.offered, lo.rate)
	}
	if hi := out.rungs[len(out.rungs)-1]; hi.shed == 0 {
		return fmt.Errorf("did not exercise: nothing shed at %.0f/s, twice the fabric ceiling", hi.rate)
	}
	return nil
}

// summarizeOpen maps a ladder run onto the metric names.
func summarizeOpen(out *openOut) *topResult {
	all := pool(out.rungs...)
	n := len(out.rungs)
	over := pool(out.rungs[n-2], out.rungs[n-1]) // 1920 + 2560
	mid := out.rungs[1]                          // 960
	ladder := out.rungDur * time.Duration(n)
	t := topStats{
		attempted: all.offered, serviced: all.serviced, window: ladder,
		tasksPerS:   float64(all.serviced) / ladder.Seconds(),
		p50:         quantile(mid.lat, 0.50),
		p99:         quantile(all.lat, 0.99),
		tier0P99:    quantile(over.lat0, 0.99),
		samples:     len(all.lat),
		peakMB:      out.peakMB,
		conns:       out.conns,
		stats:       out.stats,
		topPct:      topPercentile(len(all.lat)),
		deadlineMet: 1,
	}
	t.topMS = quantile(all.lat, t.topPct)
	if all.offered > 0 {
		t.servicedShare = float64(all.serviced) / float64(all.offered)
	}
	if over.offered > 0 {
		t.cpuUS = float64(out.u1.cpu-out.u0.cpu) / 1e3 / float64(over.offered)
		t.allocs = float64(out.u1.mallocs-out.u0.mallocs) / float64(over.offered)
	}
	missShare := 0.0
	if admitted := over.offered - over.shed - over.overflow; admitted > 0 {
		missShare = float64(over.timeouts) / float64(admitted)
		t.deadlineMet = 1 - missShare
	}
	overSecs := 2 * out.rungDur.Seconds()
	e2e := t.endToEndValues()
	e2e["goodput_per_s"] = float64(over.serviced) / overSecs
	e2e["tier0_goodput_per_s"] = float64(over.tier0Serviced) / overSecs
	extra := t.tailValues()
	extra["tail.due_p99_ms"] = quantile(mid.lat, 0.99)
	extra["tail.max_rate_ok_per_s"] = maxRateOK(out.rungs)
	extra["tail.deadline_miss_share"] = missShare
	extra["server.shed_share"] = float64(over.shed) / float64(max(over.offered, 1))
	extra["server.shed_share_640"] = float64(out.rungs[0].shed) / float64(max(out.rungs[0].offered, 1))
	extra["server.timeouts"] = float64(over.timeouts)
	extra["server.peak_queued"] = float64(out.peakQueued)
	extra["server.retry_after_missing"] = float64(all.noRetryAfter)
	below := pool(out.rungs[:3]...)
	extra["gen.late_p99_ms"] = quantile(below.late, 0.99)
	extra["gen.late_share"] = lateShare(below.late)
	extra["gen.overflow_share"] = float64(below.overflow) / float64(max(below.offered, 1))
	return &topResult{topStats: t, e2e: e2e, layer: extra}
}
