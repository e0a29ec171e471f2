// Package faultinject provides deterministic, scriptable software fault
// injection for the system life cycle. An Injector counts calls per named
// fault point (system.FaultCycle, system.FaultEndTransmission) and fails
// exactly the scripted ones, so recovery tests and load drivers can force
// solver errors, EndTransmission failures and (by wedging grants) deadlock
// scenarios at a reproducible instant instead of waiting for entropy.
//
// Hardware faults are not scripted here. A link, switchbox or resource
// failure enters a System only as a batch through ApplyFaults (in a
// service, Scheduler.ApplyFaults, or rsinserve -linkfault), and that
// call's return — the ops that changed the fabric, the severed tasks — is
// the fault's one report.
//
// An Injector is safe for concurrent use: one instance may back every
// shard of a scheduling service, its call counters shared service-wide.
//
// Scripts are comma-separated point:trigger fields:
//
//	cycle:3                    fail the 3rd Cycle call
//	endtransmission:1          fail the 1st EndTransmission call
//	cycle:%100                 fail every 100th Cycle call
//	cycle:p=0.01               fail each Cycle call with probability 0.01
//	cycle:3,cycle:9,endtransmission:%50
//
// Probability triggers draw from a deterministically seeded generator
// (override with Seed), so "random" soak runs replay exactly. Point names
// are validated against the system's fault points, so a misspelled script
// is an error at Parse time, never a scenario that silently fails to fire.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"rsin/internal/system"
)

// ErrInjected is the error every injected fault wraps; match it with
// errors.Is to tell scripted failures from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// points a script may name.
var knownPoints = map[string]bool{
	system.FaultCycle:           true,
	system.FaultEndTransmission: true,
}

type rule struct {
	at    map[int]bool // 1-based call numbers that fail
	every int          // additionally fail every Nth call; 0 = off
	prob  float64      // additionally fail with this probability; 0 = off
}

// Injector scripts which calls at which fault points fail.
type Injector struct {
	mu    sync.Mutex
	rules map[string]*rule
	calls map[string]int
	fired int
	rng   *rand.Rand
}

// New returns an empty Injector; without scripted rules its hooks never
// fire. Probability triggers use a fixed default seed — call Seed to vary.
func New() *Injector {
	return &Injector{
		rules: map[string]*rule{},
		calls: map[string]int{},
		rng:   rand.New(rand.NewSource(1)),
	}
}

// Seed reseeds the generator behind probability triggers, so distinct
// soak runs see distinct (but individually replayable) fault schedules.
// It returns the Injector for chaining.
func (in *Injector) Seed(seed int64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rng = rand.New(rand.NewSource(seed))
	return in
}

// FailAt scripts the nth (1-based) call at point to fail. It returns the
// Injector for chaining.
func (in *Injector) FailAt(point string, nth int) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rule(point)
	r.at[nth] = true
	return in
}

// FailEvery scripts every nth call at point to fail. It returns the
// Injector for chaining.
func (in *Injector) FailEvery(point string, nth int) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rule(point).every = nth
	return in
}

// FailProb scripts each call at point to fail independently with
// probability p (0 < p <= 1). It returns the Injector for chaining.
func (in *Injector) FailProb(point string, p float64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rule(point).prob = p
	return in
}

// rule returns the rule for a point, creating it. Callers hold in.mu.
func (in *Injector) rule(point string) *rule {
	r := in.rules[point]
	if r == nil {
		r = &rule{at: map[int]bool{}}
		in.rules[point] = r
	}
	return r
}

// Parse builds an Injector from a script (see the package comment for the
// grammar). An empty script yields an Injector that never fires; a
// malformed field — unknown point, bad trigger, a third :field — is an
// error.
func Parse(spec string) (*Injector, error) {
	in := New()
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		point, trigger, ok := strings.Cut(field, ":")
		if !ok || point == "" || trigger == "" {
			return nil, fmt.Errorf("faultinject: %q is not point:trigger", field)
		}
		if !knownPoints[point] {
			return nil, fmt.Errorf("faultinject: %q: unknown fault point %q (want %q or %q)",
				field, point, system.FaultCycle, system.FaultEndTransmission)
		}
		if _, action, hasAction := strings.Cut(trigger, ":"); hasAction {
			return nil, fmt.Errorf("faultinject: %q: action %q: hardware faults are not scripted; "+
				"apply them with Scheduler.ApplyFaults or rsinserve -linkfault", field, action)
		}
		switch {
		case strings.HasPrefix(trigger, "%"):
			n, err := strconv.Atoi(strings.TrimPrefix(trigger, "%"))
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("faultinject: %q: %%N trigger needs a positive period", field)
			}
			in.FailEvery(point, n)
		case strings.HasPrefix(trigger, "p="):
			p, err := strconv.ParseFloat(strings.TrimPrefix(trigger, "p="), 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("faultinject: %q: p= trigger needs a probability in (0, 1]", field)
			}
			in.FailProb(point, p)
		default:
			n, err := strconv.Atoi(trigger)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("faultinject: %q: trigger must be N, %%N or p=P", field)
			}
			in.FailAt(point, n)
		}
	}
	return in, nil
}

// Hook is the system.Config.FaultHook implementation: it counts the call
// and fails it if scripted. The returned error wraps ErrInjected.
func (in *Injector) Hook(point string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls[point]++
	r := in.rules[point]
	if r == nil {
		return nil
	}
	n := in.calls[point]
	if r.at[n] || (r.every > 0 && n%r.every == 0) || (r.prob > 0 && in.rng.Float64() < r.prob) {
		in.fired++
		return fmt.Errorf("%w: %s call %d", ErrInjected, point, n)
	}
	return nil
}

// Calls reports how many times point has been consulted via Hook.
func (in *Injector) Calls(point string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[point]
}

// Fired reports how many faults Hook has injected across all points.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}
