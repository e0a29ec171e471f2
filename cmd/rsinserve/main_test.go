package main

import (
	"context"
	"sync"
	"testing"
	"time"

	"rsin/internal/sched"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// TestChooseSeed is the regression test for the hardcoded chaos seed: the
// server used rand.NewSource(1) unconditionally, so every -linkfault run
// replayed the identical fault schedule. The seed must now follow -seed
// when given and the clock otherwise.
func TestChooseSeed(t *testing.T) {
	now := func() int64 { return 424242 }
	if got := chooseSeed(77, now); got != 77 {
		t.Errorf("explicit -seed ignored: got %d, want 77", got)
	}
	if got := chooseSeed(-5, now); got != -5 {
		t.Errorf("negative -seed ignored: got %d, want -5", got)
	}
	if got := chooseSeed(0, now); got != 424242 {
		t.Errorf("default seed not clock-derived: got %d, want 424242", got)
	}
	// Two runs at different instants must not share a schedule.
	later := func() int64 { return 424243 }
	if chooseSeed(0, now) == chooseSeed(0, later) {
		t.Error("default seed constant across time — the old hardcoded-seed bug")
	}
	// A zero clock must not collapse into the "unset" sentinel.
	if got := chooseSeed(0, func() int64 { return 0 }); got == 0 {
		t.Error("zero clock produced the sentinel seed 0")
	}
}

// TestDrainStopsChaosFirst is the regression test for the shutdown race:
// a SIGINT during an in-flight chaos fail→heal window used to let the
// drain-deadline Close run while the injector was still alive, racing a
// repair against a closed scheduler. The injector must be stopped
// (and waited for) before the drain wait — and therefore before any
// Close — on the interrupted path.
func TestDrainStopsChaosFirst(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the signal already arrived
	clientsDone := make(chan struct{})
	var mu sync.Mutex
	var order []string
	record := func(ev string) { mu.Lock(); order = append(order, ev); mu.Unlock() }
	stopChaos := func() { record("chaos-stopped") }
	closeSched := func() {
		record("sched-closed")
		close(clientsDone) // abandoning unblocks the stragglers
	}
	if !drainClients(ctx, clientsDone, time.Millisecond, stopChaos, closeSched) {
		t.Fatal("a canceled context did not report an interrupted run")
	}
	if len(order) != 2 || order[0] != "chaos-stopped" || order[1] != "sched-closed" {
		t.Fatalf("shutdown order %v, want chaos stopped strictly before the scheduler closes", order)
	}

	// The clean path stops chaos too (the injector must heal its last
	// fault before stats are read), without ever closing the scheduler.
	order = nil
	done := make(chan struct{})
	close(done)
	if drainClients(context.Background(), done, time.Millisecond, stopChaos, closeSched) {
		t.Fatal("a completed run reported interrupted")
	}
	if len(order) != 1 || order[0] != "chaos-stopped" {
		t.Fatalf("clean-path shutdown order %v, want only the chaos stop", order)
	}
}

// TestDrainChaosHealsBeforeClose drives the real injector against a real
// scheduler through an interrupted drain: because the injector stops
// before Close, its final repair lands on a live scheduler and every
// injected fault ends healed (Repairs == LinkFaults). Under the old
// ordering the last heal raced shutdown and could be dropped.
func TestDrainChaosHealsBeforeClose(t *testing.T) {
	s, err := sched.New(sched.Config{Shards: []system.Config{{Net: topology.Omega(8)}}})
	if err != nil {
		t.Fatal(err)
	}
	net := topology.Omega(8)
	ctx, cancel := context.WithCancel(context.Background())
	stopChaos := startChaos(ctx, s, 1, len(net.Links), 200*time.Microsecond, 42)
	// Let a few fail→heal windows elapse, then interrupt mid-window.
	time.Sleep(20 * time.Millisecond)
	cancel()
	clientsDone := make(chan struct{})
	closeSched := func() {
		s.Close()
		close(clientsDone)
	}
	if !drainClients(ctx, clientsDone, time.Millisecond, stopChaos, closeSched) {
		t.Fatal("interrupted run not reported")
	}
	st := s.Stats()
	if st.LinkFaults == 0 {
		t.Fatal("chaos never injected a fault: the test exercised nothing")
	}
	if st.Repairs != st.LinkFaults {
		t.Fatalf("faults=%d repairs=%d: a fail→heal window was cut by shutdown", st.LinkFaults, st.Repairs)
	}

	// A disabled injector returns a no-op stop, safe to call repeatedly.
	stop := startChaos(context.Background(), s, 1, len(net.Links), 0, 1)
	stop()
	stop()
}
