package faultinject

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestFailAt(t *testing.T) {
	in := New().FailAt("cycle", 2).FailAt("cycle", 4)
	var got []bool
	for i := 0; i < 5; i++ {
		got = append(got, in.Hook("cycle") != nil)
	}
	want := []bool{false, true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d: fired=%v, want %v", i+1, got[i], want[i])
		}
	}
	if in.Calls("cycle") != 5 || in.Fired() != 2 {
		t.Fatalf("calls=%d fired=%d", in.Calls("cycle"), in.Fired())
	}
}

func TestFailEvery(t *testing.T) {
	in := New().FailEvery("endtransmission", 3)
	fired := 0
	for i := 0; i < 9; i++ {
		if err := in.Hook("endtransmission"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected error %v does not wrap ErrInjected", err)
			}
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d of 9 calls with every=3", fired)
	}
}

func TestPointsIndependent(t *testing.T) {
	in := New().FailAt("cycle", 1)
	if err := in.Hook("endtransmission"); err != nil {
		t.Fatalf("unscripted point fired: %v", err)
	}
	if err := in.Hook("cycle"); err == nil {
		t.Fatal("scripted point did not fire")
	}
}

func TestParse(t *testing.T) {
	in, err := Parse("cycle:3, endtransmission:%2 ,cycle:5")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		fired := in.Hook("cycle") != nil
		if want := i == 3 || i == 5; fired != want {
			t.Fatalf("cycle call %d: fired=%v, want %v", i, fired, want)
		}
		fired = in.Hook("endtransmission") != nil
		if want := i%2 == 0; fired != want {
			t.Fatalf("endtransmission call %d: fired=%v, want %v", i, fired, want)
		}
	}
	if in, err := Parse(""); err != nil || in.Fired() != 0 {
		t.Fatalf("empty spec: %v", err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"cycle", "cycle:", ":3", "cycle:zero", "cycle:0", "cycle:%0", "cycle:-1",
		"bogus:3",                             // unknown fault point
		"cycle:p=0", "cycle:p=2", "cycle:p=x", // probability out of range / not a number
		// A third field, malformed or not, at either point: no script
		// names an action.
		"endtransmission:3:fail-link=1",
		"cycle:3:fail-link",
		"cycle:3:faillink=1",
		"cycle:3:explode-link=1",
		"cycle:3:fail-widget=1",
		"cycle:3:fail-link=-1",
		"cycle:3:fail-link=1+",
		"cycle:3:fail-link=1+explode-res=0",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	// Well-formed hardware actions are refused too, pointing at the one
	// way a hardware fault enters a System.
	for _, hw := range []string{
		"cycle:5:fail-link=3",
		"cycle:%200:fail-box=2",
		"cycle:p=0.01:fail-res=0",
		"cycle:5:fail-link=3+fail-res=0",
	} {
		_, err := Parse(hw)
		if err == nil {
			t.Fatalf("spec %q accepted", hw)
		}
		if msg := err.Error(); !strings.Contains(msg, "Scheduler.ApplyFaults") || !strings.Contains(msg, "rsinserve -linkfault") {
			t.Fatalf("spec %q: error %q does not name both ApplyFaults and -linkfault", hw, msg)
		}
	}
}

func TestFailProb(t *testing.T) {
	in := New().Seed(7).FailProb("cycle", 0.25)
	fired := 0
	for i := 0; i < 4000; i++ {
		if err := in.Hook("cycle"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected error %v does not wrap ErrInjected", err)
			}
			fired++
		}
	}
	if fired < 800 || fired > 1200 {
		t.Fatalf("p=0.25 fired %d of 4000 calls", fired)
	}
	if fired != in.Fired() {
		t.Fatalf("fired=%d but Fired()=%d", fired, in.Fired())
	}
	// Same seed, same schedule: probability faults must replay exactly.
	again := New().Seed(7).FailProb("cycle", 0.25)
	for i := 0; i < 4000; i++ {
		again.Hook("cycle")
	}
	if again.Fired() != fired {
		t.Fatalf("replay with seed 7 fired %d, first run fired %d", again.Fired(), fired)
	}
}

// TestConcurrentHook: one injector shared by many shards must count
// atomically — exactly one caller observes the scripted failure.
func TestConcurrentHook(t *testing.T) {
	in := New().FailAt("cycle", 50)
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				in.Hook("cycle")
			}
		}()
	}
	wg.Wait()
	if in.Calls("cycle") != 100 || in.Fired() != 1 {
		t.Fatalf("calls=%d fired=%d, want 100/1", in.Calls("cycle"), in.Fired())
	}
}
