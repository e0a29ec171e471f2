package server

import (
	"errors"
	"testing"
	"time"

	"rsin/internal/obs"
	"rsin/internal/system"
)

// admit fills n tier-`tier` slots, failing the test on any shed.
func admit(t *testing.T, a *Admission, tier, n int) []*Ticket {
	t.Helper()
	tickets := make([]*Ticket, 0, n)
	for i := 0; i < n; i++ {
		tk, err := a.Admit(tier)
		if err != nil {
			t.Fatalf("admit %d of %d (tier %d): %v", i+1, n, tier, err)
		}
		tickets = append(tickets, tk)
	}
	return tickets
}

// TestAdmissionThresholdGate pins the hard gates: the inflight cap and
// the queue cap shed every tier, tier 0 included, and free slots reopen
// admission.
func TestAdmissionThresholdGate(t *testing.T) {
	a, err := NewAdmission(AdmissionConfig{MaxInflight: 4, MaxQueue: 100, Weights: []int64{4, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	tickets := admit(t, a, 0, 4)
	for tier := 0; tier < 3; tier++ {
		_, err := a.Admit(tier)
		var oe *OverloadError
		if !errors.As(err, &oe) || !errors.Is(err, ErrOverload) {
			t.Fatalf("tier %d at the inflight cap: got %v, want an *OverloadError matching ErrOverload", tier, err)
		}
		if oe.Reason != ShedInflight {
			t.Fatalf("tier %d shed reason = %q, want %q", tier, oe.Reason, ShedInflight)
		}
		if oe.RetryAfter <= 0 {
			t.Fatalf("tier %d shed without a Retry-After hint", tier)
		}
	}
	// Releasing one inflight slot reopens admission (shed-then-retry).
	tickets[0].Finish()
	tk, err := a.Admit(2)
	if err != nil {
		t.Fatalf("admission did not reopen after Finish: %v", err)
	}
	tk.Finish()
	for _, tk := range tickets[1:] {
		tk.Finish()
	}

	// Queue cap: inflight roomy, queue exactly full.
	a, err = NewAdmission(AdmissionConfig{MaxInflight: 100, MaxQueue: 3, ShedStart: 0.99, Weights: []int64{4, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	held := admit(t, a, 0, 3)
	_, err = a.Admit(0)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ShedQueue {
		t.Fatalf("tier 0 at the queue cap: got %v, want reason %q", err, ShedQueue)
	}
	// Granting (leaving the queue, still inflight) reopens the queue gate.
	held[0].Grant()
	if _, err := a.Admit(1); err != nil {
		t.Fatalf("admission did not reopen after Grant: %v", err)
	}
}

// TestAdmissionProportionalFair pins the shed order of the
// proportional-fair policy with weights 4:2:1 (reserve fractions 0,
// 4/7, 6/7) on a 100-deep queue engaging at 50%: at depth 70 the
// headroom (0.6) sheds only tier 2, at depth 90 (0.2) tiers 1 and 2,
// and tier 0 is admitted all the way to the hard cap.
func TestAdmissionProportionalFair(t *testing.T) {
	cases := []struct {
		queued int
		want   [3]bool // admitted, by tier
	}{
		{queued: 0, want: [3]bool{true, true, true}},
		{queued: 40, want: [3]bool{true, true, true}},  // below ShedStart: everyone
		{queued: 70, want: [3]bool{true, true, false}}, // h=0.6 <= 6/7: tier 2 sheds
		{queued: 90, want: [3]bool{true, false, false}},
		{queued: 99, want: [3]bool{true, false, false}}, // tier 0 holds to the cap
	}
	for _, tc := range cases {
		a, err := NewAdmission(AdmissionConfig{MaxInflight: 1000, MaxQueue: 100, ShedStart: 0.5, Weights: []int64{4, 2, 1}})
		if err != nil {
			t.Fatal(err)
		}
		admit(t, a, 0, tc.queued)
		for tier := 0; tier < 3; tier++ {
			tk, err := a.Admit(tier)
			if got := err == nil; got != tc.want[tier] {
				t.Errorf("queued=%d tier=%d: admitted=%v, want %v (err %v)", tc.queued, tier, got, tc.want[tier], err)
			}
			if err != nil {
				var oe *OverloadError
				if !errors.As(err, &oe) || oe.Reason != ShedTier {
					t.Errorf("queued=%d tier=%d: reason %v, want %q", tc.queued, tier, err, ShedTier)
				}
			} else {
				tk.Finish()
			}
		}
	}
}

// TestAdmissionSingleTierBurst pins the trunk-reservation property: a
// burst of the least-urgent tier alone cannot fill the queue — it is
// capped at its own threshold depth, leaving headroom so tier 0 (and
// tier 1) still admit into the reserved space.
func TestAdmissionSingleTierBurst(t *testing.T) {
	a, err := NewAdmission(AdmissionConfig{MaxInflight: 1000, MaxQueue: 100, ShedStart: 0.5, Weights: []int64{4, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	burst := 0
	for {
		if _, err := a.Admit(2); err != nil {
			break
		}
		burst++
		if burst > 100 {
			t.Fatal("tier-2 burst filled the whole queue: the proportional-fair reservation is not holding")
		}
	}
	// The tier-2 threshold depth is 100 - 50*(6/7) ~ 57.
	if burst < 50 || burst > 60 {
		t.Errorf("tier-2 burst admitted %d, want ~57 (its proportional-fair share)", burst)
	}
	// The reserved headroom still admits the urgent tiers.
	if _, err := a.Admit(0); err != nil {
		t.Errorf("tier 0 shed behind a tier-2 burst: %v", err)
	}
	if _, err := a.Admit(1); err != nil {
		t.Errorf("tier 1 shed behind a tier-2 burst: %v", err)
	}
	st := a.State()
	if st.ShedByTier[2] == 0 || st.ShedByTier[0] != 0 {
		t.Errorf("shed census %v: want tier-2 sheds only", st.ShedByTier)
	}
}

// TestAdmissionAllTiersSaturated drives every tier to the hard queue cap
// and verifies uniform shedding plus a Retry-After hint that grew with
// the fill (an overloaded server asks for a longer backoff).
func TestAdmissionAllTiersSaturated(t *testing.T) {
	a, err := NewAdmission(AdmissionConfig{
		MaxInflight: 1000, MaxQueue: 30, ShedStart: 0.5,
		Weights: []int64{4, 2, 1}, RetryAfter: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// An early shed (near-empty queue) carries roughly the base hint.
	early := a.RetryAfter()
	admit(t, a, 0, 30)
	for tier := 0; tier < 3; tier++ {
		_, err := a.Admit(tier)
		var oe *OverloadError
		if !errors.As(err, &oe) || oe.Reason != ShedQueue {
			t.Fatalf("tier %d at saturation: got %v, want reason %q", tier, err, ShedQueue)
		}
		if oe.RetryAfter <= early {
			t.Errorf("tier %d saturated Retry-After %v did not grow past the idle hint %v", tier, oe.RetryAfter, early)
		}
	}
	st := a.State()
	if st.Queued != 30 || st.PeakQueued != 30 {
		t.Errorf("census queued=%d peak=%d, want 30/30", st.Queued, st.PeakQueued)
	}
}

// TestRetryAfterClamp is the regression for the unclamped backoff hint.
// The hint is base * (1 + queue fill); before the clamp a generous base
// doubled under load into arbitrarily long Retry-After headers (45m base
// -> 90m at saturation) that obedient clients honored long after the
// overload cleared. The hint must never exceed MaxRetryAfter, at every
// fill level and exactly at the boundary.
func TestRetryAfterClamp(t *testing.T) {
	cases := []struct {
		name      string
		base, max time.Duration
		fill      int // queued entries out of MaxQueue=10
		want      time.Duration
	}{
		{"generous base idle", 45 * time.Minute, 0, 0, 30 * time.Second},
		{"generous base saturated", 45 * time.Minute, 0, 10, 30 * time.Second},
		{"small base unaffected", time.Second, 0, 10, 2 * time.Second},
		{"boundary exact", 15 * time.Second, 30 * time.Second, 10, 30 * time.Second},
		{"boundary crossed", 20 * time.Second, 30 * time.Second, 10, 30 * time.Second},
		{"under boundary", 20 * time.Second, 30 * time.Second, 0, 20 * time.Second},
		{"custom cap", time.Minute, 90 * time.Second, 10, 90 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAdmission(AdmissionConfig{
				MaxInflight: 100, MaxQueue: 10, Weights: []int64{1},
				RetryAfter: tc.base, MaxRetryAfter: tc.max,
			})
			if err != nil {
				t.Fatal(err)
			}
			admit(t, a, 0, tc.fill)
			if got := a.RetryAfter(); got != tc.want {
				t.Errorf("base %v cap %v fill %d/10: Retry-After %v, want %v",
					tc.base, tc.max, tc.fill, got, tc.want)
			}
		})
	}
	// The shed path carries the clamped hint too: saturate the queue and
	// read the hint off the OverloadError itself.
	a, err := NewAdmission(AdmissionConfig{
		MaxInflight: 100, MaxQueue: 10, Weights: []int64{1}, RetryAfter: 45 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	admit(t, a, 0, 10)
	_, err = a.Admit(0)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("saturated Admit: got %v, want overload", err)
	}
	if oe.RetryAfter != 30*time.Second {
		t.Errorf("shed Retry-After %v, want the 30s default clamp", oe.RetryAfter)
	}
}

// TestTicketLifecycle pins the census bookkeeping: Grant leaves the
// queue only, Finish leaves everything, both idempotent, and a ticket
// finished without granting releases its queue slot too.
func TestTicketLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := NewAdmission(AdmissionConfig{MaxInflight: 10, MaxQueue: 10, Weights: []int64{1, 1}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	tk1, _ := a.Admit(0)
	tk2, _ := a.Admit(1)
	if st := a.State(); st.Inflight != 2 || st.Queued != 2 {
		t.Fatalf("after two admits: %+v", st)
	}
	tk1.Grant()
	tk1.Grant() // idempotent
	if st := a.State(); st.Inflight != 2 || st.Queued != 1 {
		t.Fatalf("after grant: %+v", st)
	}
	tk1.Finish()
	tk1.Finish() // idempotent
	if st := a.State(); st.Inflight != 1 || st.Queued != 1 {
		t.Fatalf("after granted finish: %+v", st)
	}
	tk2.Finish() // never granted: releases its queue slot as well
	if st := a.State(); st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("after ungranted finish: %+v", st)
	}
	// A granted-then-finished ticket must ignore a late Grant.
	tk2.Grant()
	if st := a.State(); st.Queued != 0 {
		t.Fatalf("late Grant moved the census: %+v", st)
	}
	if v := reg.Gauge("rsin_server_inflight").Value(); v != 0 {
		t.Errorf("inflight gauge = %d, want 0", v)
	}
	if v := reg.Gauge("rsin_server_queued").Value(); v != 0 {
		t.Errorf("queued gauge = %d, want 0", v)
	}
	if v := reg.Counter("rsin_server_admitted_total").Value(); v != 2 {
		t.Errorf("admitted counter = %d, want 2", v)
	}
}

// TestAdmissionDefaults pins the default configuration: every priority
// class the scheduler accepts gets a weight, strictly decreasing, so
// the shed order is MaxTier first and tier 0 last.
func TestAdmissionDefaults(t *testing.T) {
	a, err := NewAdmission(AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tiers := len(a.cfg.Weights); tiers != system.MaxTier+1 {
		t.Fatalf("default tiers = %d, want %d", tiers, system.MaxTier+1)
	}
	if a.reserve[0] != 0 {
		t.Fatalf("tier 0 reserve = %v, want 0 (tier 0 sheds only at the hard cap)", a.reserve[0])
	}
	for k := 1; k <= system.MaxTier; k++ {
		if a.reserve[k] <= a.reserve[k-1] {
			t.Fatalf("reserve not strictly increasing at tier %d: %v", k, a.reserve)
		}
	}
	if _, err := a.Admit(-1); err == nil {
		t.Error("negative tier admitted")
	}
	if _, err := a.Admit(system.MaxTier + 1); err == nil {
		t.Error("out-of-range tier admitted")
	}
	// Invalid configurations are rejected at construction.
	if _, err := NewAdmission(AdmissionConfig{ShedStart: 1.5}); err == nil {
		t.Error("ShedStart 1.5 accepted")
	}
	if _, err := NewAdmission(AdmissionConfig{Weights: []int64{1, 0}}); err == nil {
		t.Error("zero tier weight accepted")
	}
}
