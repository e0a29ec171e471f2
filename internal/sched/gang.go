package sched

import (
	"context"
	"fmt"
	"slices"

	"rsin/internal/system"
)

// Gang scheduling at the service layer. A GangSpec is submitted whole; the
// shard's System grants it all-or-nothing (banker's-safe activation, see
// internal/system's gang contract) and the GangHandle's Done fires only
// when every member holds its complete resource set — a client can never
// observe a partial grant. Behind the handle a gang is a job like any
// other (job.go): hardware faults that cost any member a unit reset the
// whole gang atomically inside the System, and the service charges that
// reset once per fault event against the job's sever-retry budget
// (Config.SeverRetries), failing the gang with ErrCircuitSevered when the
// budget runs out.
//
// In the Stats counters a gang of k members contributes k to Submitted
// and k to exactly one of Serviced/Canceled/Failed, so the terminal
// accounting identity is unchanged; the Gangs* counters track gang-level
// events alongside.

// GangSpec describes one all-or-nothing gang: at least two member tasks
// on distinct processors of one shard. Label optionally names the gang (a
// collective phase, a training step): it is the Result of the gang's
// "gangsubmit" trace event, which ties the gang ID every later event of the
// gang carries to the name the client knows it by.
type GangSpec struct {
	Members []system.Task
	Label   string
}

// SubmitGang posts a gang to a shard and returns its handle. The gang
// joins the next scheduling epoch, which, as with Submit, the call may run
// itself; its members are granted all-or-nothing (wait on
// GangHandle.Done). Validation — member count, distinct processors,
// per-member task checks, combined demand against the shard's surviving
// capacity — runs here, before the gang is posted.
func (s *Scheduler) SubmitGang(shard int, spec GangSpec) (*GangHandle, error) {
	return s.SubmitGangCtx(context.Background(), shard, spec)
}

// SubmitGangCtx is SubmitGang with the SubmitCtx cancellation contract:
// if ctx ends before the gang is fully provisioned, the whole gang is
// withdrawn — there is no partial cancellation — and the handle fails
// with an error matching ErrTaskCanceled. Best-effort against a racing
// grant: if Done closes with a nil Err the client owns the resources and
// must still call EndGang.
func (s *Scheduler) SubmitGangCtx(ctx context.Context, shard int, spec GangSpec) (*GangHandle, error) {
	if len(spec.Members) < 2 {
		return nil, fmt.Errorf("sched: shard %d: a gang needs at least 2 members, got %d", shard, len(spec.Members))
	}
	h := &GangHandle{}
	h.label = spec.Label
	// The shard owns its copy of the member list.
	if err := s.admit(ctx, shard, op{kind: opSubmit, j: &h.job, members: slices.Clone(spec.Members)}); err != nil {
		return nil, err
	}
	return h, nil
}

// EndGang releases every resource a finished gang holds, atomically, on
// EndService's terms: only after Done closed with a nil Err, and returning
// once the release is applied and counted. A call racing another on the
// same handle waits for that one to return, then gets the System's error.
func (s *Scheduler) EndGang(h *GangHandle) error {
	if h == nil {
		return fmt.Errorf("sched: nil gang handle")
	}
	return s.end(&h.job)
}
