package sched

import (
	"context"
	"fmt"
	"time"

	"rsin/internal/core"
	"rsin/internal/system"
)

// Collective execution: a core.LowerCollective phase sequence run as a
// chain of gangs with a barrier between phases. Each phase's senders all
// need their circuits at once, so the phase maps onto exactly one gang —
// the all-or-nothing grant IS the phase barrier's entry, and EndGang is
// its exit. A fault mid-phase resets that phase's gang atomically (no
// member keeps a stale circuit into the next phase) and the usual gang
// sever budget bounds the retries.

// CollectiveSpec describes one collective to run on a shard. Procs maps
// rank r of the pattern to Procs[r], so len(Procs) is the rank count k;
// the processors must be distinct (enforced per phase by SubmitGang).
type CollectiveSpec struct {
	Pattern core.Collective
	Procs   []int // Procs[rank] = processor carrying that rank
	// Per-sender demand each phase; the zero values mean resource type 0,
	// one unit, tier 0 urgency.
	Type int
	Need int
	Tier int
	// Label names the collective in trace events (default: the pattern's
	// name); phase i's gang is labelled "<label>/p<i>".
	Label string
	// PhaseHold keeps each phase's circuits granted for this long before
	// the barrier releases them — the simulated transfer time. Zero
	// releases immediately after the grant. A dying ctx cuts the hold
	// short but never skips the release.
	PhaseHold time.Duration
}

// CollectiveResult reports a completed collective.
type CollectiveResult struct {
	Phases int // phases executed (== planned phases on success)
	Severs int // atomic gang severs absorbed across all phases
}

// RunCollective lowers spec.Pattern over len(spec.Procs) ranks and runs
// the phases in order on the shard, one gang per phase, blocking through
// each barrier. It returns after the last phase's resources are released.
// If any phase fails — sever budget exhausted, shard death, ctx canceled —
// the collective stops there with that phase's error; earlier phases have
// already completed and released, and the failed phase holds nothing (the
// gang contract).
//
// One member buffer and one job carry every phase, so a phase allocates
// only its Done channel. The buffer is posted without a copy: the shard
// copies the members into its System when it applies the submission, before
// Done fires, and the buffer is rewritten only after that. The job is
// reused (job.reuse) only once EndGang has released its phase, and only
// while ctx has not ended: a phase whose context ended before its grant may
// still have a cancel on its way to the shard, addressed to the job.
func (s *Scheduler) RunCollective(ctx context.Context, shard int, spec CollectiveSpec) (CollectiveResult, error) {
	var res CollectiveResult
	k := len(spec.Procs)
	phases, err := core.LowerCollective(spec.Pattern, k)
	if err != nil {
		return res, fmt.Errorf("sched: lowering %v: %w", spec.Pattern, err)
	}
	label := spec.Label
	if label == "" {
		label = spec.Pattern.String()
	}
	members := make([]system.Task, k)
	gh := &GangHandle{}
	for pi, ph := range phases {
		if pi > 0 {
			if err := ctx.Err(); err != nil {
				return res, fmt.Errorf("sched: %s phase %d/%d: %w: %w", label, pi, len(phases), ErrTaskCanceled, err)
			}
			gh.reuse()
		}
		for i, tr := range ph {
			members[i] = system.Task{
				Proc: spec.Procs[tr.From],
				Type: spec.Type,
				Need: spec.Need,
				Tier: spec.Tier,
			}
		}
		if s.o.trace != nil {
			gh.label = fmt.Sprintf("%s/p%d", label, pi) // read by the trace alone
		}
		if err := s.admit(ctx, shard, op{kind: opSubmit, j: &gh.job, members: members}); err != nil {
			return res, fmt.Errorf("sched: %s phase %d/%d: %w", label, pi, len(phases), err)
		}
		<-gh.Done()
		res.Severs += gh.severs
		if gh.Err() != nil {
			return res, fmt.Errorf("sched: %s phase %d/%d: %w", label, pi, len(phases), gh.Err())
		}
		if spec.PhaseHold > 0 {
			tm := time.NewTimer(spec.PhaseHold)
			select {
			case <-ctx.Done():
				tm.Stop()
			case <-tm.C:
			}
		}
		// Barrier exit: the phase's transfers are done, release the
		// circuits before the next phase's gang is submitted.
		if err := s.EndGang(gh); err != nil {
			return res, fmt.Errorf("sched: %s phase %d/%d release: %w", label, pi, len(phases), err)
		}
		res.Phases++
	}
	return res, nil
}
