package server

import (
	"fmt"
	"net/http"
	"time"

	"rsin/internal/core"
	"rsin/internal/sched"
	"rsin/internal/system"
)

// POST /v1/gangs submits an all-or-nothing gang — either an explicit
// member list or a named collective pattern lowered onto a phase chain of
// gangs. The whole gang rides ONE admission ticket, charged at the most
// urgent member's tier: admission-wise a gang is one client intent, not
// len(members) independent requests, so a shedding front door cannot
// admit half a gang (which would hold a slot while the scheduler's
// all-or-nothing gate keeps it waiting for siblings that were shed).
//
// The route is mounted only when Config.Gangs is set (rsinserve -gangs).

// GangMember is one member task of an explicit gang.
type GangMember struct {
	Proc int `json:"proc"`
	Need int `json:"need"` // resources required; 0 means 1
	Type int `json:"type"`
	Tier int `json:"tier"`
	// Needs is the member's typed demand vector (see
	// SubmitRequest.Needs); mutually exclusive with Need/Type.
	Needs map[string]int `json:"needs,omitempty"`
}

// GangRequest is the JSON body of POST /v1/gangs. Exactly one of Members
// and Collective must be set. A collective names a pattern ("allreduce"
// or "reduce-scatter") over the ranks in Procs; Need/Type/Tier then apply
// per sender per phase, and HoldUS is the per-phase transfer time. For an
// explicit gang HoldUS is the whole gang's service time.
type GangRequest struct {
	Shard   int          `json:"shard"`
	Members []GangMember `json:"members,omitempty"`

	Collective string `json:"collective,omitempty"`
	Procs      []int  `json:"procs,omitempty"` // Procs[rank] = processor
	Need       int    `json:"need"`
	Type       int    `json:"type"`
	Tier       int    `json:"tier"`

	HoldUS int64  `json:"hold_us"`
	Label  string `json:"label,omitempty"`
}

// GangEvent is the body of a /v1/gangs response.
type GangEvent struct {
	Event     string  `json:"event"` // serviced | failed
	Members   int     `json:"members,omitempty"`
	Phases    int     `json:"phases,omitempty"` // collective only
	Severs    int     `json:"severs,omitempty"` // atomic gang sever events absorbed
	Resources [][]int `json:"resources,omitempty"`
	QueueMS   float64 `json:"queue_ms,omitempty"`
	ServiceMS float64 `json:"service_ms,omitempty"`
	Failure
}

// collectivePattern maps the wire names onto core's patterns.
func collectivePattern(name string) (core.Collective, error) {
	switch name {
	case "allreduce", "ring-allreduce":
		return core.RingAllReduce, nil
	case "reduce-scatter":
		return core.RingReduceScatter, nil
	}
	return 0, fmt.Errorf("unknown collective %q (allreduce | reduce-scatter)", name)
}

// decodeGang parses and validates a /v1/gangs body with the same strict
// decoding discipline as decodeSubmit.
func decodeGang(body []byte) (GangRequest, error) {
	var req GangRequest
	if err := decodeStrict(body, &req); err != nil {
		return GangRequest{}, fmt.Errorf("decoding gang: %w", err)
	}
	if req.Shard < 0 {
		return GangRequest{}, fmt.Errorf("shard %d must be non-negative", req.Shard)
	}
	if req.HoldUS < 0 {
		return GangRequest{}, fmt.Errorf("hold_us %d must be non-negative", req.HoldUS)
	}
	if req.Need < 0 {
		return GangRequest{}, fmt.Errorf("need %d must be non-negative", req.Need)
	}
	switch {
	case len(req.Members) > 0 && req.Collective != "":
		return GangRequest{}, fmt.Errorf("members and collective are mutually exclusive")
	case len(req.Members) > 0:
		for i, m := range req.Members {
			if m.Proc < 0 || m.Need < 0 {
				return GangRequest{}, fmt.Errorf("member %d: proc and need must be non-negative", i)
			}
			if _, err := typedNeeds(m.Needs); err != nil {
				return GangRequest{}, fmt.Errorf("member %d: %w", i, err)
			}
		}
	case req.Collective != "":
		if _, err := collectivePattern(req.Collective); err != nil {
			return GangRequest{}, err
		}
		if len(req.Procs) < 2 {
			return GangRequest{}, fmt.Errorf("a collective needs at least 2 ranks in procs, got %d", len(req.Procs))
		}
		for i, p := range req.Procs {
			if p < 0 {
				return GangRequest{}, fmt.Errorf("procs[%d] = %d must be non-negative", i, p)
			}
		}
	default:
		return GangRequest{}, fmt.Errorf("a gang needs members or a collective")
	}
	return req, nil
}

// gangTier is the admission tier the gang is charged at: the most urgent
// member's (a gang is as urgent as its most urgent member, and charging
// the single ticket lower would let bulk tiers smuggle urgent work past
// the proportional-fair shedder — and vice versa).
func gangTier(req GangRequest) int {
	if req.Collective != "" {
		return req.Tier
	}
	tier := system.MaxTier + 1
	for _, m := range req.Members {
		if m.Tier < tier {
			tier = m.Tier
		}
	}
	return tier
}

// handleGangs is POST /v1/gangs: the prelude, admitting once at the gang's
// most urgent tier, then the gang (or the collective's phase chain) under
// the request context, answered with the gang outcome.
func (sv *Server) handleGangs(w http.ResponseWriter, r *http.Request) {
	var req GangRequest
	var rq request
	if !sv.begin(&rq, w, r, func(body []byte) (int, int64, error) {
		var err error
		req, err = decodeGang(body)
		return gangTier(req), req.HoldUS, err
	}) {
		return
	}
	defer rq.end()
	if req.Collective != "" {
		sv.runCollectiveGang(&rq, req)
		return
	}
	sv.runExplicitGang(&rq, req)
}

// runExplicitGang runs a member-list gang: one all-or-nothing grant, one
// hold, one atomic release.
func (sv *Server) runExplicitGang(rq *request, req GangRequest) {
	spec := sched.GangSpec{Members: make([]system.Task, len(req.Members)), Label: req.Label}
	for i, m := range req.Members {
		spec.Members[i] = system.Task{Proc: m.Proc, Need: m.Need, Type: m.Type, Tier: m.Tier}
		spec.Members[i].Needs, _ = typedNeeds(m.Needs) // validated by decodeGang
	}
	gh, err := sv.s.SubmitGangCtx(rq.ctx, req.Shard, spec)
	badCause := "bad-gang"
	if err == nil {
		<-gh.Done()
		err, badCause = gh.Err(), ""
	}
	if err != nil {
		rq.fail(err, badCause, 0, 0)
		return
	}
	rq.ticket.Grant()
	granted := time.Now()
	res := gh.Resources()
	ev := GangEvent{Event: "serviced", Members: len(res), Resources: res, QueueMS: granted.Sub(rq.t0).Seconds() * 1e3}
	rq.holdGranted()
	ev.ServiceMS = time.Since(granted).Seconds() * 1e3
	if err := sv.s.EndGang(gh); err != nil {
		rq.fail(err, "", 0, 0)
		return
	}
	sv.o.serviced.Inc()
	rq.answer(http.StatusOK, ev)
}

// runCollectiveGang lowers and runs a collective's phase chain; the
// response reports the phases completed and the severs absorbed.
func (sv *Server) runCollectiveGang(rq *request, req GangRequest) {
	pattern, _ := collectivePattern(req.Collective) // validated by decodeGang
	// The admission slot covers the whole phase chain; the ticket counts
	// as granted once the first phase is (approximated here as Grant on
	// success or failure after submit — RunCollective owns the handles).
	rq.ticket.Grant()
	res, err := sv.s.RunCollective(rq.ctx, req.Shard, sched.CollectiveSpec{
		Pattern: pattern, Procs: req.Procs,
		Type: req.Type, Need: req.Need, Tier: req.Tier,
		Label: req.Label, PhaseHold: rq.hold,
	})
	if err != nil {
		rq.fail(err, "", res.Phases, res.Severs)
		return
	}
	sv.o.serviced.Inc()
	rq.answer(http.StatusOK, GangEvent{
		Event: "serviced", Members: len(req.Procs), Phases: res.Phases, Severs: res.Severs,
		ServiceMS: time.Since(rq.t0).Seconds() * 1e3,
	})
}
