package token

import (
	"fmt"
	"sort"

	"rsin/internal/core"
	"rsin/internal/topology"
)

// Options tunes a token-architecture run.
type Options struct {
	// RecordBus captures the status-bus vector at every clock period into
	// Result.BusTrace.
	RecordBus bool
	// MaxClocks aborts a runaway simulation (0 = 1<<20). Exceeding it
	// indicates a simulator bug; Schedule returns an error.
	MaxClocks int
}

// Result is the outcome of one scheduling cycle on the distributed
// architecture.
type Result struct {
	Mapping    *core.Mapping
	Clocks     int // total clock periods consumed by the cycle
	Iterations int // augmentation iterations (layered networks built)
	BusTrace   []BusState

	// FirstLevels holds the BFS level assigned to each switchbox during
	// the first request-token-propagation phase (-1 if never reached):
	// the layered network of Theorem 4, exposed for inspection.
	FirstLevels []int
}

// elemKind distinguishes simulation elements.
type elemKind int

const (
	elemRQ elemKind = iota
	elemNS
	elemRS
)

// elem identifies one hardware element (request server, switchbox process
// or resource server).
type elem struct {
	kind elemKind
	idx  int
}

// traversal records one request-token hop: across link over its physical
// direction (forward, the link was free) or against it (backward, the link
// was registered — a flow cancellation opportunity).
type traversal struct {
	link    int
	forward bool
	from    elem // element the request token departed
	to      elem // element the request token arrived at
}

// entry is a traversal recorded at its destination with its claim state for
// the resource-token phase; clearing a port marking makes it permanently
// unusable within the iteration.
type entry struct {
	t       traversal
	claimed bool
	cleared bool
}

// sim carries the full distributed-architecture state for one scheduling
// cycle.
type sim struct {
	net        *topology.Network
	requesting []bool // per processor: pending request this cycle
	freeRes    []bool // per resource: ready
	bondedRQ   []bool
	bondedRS   []bool
	registered []bool // per link: tentative flow of this cycle

	clock  int
	maxClk int
	opts   Options
	trace  []BusState
}

// Schedule runs one complete scheduling cycle of the distributed MRSIN on
// the given network state: requesting[p] marks processors with pending
// requests, freeRes[r] marks ready resources. Links already occupied by
// established circuits never carry tokens, and neither do failed links or
// the ports of failed switchboxes — the distributed Dinic simulation then
// solves the same masked subgraph as the centralized schedulers. The
// returned mapping is optimal (equal to the maximum flow of
// Transformation 1 on the surviving network); Apply it to the network to
// establish the circuits.
func Schedule(net *topology.Network, requesting, freeRes []bool, opts *Options) (*Result, error) {
	if len(requesting) != net.Procs || len(freeRes) != net.Ress {
		return nil, fmt.Errorf("token: requesting/freeRes lengths (%d, %d) do not match network (%d, %d)",
			len(requesting), len(freeRes), net.Procs, net.Ress)
	}
	s := &sim{
		net:        net,
		requesting: requesting,
		freeRes:    freeRes,
		bondedRQ:   make([]bool, net.Procs),
		bondedRS:   make([]bool, net.Ress),
		registered: make([]bool, len(net.Links)),
		maxClk:     1 << 20,
	}
	if opts != nil {
		s.opts = *opts
		if opts.MaxClocks > 0 {
			s.maxClk = opts.MaxClocks
		}
	}

	res := &Result{FirstLevels: nil}
	s.tick(s.busState(false, false, false, false)) // idle -> scheduling transition

	for iter := 0; ; iter++ {
		levels, rsHits, recv, err := s.requestPhase()
		if err != nil {
			return nil, err
		}
		if iter == 0 {
			res.FirstLevels = levels
		}
		if len(rsHits) == 0 {
			break // no augmenting path: scheduling cycle complete
		}
		res.Iterations++
		trails, err := s.resourcePhase(rsHits, recv)
		if err != nil {
			return nil, err
		}
		s.registerPaths(trails)
	}

	m, err := s.extractMapping()
	if err != nil {
		return nil, err
	}
	s.tick(s.busState(false, false, false, false)) // allocation state
	res.Mapping = m
	res.Clocks = s.clock
	res.BusTrace = s.trace
	return res, nil
}

// busState assembles the current status-bus observation.
func (s *sim) busState(reqTokens, resTokens, registering, rsHit bool) BusState {
	var b BusState
	for p, r := range s.requesting {
		if r && !s.bondedRQ[p] {
			b[EvRequestPending] = true
		}
		if s.bondedRQ[p] {
			b[EvBonded] = true
		}
	}
	for r, f := range s.freeRes {
		if f && !s.bondedRS[r] {
			b[EvResourceReady] = true
		}
	}
	b[EvRequestTokens] = reqTokens
	b[EvResourceTokens] = resTokens
	b[EvPathRegister] = registering
	b[EvRSHit] = rsHit
	return b
}

// tick advances the global clock one period, recording the bus if asked.
func (s *sim) tick(b BusState) {
	s.clock++
	if s.opts.RecordBus {
		s.trace = append(s.trace, b)
	}
}

// linkElem returns the element at an endpoint of a link.
func linkElem(e topology.Endpoint) elem {
	switch e.Kind {
	case topology.KindProcessor:
		return elem{elemRQ, e.Index}
	case topology.KindResource:
		return elem{elemRS, e.Index}
	default:
		return elem{elemNS, e.Index}
	}
}

// less orders elements deterministically (RQ < NS < RS, then by index),
// fixing the arbitration order for simultaneous token arrivals.
func (e elem) less(o elem) bool {
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	return e.idx < o.idx
}

// requestPhase runs one request-token-propagation phase: a clocked BFS wave
// from every unbonded pending RQ, forward over free links and backward over
// registered links, stopping at the first clock in which a ready unbonded
// RS receives a token (Theorem 4). It returns the switchbox levels, the RS
// indices hit, and the per-element arrival batches (the port markings).
func (s *sim) requestPhase() (levels []int, rsHits []int, recv map[elem][]*entry, err error) {
	levels = make([]int, len(s.net.Boxes))
	for i := range levels {
		levels[i] = -1
	}
	recv = make(map[elem][]*entry)
	visited := make(map[elem]bool)

	// Wave 0: unbonded pending RQs emit onto their (free) processor links.
	var inflight []traversal
	for p := 0; p < s.net.Procs; p++ {
		if !s.requesting[p] || s.bondedRQ[p] {
			continue
		}
		lid := s.net.ProcLink[p]
		l := s.net.Links[lid]
		if l.State != topology.LinkFree || s.registered[lid] || !s.net.LinkUsable(lid) {
			continue // processor link unavailable (occupied, carrying flow, or failed)
		}
		visited[elem{elemRQ, p}] = true
		inflight = append(inflight, traversal{
			link: lid, forward: true,
			from: elem{elemRQ, p}, to: linkElem(l.To),
		})
	}

	level := 0
	for len(inflight) > 0 {
		s.tick(s.busState(true, false, false, false))
		if s.clock > s.maxClk {
			return nil, nil, nil, fmt.Errorf("token: clock budget exceeded in request phase")
		}
		level++
		// Group simultaneous arrivals by destination, deterministically.
		sort.SliceStable(inflight, func(i, j int) bool { return inflight[i].to.less(inflight[j].to) })
		byDest := make(map[elem][]traversal)
		var order []elem
		for _, t := range inflight {
			if len(byDest[t.to]) == 0 {
				order = append(order, t.to)
			}
			byDest[t.to] = append(byDest[t.to], t)
		}
		inflight = nil
		for _, d := range order {
			if visited[d] {
				continue // only the first batch is considered (§IV-B1)
			}
			visited[d] = true
			for _, t := range byDest[d] {
				recv[d] = append(recv[d], &entry{t: t})
			}
			switch d.kind {
			case elemRS:
				if s.freeRes[d.idx] && !s.bondedRS[d.idx] {
					rsHits = append(rsHits, d.idx)
				}
				// Busy or bonded resources absorb the token silently.
			case elemRQ:
				// Backward arrival at a bonded RQ: absorbed.
			case elemNS:
				levels[d.idx] = level
				b := s.net.Boxes[d.idx]
				for _, out := range b.Out {
					if out == -1 || !s.net.LinkUsable(out) {
						continue // failed links and failed boxes carry no tokens
					}
					l := s.net.Links[out]
					if l.State == topology.LinkFree && !s.registered[out] {
						inflight = append(inflight, traversal{
							link: out, forward: true,
							from: d, to: linkElem(l.To),
						})
					}
				}
				for _, in := range b.In {
					if in == -1 || !s.net.LinkUsable(in) {
						continue
					}
					l := s.net.Links[in]
					if l.State == topology.LinkFree && s.registered[in] {
						inflight = append(inflight, traversal{
							link: in, forward: false,
							from: d, to: linkElem(l.From),
						})
					}
				}
			}
		}
		if len(rsHits) > 0 {
			// One extra clock in the E6 state lets all tokens come to a
			// stop (Fig. 10).
			s.tick(s.busState(true, false, false, true))
			break
		}
	}
	sort.Ints(rsHits)
	return levels, rsHits, recv, nil
}

// rtoken is a propagating resource token.
type rtoken struct {
	origin int // RS index
	at     elem
	trail  []*entry // entries claimed so far, RS-side first
	done   bool
	dead   bool
}

// resourcePhase runs resource-token propagation: every RS hit in the
// request phase sends one token back through the marked ports; conflicting
// tokens backtrack, clearing markings, until every token has either bonded
// an RQ or returned to its RS (§IV-B2). The successful trails constitute a
// maximal flow of the layered network.
func (s *sim) resourcePhase(rsHits []int, recv map[elem][]*entry) ([][]*entry, error) {
	tokens := make([]*rtoken, 0, len(rsHits))
	for _, r := range rsHits {
		tokens = append(tokens, &rtoken{origin: r, at: elem{elemRS, r}})
	}
	active := len(tokens)
	for active > 0 {
		s.tick(s.busState(false, true, false, false))
		if s.clock > s.maxClk {
			return nil, fmt.Errorf("token: clock budget exceeded in resource phase")
		}
		for _, tk := range tokens {
			if tk.done || tk.dead {
				continue
			}
			// Claim an unclaimed, uncleared marked entry at the current
			// element; move one link toward the processors.
			var pick *entry
			for _, e := range recv[tk.at] {
				if !e.claimed && !e.cleared {
					pick = e
					break
				}
			}
			if pick != nil {
				pick.claimed = true
				tk.trail = append(tk.trail, pick)
				tk.at = pick.t.from
				if tk.at.kind == elemRQ {
					tk.done = true
					active--
				}
				continue
			}
			// Backtrack one link, clearing the marking just used.
			if len(tk.trail) == 0 {
				tk.dead = true // returned to its RS: discarded
				active--
				continue
			}
			last := tk.trail[len(tk.trail)-1]
			tk.trail = tk.trail[:len(tk.trail)-1]
			last.claimed = false
			last.cleared = true
			tk.at = last.t.to
		}
	}
	var trails [][]*entry
	for _, tk := range tokens {
		if tk.done {
			trails = append(trails, tk.trail)
		}
	}
	return trails, nil
}

// registerPaths performs the path-registration phase: along every
// successful trail, free links become registered and registered links
// traversed backward become free again (flow augmentation with
// cancellation); trail endpoints become bonded.
func (s *sim) registerPaths(trails [][]*entry) {
	s.tick(s.busState(false, true, true, false))
	for _, trail := range trails {
		for _, e := range trail {
			s.registered[e.t.link] = e.t.forward
		}
		// Trail runs RS -> ... -> RQ.
		first := trail[0].t.to // the RS element
		last := trail[len(trail)-1].t.from
		if first.kind == elemRS {
			s.bondedRS[first.idx] = true
		}
		if last.kind == elemRQ {
			s.bondedRQ[last.idx] = true
		}
	}
}

// extractMapping walks the registered links from every bonded RQ to its
// bonded RS, producing the circuits of the final allocation.
func (s *sim) extractMapping() (*core.Mapping, error) {
	m := &core.Mapping{}
	consumed := make([]bool, len(s.net.Links))
	for p := 0; p < s.net.Procs; p++ {
		if !s.bondedRQ[p] {
			if s.requesting[p] {
				m.Blocked = append(m.Blocked, core.Request{Proc: p})
			}
			continue
		}
		lid := s.net.ProcLink[p]
		if !s.registered[lid] {
			return nil, fmt.Errorf("token: bonded RQ %d has unregistered processor link", p)
		}
		var links []int
		for {
			if consumed[lid] {
				return nil, fmt.Errorf("token: registered link %d consumed twice", lid)
			}
			consumed[lid] = true
			links = append(links, lid)
			to := s.net.Links[lid].To
			if to.Kind == topology.KindResource {
				r := to.Index
				if !s.bondedRS[r] {
					return nil, fmt.Errorf("token: circuit from p%d ends at unbonded resource %d", p, r)
				}
				m.Assigned = append(m.Assigned, core.Assignment{
					Req:     core.Request{Proc: p},
					Res:     r,
					Circuit: topology.Circuit{Proc: p, Res: r, Links: links},
				})
				break
			}
			// Continue through the box on any unconsumed registered output.
			next := -1
			for _, out := range s.net.Boxes[to.Index].Out {
				if out != -1 && s.registered[out] && !consumed[out] {
					next = out
					break
				}
			}
			if next == -1 {
				return nil, fmt.Errorf("token: registered path from p%d dead-ends at box %d", p, to.Index)
			}
			lid = next
		}
	}
	return m, nil
}
