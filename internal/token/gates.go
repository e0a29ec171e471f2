package token

// The paper closes §IV-B3 with: "Since a token is simply a signal, token
// propagation rules can be expressed in terms of Boolean functions. A
// distributed process at an NS, RQ, or RS does nothing but distribute the
// token according to the global status and local conditions. It can be
// realized easily by a finite-state machine ... The design has a very low
// gate count and a very short token propagation delay."
//
// This file is that realization for the request-token-propagation phase of
// a 2x2 switchbox: every output signal of the NS process is built as a
// Boolean expression over the port inputs and latched state, represented
// as an explicit truth table over all 2^11 input combinations so the test
// suite can prove it equivalent to the behavioral simulator's rules and
// count the gates exactly.

// NS input signal indices for a 2x2 switchbox (request phase).
const (
	SigArrIn0  = iota // request token arriving forward on input port 0
	SigArrIn1         // ... input port 1
	SigArrOut0        // request token arriving backward on output port 0
	SigArrOut1        // ... output port 1
	SigVisited        // box already accepted its first batch this phase
	SigRegIn0         // input link 0 is registered (carries tentative flow)
	SigRegIn1
	SigFreeOut0 // output link 0 is free (unoccupied, unregistered)
	SigFreeOut1
	SigRegOut0 // output link 0 is registered
	SigRegOut1
	NumNSInputs
)

// tt is a truth table over NumNSInputs variables: bit k holds the output
// for input assignment k (input i's value = bit i of k).
type tt [1 << NumNSInputs / 64]uint64

// Gates counts the logic operations used to assemble the NS equations; the
// tests assert it stays "very low" per the paper's claim.
type gateCounter struct{ gates int }

func (g *gateCounter) input(i int) tt {
	var t tt
	for k := 0; k < 1<<NumNSInputs; k++ {
		if k>>i&1 == 1 {
			t[k/64] |= 1 << (k % 64)
		}
	}
	return t
}

func (g *gateCounter) and(a, b tt) tt {
	g.gates++
	var t tt
	for i := range t {
		t[i] = a[i] & b[i]
	}
	return t
}

func (g *gateCounter) or(a, b tt) tt {
	g.gates++
	var t tt
	for i := range t {
		t[i] = a[i] | b[i]
	}
	return t
}

func (g *gateCounter) not(a tt) tt {
	g.gates++
	var t tt
	for i := range t {
		t[i] = ^a[i]
	}
	return t
}

// NSRequestLogic is the combinational output bundle of the NS process for
// one clock of the request-token-propagation phase.
type NSRequestLogic struct {
	Accept      tt // the box accepts this clock's batch (first arrivals only)
	EmitOut0    tt // duplicate token forward on output port 0
	EmitOut1    tt
	EmitBackIn0 tt // duplicate token backward on registered input port 0
	EmitBackIn1 tt
	MarkIn0     tt // port markings recorded for the resource phase
	MarkIn1     tt
	MarkOut0    tt
	MarkOut1    tt
	VisitedNext tt // next state of the visited latch

	Gates int // logic operations used to build all outputs
}

// BuildNSRequestLogic assembles the Boolean equations of §IV-B1:
//
//	accept      = (arrIn0 + arrIn1 + arrOut0 + arrOut1) · !visited
//	emitOut_i   = accept · freeOut_i
//	emitBack_i  = accept · regIn_i
//	markIn_i    = accept · (arrIn_i + regIn_i)
//	markOut_i   = accept · (arrOut_i + freeOut_i)
//	visited'    = visited + accept
//
// (A receiving or sending port is marked; tokens go out on free output
// ports and back on registered input ports; only the first batch counts.)
func BuildNSRequestLogic() *NSRequestLogic {
	g := &gateCounter{}
	arrIn0, arrIn1 := g.input(SigArrIn0), g.input(SigArrIn1)
	arrOut0, arrOut1 := g.input(SigArrOut0), g.input(SigArrOut1)
	visited := g.input(SigVisited)
	regIn0, regIn1 := g.input(SigRegIn0), g.input(SigRegIn1)
	freeOut0, freeOut1 := g.input(SigFreeOut0), g.input(SigFreeOut1)

	anyArrival := g.or(g.or(arrIn0, arrIn1), g.or(arrOut0, arrOut1))
	accept := g.and(anyArrival, g.not(visited))

	l := &NSRequestLogic{
		Accept:      accept,
		EmitOut0:    g.and(accept, freeOut0),
		EmitOut1:    g.and(accept, freeOut1),
		EmitBackIn0: g.and(accept, regIn0),
		EmitBackIn1: g.and(accept, regIn1),
		MarkIn0:     g.and(accept, g.or(arrIn0, regIn0)),
		MarkIn1:     g.and(accept, g.or(arrIn1, regIn1)),
		MarkOut0:    g.and(accept, g.or(arrOut0, freeOut0)),
		MarkOut1:    g.and(accept, g.or(arrOut1, freeOut1)),
		VisitedNext: g.or(visited, accept),
	}
	l.Gates = g.gates
	return l
}
