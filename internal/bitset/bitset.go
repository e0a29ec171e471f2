// Package bitset provides the fixed-width bit vector used by the hot
// solver paths: the warm max-flow arena stores per-arc enabled/flow
// state as bit words so residual checks are single AND/ANDNOT ops and
// per-epoch membership syncs compare 64 arcs per word, and the routing
// tables mark fault-dead paths the same way. The package is deliberately
// tiny — no iteration framework, no dynamic growth — because every user
// sizes its sets once against a frozen arena.
package bitset

// Bits is a little-endian bit vector: bit i lives in word i/64 at
// position i%64. The zero value is an empty set of capacity 0.
type Bits []uint64

// Words reports how many uint64 words hold n bits.
func Words(n int) int { return (n + 63) >> 6 }

// Make returns a zeroed vector with capacity for n bits.
func Make(n int) Bits { return make(Bits, Words(n)) }

// Get reports bit i.
func (b Bits) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// SetTo sets bit i to v.
func (b Bits) SetTo(i int, v bool) {
	if v {
		b.Set(i)
	} else {
		b.Clear(i)
	}
}

// Reset zeroes every word.
func (b Bits) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// TailMask returns the mask of valid bit positions in the last word of
// an n-bit vector: all ones when n is a multiple of 64.
func TailMask(n int) uint64 {
	if r := uint(n) & 63; r != 0 {
		return (1 << r) - 1
	}
	return ^uint64(0)
}
