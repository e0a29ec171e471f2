package bitset

import (
	"math/bits"
	"testing"
)

func TestBasicOps(t *testing.T) {
	b := Make(130)
	if len(b) != 3 {
		t.Fatalf("Make(130): %d words, want 3", len(b))
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	b.Clear(64)
	if b.Get(64) || !b.Get(63) || !b.Get(65) {
		t.Fatalf("Clear(64) disturbed neighbors: 63=%v 64=%v 65=%v", b.Get(63), b.Get(64), b.Get(65))
	}
	b.SetTo(7, true)
	b.SetTo(7, false)
	if b.Get(7) {
		t.Fatal("SetTo(7, false) left the bit set")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Count after Reset = %d", b.Count())
	}
}

func TestWordsAndTailMask(t *testing.T) {
	cases := []struct {
		n     int
		words int
		tail  uint64
	}{
		{0, 0, ^uint64(0)},
		{1, 1, 1},
		{63, 1, (1 << 63) - 1},
		{64, 1, ^uint64(0)},
		{65, 2, 1},
		{128, 2, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Words(c.n); got != c.words {
			t.Errorf("Words(%d) = %d, want %d", c.n, got, c.words)
		}
		if got := TailMask(c.n); got != c.tail {
			t.Errorf("TailMask(%d) = %#x, want %#x", c.n, got, c.tail)
		}
	}
}

// Count reports the number of set bits; only the tests count them.
func (b Bits) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}
