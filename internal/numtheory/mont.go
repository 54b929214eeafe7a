package numtheory

import (
	"math/big"
	"math/bits"
)

// mont2 is Montgomery arithmetic modulo an odd n of at most two 64-bit
// limbs, with R = 2^128 whatever n's width, on values passed as (low,
// high) limb pairs rather than slices, so a chain of multiplies stays in
// registers. It is what the base-2 Fermat gate (fermatBase2) takes its
// powers on; values are canonical residues in [0, n), and x is "in
// Montgomery form" when the pair holds x·R mod n.
type mont2 struct {
	n0, n1 uint64 // the modulus, low limb first
	n0inv  uint64 // -n⁻¹ mod 2⁶⁴
	one    [2]uint64
	r2     [2]uint64
}

// newMont2 builds the context for an odd n with 1 < n < 2^128.
func newMont2(n *big.Int) *mont2 {
	var limbs [2]uint64
	limbsOf(limbs[:], n)
	m := &mont2{n0: limbs[0], n1: limbs[1]}
	// Newton's iteration doubles the correct low bits of n⁻¹ each round;
	// an odd n is its own inverse mod 8, so five rounds reach 64 bits.
	inv := m.n0
	for i := 0; i < 5; i++ {
		inv *= 2 - m.n0*inv
	}
	m.n0inv = -inv
	r := new(big.Int).Lsh(one, 128)
	r.Mod(r, n)
	limbsOf(m.one[:], r)
	r.Mul(r, r)
	r.Mod(r, n)
	limbsOf(m.r2[:], r)
	return m
}

// mul returns x·y·2⁻¹²⁸ mod n for x, y < n, by coarsely integrated
// operand scanning unrolled to two limbs: each limb of y adds one row
// x·yi and one multiple q·n of the modulus that clears the low limb,
// which is shifted out. t stays below 2n, so it fits in three limbs
// between rows. The rows are written out in one body rather than called
// one at a time, so t stays in registers from the first to the last.
func (m *mont2) mul(x0, x1, y0, y1 uint64) (z0, z1 uint64) {
	n0, n1, inv := m.n0, m.n1, m.n0inv
	// Row 0 from t = 0: t = x·y0, then (t + q·n) / 2⁶⁴.
	h0, t0 := bits.Mul64(x0, y0)
	h1, l1 := bits.Mul64(x1, y0)
	t1, c := bits.Add64(l1, h0, 0)
	t2 := h1 + c
	q := t0 * inv
	h0, l0 := bits.Mul64(q, n0)
	h1, l1 = bits.Mul64(q, n1)
	p1, c := bits.Add64(l1, h0, 0)
	p2 := h1 + c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, p1, c)
	t1, c = bits.Add64(t2, p2, c)
	t2 = c
	// Row 1: t + x·y1, then (t + q·n) / 2⁶⁴.
	h0, l0 = bits.Mul64(x0, y1)
	h1, l1 = bits.Mul64(x1, y1)
	p1, c = bits.Add64(l1, h0, 0)
	p2 = h1 + c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, p1, c)
	t2, t3 := bits.Add64(t2, p2, c)
	q = t0 * inv
	h0, l0 = bits.Mul64(q, n0)
	h1, l1 = bits.Mul64(q, n1)
	p1, c = bits.Add64(l1, h0, 0)
	p2 = h1 + c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, p1, c)
	t1, c = bits.Add64(t2, p2, c)
	return m.reduce(t0, t1, t3+c)
}

// reduce returns t mod n for t < 2n held in three limbs. The choice
// between t and t − n is a mask, not a branch: it is data-dependent and
// a coin flip for the ladder's values, so a branch would mispredict half
// the time.
func (m *mont2) reduce(t0, t1, t2 uint64) (uint64, uint64) {
	s0, b := bits.Sub64(t0, m.n0, 0)
	s1, b := bits.Sub64(t1, m.n1, b)
	_, b = bits.Sub64(t2, 0, b)
	keep := -b // all ones when t < n
	return s0 ^ (s0^t0)&keep, s1 ^ (s1^t1)&keep
}

// add returns x + y mod n for x, y < n: the sum less n unless the sum,
// with its carry, is below n. It is small enough to inline into the
// gate's ladder, as reduce is.
func (m *mont2) add(x0, x1, y0, y1 uint64) (uint64, uint64) {
	t0, c := bits.Add64(x0, y0, 0)
	t1, c := bits.Add64(x1, y1, c)
	s0, b := bits.Sub64(t0, m.n0, 0)
	s1, b := bits.Sub64(t1, m.n1, b)
	keep := -(b &^ c) // all ones when t < n
	return s0 ^ (s0^t0)&keep, s1 ^ (s1^t1)&keep
}

// limbsOf writes x, which must fit, into z as little-endian 64-bit
// limbs, whatever the width of big.Word on this platform.
func limbsOf(z []uint64, x *big.Int) {
	clear(z)
	for i, w := range x.Bits() {
		z[i*bits.UintSize/64] |= uint64(w) << (i * bits.UintSize % 64)
	}
}
