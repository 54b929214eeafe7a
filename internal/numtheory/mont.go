package numtheory

import (
	"math/big"
	"math/bits"
)

// mont is Montgomery arithmetic modulo an odd n of k 64-bit limbs, with
// R = 2^(64k). Values are little-endian limb slices of length k holding
// canonical residues in [0, n); a residue x is "in Montgomery form" when
// the slice holds x·R mod n, and mul maps two such forms to the form of
// the product. Pollard rho runs thousands of modular multiplies against
// one modulus, which is what amortizes the constants below; every method
// writes into caller-owned limbs and allocates nothing.
type mont struct {
	n     []uint64 // the modulus
	n0inv uint64   // -n⁻¹ mod 2⁶⁴
	one   []uint64 // R mod n: the Montgomery form of 1
	r2    []uint64 // R² mod n: mul(x, r2) converts x into Montgomery form
}

// newMont builds the context for an odd n > 1.
func newMont(n *big.Int) *mont {
	k := (n.BitLen() + 63) / 64
	m := &mont{n: make([]uint64, k), one: make([]uint64, k), r2: make([]uint64, k)}
	limbsOf(m.n, n)
	// Newton's iteration doubles the correct low bits of n⁻¹ each round;
	// an odd n is its own inverse mod 8, so five rounds reach 64 bits.
	inv := m.n[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - m.n[0]*inv
	}
	m.n0inv = -inv
	r := new(big.Int).Lsh(one, uint(64*k))
	r.Mod(r, n)
	limbsOf(m.one, r)
	r.Mul(r, r)
	r.Mod(r, n)
	limbsOf(m.r2, r)
	return m
}

// limbsOf writes x, which must fit, into z as little-endian 64-bit
// limbs, whatever the width of big.Word on this platform.
func limbsOf(z []uint64, x *big.Int) {
	clear(z)
	for i, w := range x.Bits() {
		z[i*bits.UintSize/64] |= uint64(w) << (i * bits.UintSize % 64)
	}
}

// setLimbs sets z to the integer held in x, using words (of length
// len(x)·64/bits.UintSize) as z's backing store so repeated conversions
// allocate nothing.
func setLimbs(z *big.Int, words []big.Word, x []uint64) *big.Int {
	for i := range words {
		words[i] = big.Word(x[i*bits.UintSize/64] >> (i * bits.UintSize % 64))
	}
	return z.SetBits(words)
}

// mul sets z = x·y·R⁻¹ mod n by coarsely integrated operand scanning:
// each limb of y adds one row of x·y[i] into t and then one multiple of
// n chosen to clear t's low limb, which is shifted out. t is scratch of
// at least k+2 limbs; z may alias x or y.
func (m *mont) mul(z, x, y, t []uint64) {
	n := m.n
	k := len(n)
	x, y, z, t = x[:k], y[:k], z[:k], t[:k+2]
	clear(t)
	for i := 0; i < k; i++ {
		yi := y[i]
		var c, cc uint64
		for j := 0; j < k; j++ {
			hi, lo := bits.Mul64(x[j], yi)
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j], c = lo, hi
		}
		t[k], cc = bits.Add64(t[k], c, 0)
		t[k+1] = cc

		q := t[0] * m.n0inv
		hi, lo := bits.Mul64(q, n[0])
		_, cc = bits.Add64(lo, t[0], 0)
		c = hi + cc
		for j := 1; j < k; j++ {
			hi, lo := bits.Mul64(q, n[j])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j-1], c = lo, hi
		}
		t[k-1], cc = bits.Add64(t[k], c, 0)
		t[k] = t[k+1] + cc
	}
	// t < 2n here; one conditional subtraction makes it canonical.
	var b uint64
	for j := 0; j < k; j++ {
		z[j], b = bits.Sub64(t[j], n[j], b)
	}
	if t[k] == 0 && b != 0 {
		copy(z, t)
	}
}

// add sets z = x + y mod n. t is scratch of at least k limbs; z may
// alias x or y.
func (m *mont) add(z, x, y, t []uint64) {
	n := m.n
	k := len(n)
	x, y, z, t = x[:k], y[:k], z[:k], t[:k]
	var c, b uint64
	for j := 0; j < k; j++ {
		z[j], c = bits.Add64(x[j], y[j], c)
		t[j], b = bits.Sub64(z[j], n[j], b)
	}
	if c != 0 || b == 0 {
		copy(z, t)
	}
}

// sub sets z = x - y mod n; z may alias x or y.
func (m *mont) sub(z, x, y []uint64) {
	n := m.n
	k := len(n)
	x, y, z = x[:k], y[:k], z[:k]
	var b uint64
	for j := 0; j < k; j++ {
		z[j], b = bits.Sub64(x[j], y[j], b)
	}
	if b != 0 {
		var c uint64
		for j := 0; j < k; j++ {
			z[j], c = bits.Add64(z[j], n[j], c)
		}
	}
}

func isZero(x []uint64) bool {
	for _, w := range x {
		if w != 0 {
			return false
		}
	}
	return true
}

// mont2 is Montgomery arithmetic modulo an odd n of at most two 64-bit
// limbs, with R = 2^128 whatever n's width, on values passed as
// (low, high) limb pairs rather than slices, so a chain of rho steps
// stays in registers. It is the kernel rho selects for such moduli, by
// limb count alone; mont is the reference it is fuzzed against.
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

// mul returns x·y·2⁻¹²⁸ mod n for x, y < n, by the same operand
// scanning as mont.mul unrolled to two limbs: each limb of y adds one
// row x·yi and one multiple q·n of the modulus that clears the low limb,
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
// a coin flip for rho's values, so a branch would mispredict half the
// time.
func (m *mont2) reduce(t0, t1, t2 uint64) (uint64, uint64) {
	s0, b := bits.Sub64(t0, m.n0, 0)
	s1, b := bits.Sub64(t1, m.n1, b)
	_, b = bits.Sub64(t2, 0, b)
	keep := -b // all ones when t < n
	return s0 ^ (s0^t0)&keep, s1 ^ (s1^t1)&keep
}

// add returns x + y mod n for x, y < n: the sum less n unless the sum,
// with its carry, is below n. It is small enough to inline into rho's
// loops, as reduce is.
func (m *mont2) add(x0, x1, y0, y1 uint64) (uint64, uint64) {
	t0, c := bits.Add64(x0, y0, 0)
	t1, c := bits.Add64(x1, y1, c)
	s0, b := bits.Sub64(t0, m.n0, 0)
	s1, b := bits.Sub64(t1, m.n1, b)
	keep := -(b &^ c) // all ones when t < n
	return s0 ^ (s0^t0)&keep, s1 ^ (s1^t1)&keep
}

// sub returns x - y mod n for x, y < n.
func (m *mont2) sub(x0, x1, y0, y1 uint64) (uint64, uint64) {
	z0, b := bits.Sub64(x0, y0, 0)
	z1, b := bits.Sub64(x1, y1, b)
	wrap := -b // all ones when x < y: add n back
	z0, c := bits.Add64(z0, m.n0&wrap, 0)
	z1, _ = bits.Add64(z1, m.n1&wrap, c)
	return z0, z1
}

// gcd2 returns gcd(a, b) for a < 2^128 and an odd b < 2^128, as (low,
// high) limb pairs, by the binary method on words: with b odd, halving a
// leaves the GCD alone, and so does taking the smaller of two odd values
// from the larger. It is rho's unit test on the two-limb kernel, where a
// math/big GCD of two-limb operands costs several times as much.
func gcd2(a0, a1, b0, b1 uint64) (uint64, uint64) {
	for a0|a1 != 0 {
		if a0 == 0 {
			a0, a1 = a1, 0
		}
		z := uint(bits.TrailingZeros64(a0))
		a0, a1 = a0>>z|a1<<(64-z), a1>>z // a1<<64 is 0 when z is 0
		if a1 < b1 || a1 == b1 && a0 < b0 {
			a0, a1, b0, b1 = b0, b1, a0, a1
		}
		var c uint64
		a0, c = bits.Sub64(a0, b0, 0)
		a1, _ = bits.Sub64(a1, b1, c)
	}
	return b0, b1
}
