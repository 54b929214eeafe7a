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
