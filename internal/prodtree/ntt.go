package prodtree

import (
	"context"
	"math/big"
	"math/bits"
	"slices"
	"sync"

	"github.com/factorable/weakkeys/internal/kernel"
)

// The top of a product tree multiplies numbers of tens of thousands of
// words, where math/big's Karatsuba is far from the quasilinear multiply
// the paper's run linked (GMP's FFT). multiplier.mul is that multiply, written
// from the arithmetic: a number-theoretic transform over each of three
// primes p = c·2²⁵+1 < 2⁶², whose product (≈2¹⁸⁶) bounds every
// coefficient of a convolution of 64-bit limbs up to 3·2²⁵ long, joined
// back into words by Garner's CRT. Transforms run Harvey's lazy
// butterflies on Shoup-precomputed twiddles, two levels per pass over
// memory, pointwise products are Montgomery reductions, and a length may
// be 2ᵏ or 3·2ᵏ (one radix-3 step on top), so a product just past 2ᵏ
// limbs does not pay for 2ᵏ⁺¹.
//
// Operands are read as 64-bit limbs whatever big.Word's width: two
// 32-bit words make one limb, so the 32-bit build runs the same code.

// nttPrime is one transform modulus with what its arithmetic needs.
type nttPrime struct {
	p    uint64
	g    uint64 // a generator of (ℤ/p)ˣ
	pinv uint64 // p⁻¹ mod 2⁶⁴ (Montgomery)
	r    uint64 // 2⁶⁴ mod p, one in Montgomery form
	u    uint64 // ⌊2¹²⁵/p⌋, for shoup
}

func newPrime(p, g uint64) nttPrime {
	inv := p // Newton on the 2-adic inverse: each step doubles the correct bits
	for i := 0; i < 6; i++ {
		inv *= 2 - p*inv
	}
	_, r := bits.Div64(1, 0, p)
	u, _ := bits.Div64(1<<61, 0, p)
	return nttPrime{p: p, g: g, pinv: inv, r: r, u: u}
}

var primes = [3]nttPrime{
	newPrime(0x3fffffffea000001, 5),
	newPrime(0x3fffffff96000001, 17),
	newPrime(0x3ffffffe22000001, 5),
}

// nttMaxPow2 caps a transform's power-of-two factor at 2²⁵, the largest
// the primes support.
const nttMaxPow2 = 1 << 25

// mulmod is the slow general product, for set-up only.
func (q *nttPrime) mulmod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, r := bits.Div64(hi, lo, q.p)
	return r
}

func (q *nttPrime) pow(a, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = q.mulmod(r, a)
		}
		a = q.mulmod(a, a)
	}
	return r
}

// root returns a primitive n-th root of unity; n divides p−1.
func (q *nttPrime) root(n uint64) uint64 { return q.pow(q.g, (q.p-1)/n) }

// shoup returns ⌊w·2⁶⁴/p⌋ for a constant factor w < p, without a
// division, since twiddle tables take one per entry: with 2⁶¹ < p < 2⁶²,
// ⌊w·u/2⁶¹⌋ is short of it by at most 2, and the remainder w·2⁶⁴ − s·p,
// below 3p, is exact mod 2⁶⁴.
func (q *nttPrime) shoup(w uint64) uint64 {
	hi, lo := bits.Mul64(w, q.u)
	s := hi<<3 | lo>>61
	for r := -(s * q.p); r >= q.p; r -= q.p {
		s++
	}
	return s
}

// mulShoup returns x·w mod p in [0, 2p) for any x, ws = shoup(w).
func mulShoup(x, w, ws, p uint64) uint64 {
	hi, _ := bits.Mul64(x, ws)
	return x*w - hi*p
}

// redc returns a·b·2⁻⁶⁴ mod p in [0, p), given a·b < p·2⁶⁴.
func (q *nttPrime) redc(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	mh, _ := bits.Mul64(lo*q.pinv, q.p)
	r := hi - mh
	if hi < mh {
		r += q.p
	}
	return r
}

// twiddles returns the table a length-2·half transform reads: (w, shoup(w))
// pairs with w = ω^brv(i) for ω a primitive 2·half-th root and brv the
// reversal of lg(half) bits. The butterflies of every level m ≤ half read
// entry i for block i, since ω_{2m}^brv_m(i) = ω_{2half}^brv_half(i): a
// table's entries are those of every shorter one, so it extends tw, the
// table of a shorter power of two (or nil), and computes only the rest.
func (q *nttPrime) twiddles(tw []uint64, half int) []uint64 {
	out := make([]uint64, 2*half)
	copy(out, tw)
	h := len(tw) / 2
	if h == 0 {
		out[0], out[1] = 1, q.shoup(1)
		h = 1
	}
	for ; h < half; h *= 2 {
		// Entries h … 2h−1 of the table for 2h: the odd powers of its ω.
		w := q.root(uint64(4 * h))
		w2 := q.mulmod(w, w)
		w2s := q.shoup(w2)
		shift := 64 - bits.Len(uint(h)) // reverses lg(2h) bits
		x := w
		for j := 1; j < 2*h; j += 2 {
			i := bits.Reverse64(uint64(j)) >> shift
			out[2*i], out[2*i+1] = x, q.shoup(x)
			x = mulShoup(x, w2, w2s, q.p)
			if x >= q.p {
				x -= q.p
			}
		}
	}
	return out
}

// nttLeaf is the length from which a transform recurses on its quarters
// instead of sweeping the whole array once per pair of levels: 16 KiB,
// so the transforms below it run in cache.
const nttLeaf = 1 << 11

// forward is the Cooley–Tukey transform, natural order in, bit-reversed
// order out, inputs in [0, 4p), outputs in [0, 4p). It runs two levels
// per pass (ct4), then one radix-2 level when the levels above the last
// are odd in number, then the last level unrolled.
func (q *nttPrime) forward(a, tw []uint64) { q.forwardAt(a, tw, 0) }

// forwardAt transforms a, which is block b of its first level: the
// blocks its levels split into are b·m … b·m+m−1 of the whole.
func (q *nttPrime) forwardAt(a, tw []uint64, b int) {
	for len(a) > nttLeaf {
		s := len(a) / 4
		q.ct4(a, tw, b)
		for r := 0; r < 3; r++ {
			q.forwardAt(a[r*s:(r+1)*s], tw, 4*b+r)
		}
		a, b = a[3*s:], 4*b+3
	}
	n := len(a)
	// m blocks of 2t at the first of each pair of levels.
	m, t := 1, n/2
	for ; t >= 4; m, t = 4*m, t/4 {
		for i := 0; i < m; i++ {
			q.ct4(a[2*i*t:2*(i+1)*t], tw, b*m+i)
		}
	}
	if t == 2 {
		for i := 0; i < m; i++ {
			k := 2 * (b*m + i)
			q.ct(a[4*i:4*i+2], a[4*i+2:4*i+4], tw[k], tw[k+1])
		}
	}
	if n > 1 {
		// The last level, one butterfly per block, unrolled from ct.
		p, p2 := q.p, 2*q.p
		tw := tw[2*b*(n/2) : 2*(b+1)*(n/2)]
		for i := 0; i+1 < len(a); i += 2 {
			u := a[i]
			if u >= p2 {
				u -= p2
			}
			hi, _ := bits.Mul64(a[i+1], tw[i+1])
			v := a[i+1]*tw[i] - hi*p
			a[i], a[i+1] = u+v, u-v+p2
		}
	}
}

// ct runs the Cooley–Tukey butterflies x, y ← x + wy, x − wy.
func (q *nttPrime) ct(x, y []uint64, w, ws uint64) {
	p, p2 := q.p, 2*q.p
	y = y[:len(x)]
	for j := range x {
		u := x[j]
		if u >= p2 {
			u -= p2
		}
		hi, _ := bits.Mul64(y[j], ws)
		v := y[j]*w - hi*p
		x[j] = u + v
		y[j] = u - v + p2
	}
}

// ct4 runs two Cooley–Tukey levels over the quarters x0 … x3 of a, block
// j of the first: x0, x2 and x1, x3 with twiddle j, then x0, x1 with 2j
// and x2, x3 with 2j+1, in one pass over memory. Each u operand is cut
// to [0, 2p) before its butterfly, so values stay in [0, 4p).
func (q *nttPrime) ct4(a, tw []uint64, j int) {
	p, p2 := q.p, 2*q.p
	w, ws := tw[2*j], tw[2*j+1]
	w0, w0s, w1, w1s := tw[4*j], tw[4*j+1], tw[4*j+2], tw[4*j+3]
	s := len(a) / 4
	x0, x1, x2, x3 := a[:s], a[s:2*s], a[2*s:3*s], a[3*s:4*s]
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	for k := range x0 {
		u0, u1 := x0[k], x1[k]
		if u0 >= p2 {
			u0 -= p2
		}
		if u1 >= p2 {
			u1 -= p2
		}
		y2, y3 := x2[k], x3[k]
		hi, _ := bits.Mul64(y2, ws)
		v2 := y2*w - hi*p
		hi, _ = bits.Mul64(y3, ws)
		v3 := y3*w - hi*p
		z0, z1 := u0+v2, u1+v3
		z2, z3 := u0-v2+p2, u1-v3+p2
		if z0 >= p2 {
			z0 -= p2
		}
		if z2 >= p2 {
			z2 -= p2
		}
		hi, _ = bits.Mul64(z1, w0s)
		v1 := z1*w0 - hi*p
		hi, _ = bits.Mul64(z3, w1s)
		v3 = z3*w1 - hi*p
		x0[k], x1[k] = z0+v1, z0-v1+p2
		x2[k], x3[k] = z2+v3, z2-v3+p2
	}
}

// inverse undoes forward up to the factor len(a): a Gentleman–Sande pass
// over the same twiddles (which computes the transform at ω, not ω⁻¹,
// from bit-reversed order) and a reversal of a[1:], since Σ Âₖωʲᵏ is
// n·a₋ⱼ. Inputs in [0, 2p), outputs in [0, 2p).
func (q *nttPrime) inverse(a, tw []uint64) {
	q.inverseAt(a, tw, 0)
	if len(a) > 1 {
		slices.Reverse(a[1:])
	}
}

// inverseAt is forwardAt's mirror: the quarters first, then a's own two
// levels; below nttLeaf the first level unrolled, one radix-2 level when
// the rest are odd in number, then two levels per pass.
func (q *nttPrime) inverseAt(a, tw []uint64, b int) {
	n := len(a)
	if n > nttLeaf {
		s := n / 4
		for r := 0; r < 4; r++ {
			q.inverseAt(a[r*s:(r+1)*s], tw, 4*b+r)
		}
		q.gs4(a, tw, b)
		return
	}
	if n > 1 {
		// The first level, one butterfly per block, unrolled from gs.
		p, p2 := q.p, 2*q.p
		tw := tw[2*b*(n/2) : 2*(b+1)*(n/2)]
		for i := 0; i+1 < len(a); i += 2 {
			u, v := a[i], a[i+1]
			s := u + v
			if s >= p2 {
				s -= p2
			}
			d := u - v + p2
			hi, _ := bits.Mul64(d, tw[i+1])
			a[i], a[i+1] = s, d*tw[i]-hi*p
		}
	}
	t := 2 // the half-block length of the next level
	if n >= 4 && bits.TrailingZeros(uint(n))%2 == 0 {
		for i := 0; i < n/4; i++ {
			k := 2 * (b*(n/4) + i)
			q.gs(a[4*i:4*i+2], a[4*i+2:4*i+4], tw[k], tw[k+1])
		}
		t = 4
	}
	// m blocks of 4t at the first of each pair of levels.
	for m := n / (4 * t); m >= 1; m, t = m/4, 4*t {
		for i := 0; i < m; i++ {
			q.gs4(a[4*i*t:4*(i+1)*t], tw, b*m+i)
		}
	}
}

// gs runs the Gentleman–Sande butterflies x, y ← x + y, (x − y)·w.
func (q *nttPrime) gs(x, y []uint64, w, ws uint64) {
	p, p2 := q.p, 2*q.p
	y = y[:len(x)]
	for j := range x {
		u, v := x[j], y[j]
		s := u + v
		if s >= p2 {
			s -= p2
		}
		x[j] = s
		d := u - v + p2
		hi, _ := bits.Mul64(d, ws)
		y[j] = d*w - hi*p
	}
}

// gs4 is ct4's inverse pass: x0, x1 with twiddle 2j and x2, x3 with
// 2j+1, then x0, x2 and x1, x3 with j. Values stay in [0, 2p).
func (q *nttPrime) gs4(a, tw []uint64, j int) {
	p, p2 := q.p, 2*q.p
	w, ws := tw[2*j], tw[2*j+1]
	w0, w0s, w1, w1s := tw[4*j], tw[4*j+1], tw[4*j+2], tw[4*j+3]
	s := len(a) / 4
	x0, x1, x2, x3 := a[:s], a[s:2*s], a[2*s:3*s], a[3*s:4*s]
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	for k := range x0 {
		u0, u1, u2, u3 := x0[k], x1[k], x2[k], x3[k]
		s0, s1 := u0+u1, u2+u3
		if s0 >= p2 {
			s0 -= p2
		}
		if s1 >= p2 {
			s1 -= p2
		}
		d0, d1 := u0-u1+p2, u2-u3+p2
		hi, _ := bits.Mul64(d0, w0s)
		d0 = d0*w0 - hi*p
		hi, _ = bits.Mul64(d1, w1s)
		d1 = d1*w1 - hi*p
		y0, y1 := s0+s1, d0+d1
		if y0 >= p2 {
			y0 -= p2
		}
		if y1 >= p2 {
			y1 -= p2
		}
		e0, e1 := s0-s1+p2, d0-d1+p2
		hi, _ = bits.Mul64(e0, ws)
		x2[k] = e0*w - hi*p
		hi, _ = bits.Mul64(e1, ws)
		x3[k] = e1*w - hi*p
		x0[k], x1[k] = y0, y1
	}
}

// radix3 holds a 3n-point transform's extra constants: ζ a primitive
// 3n-th root and ρ = ζⁿ a cube root of one.
type radix3 struct {
	zeta, zetaS, izeta, izetaS uint64 // ζ, ζ⁻¹ and their Shoup factors
	rho, rhoS                  uint64 // ρ and shoup(ρ)
}

func (q *nttPrime) radix3(n int) radix3 {
	z := q.root(uint64(3 * n))
	iz := q.pow(z, q.p-2)
	rho := q.pow(z, uint64(n))
	return radix3{zeta: z, zetaS: q.shoup(z), izeta: iz, izetaS: q.shoup(iz), rho: rho, rhoS: q.shoup(rho)}
}

// forward3 is the radix-3 decimation-in-frequency step of a 3n-point
// transform: afterwards third r of a, transformed at length n, holds the
// evaluations at ζ^(3k+r). Inputs in [0, 2p), outputs in [0, 2p).
func (q *nttPrime) forward3(a []uint64, c radix3) {
	p, p2 := q.p, 2*q.p
	n := len(a) / 3
	a0, a1, a2 := a[:n], a[n:2*n], a[2*n:3*n]
	w1 := q.r // ζʲ in Montgomery form
	for j := range a0 {
		x0, x1, x2 := a0[j], a1[j], a2[j]
		s := x0 + x1
		if s >= p2 {
			s -= p2
		}
		s += x2
		if s >= p2 {
			s -= p2
		}
		// x0 + ρx1 + ρ²x2 = x0 − x2 + ρ(x1 − x2), and with x1, x2
		// swapped for x0 + ρ²x1 + ρ⁴x2, since 1 + ρ + ρ² = 0.
		t1 := mulShoup(x1-x2+p2, c.rho, c.rhoS, p)
		t2 := mulShoup(x2-x1+p2, c.rho, c.rhoS, p)
		y1 := reduce4(x0-x2+p2, p2) + t1 // < 4p
		y2 := reduce4(x0-x1+p2, p2) + t2
		w2 := q.redc(w1, w1) // ζ²ʲ in Montgomery form: (ζʲR)²/R
		a0[j] = s
		a1[j] = q.redc(reduce4(y1, p2), w1)
		a2[j] = q.redc(reduce4(y2, p2), w2)
		w1 = mulShoup(w1, c.zeta, c.zetaS, p)
		if w1 >= p {
			w1 -= p
		}
	}
}

// reduce4 brings x < 4p into [0, 2p).
func reduce4(x, p2 uint64) uint64 {
	if x >= p2 {
		x -= p2
	}
	return x
}

// nttLen returns the shortest supported transform length ≥ need, and 0
// when need is past what the primes support.
func nttLen(need int) int {
	n := 1
	for n < need {
		n <<= 1
	}
	if n >= 4 && 3*(n/4) >= need {
		n = 3 * (n / 4)
	}
	pow2 := n
	if n%3 == 0 {
		pow2 = n / 3
	}
	if pow2 > nttMaxPow2 {
		return 0
	}
	return n
}

// wpl is the number of big.Words per 64-bit limb.
const wpl = 64 / wordBits

// limbs is the length of ws in 64-bit limbs.
func limbs(ws []big.Word) int { return (len(ws) + wpl - 1) / wpl }

func limbAt(ws []big.Word, i int) uint64 {
	if wpl == 1 {
		return uint64(ws[i])
	}
	v := uint64(ws[2*i])
	if 2*i+1 < len(ws) {
		v |= uint64(ws[2*i+1]) << 32
	}
	return v
}

func putLimb(ws []big.Word, i int, v uint64) {
	if wpl == 1 {
		ws[i] = big.Word(v)
		return
	}
	ws[2*i] = big.Word(uint32(v))
	ws[2*i+1] = big.Word(v >> 32)
}

// Garner's constants: x = v1 + v2·p1 + v3·p1·p2 from the three residues.
var (
	c12, c12S    = inverseShoup(&primes[1], primes[0].p)
	c13, c13S    = inverseShoup(&primes[2], primes[0].p)
	c23, c23S    = inverseShoup(&primes[2], primes[1].p)
	p12hi, p12lo = bits.Mul64(primes[0].p, primes[1].p)
)

func inverseShoup(q *nttPrime, a uint64) (uint64, uint64) {
	inv := q.pow(a%q.p, q.p-2)
	return inv, q.shoup(inv)
}

// multiplier runs transform products for one tree pass. Its twiddle
// tables and scratch live only as long as it does: a pass makes one,
// and it is dropped with the pass, so nothing outlives the call.
type multiplier struct {
	eng  *kernel.Engine
	ctx  context.Context // for the engine and events; never cancels a product half done
	mu   sync.Mutex
	tw   [3][]uint64 // per prime, for the longest power-of-two length so far
	free [][]uint64
}

func newMultiplier(ctx context.Context) *multiplier {
	return &multiplier{eng: kernel.FromContext(ctx), ctx: context.WithoutCancel(ctx)}
}

// table returns prime pi's twiddles for power-of-two lengths up to 2·half.
func (m *multiplier) table(pi, half int) []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.tw[pi]) < 2*half {
		m.tw[pi] = primes[pi].twiddles(m.tw[pi], half)
	}
	return m.tw[pi][:2*half]
}

// buffer returns a transform buffer of length n, from the free list when
// one is long enough. Free buffers too short for n are dropped rather
// than held to the end of the pass: lengths grow up a build and through
// a reciprocal's Newton steps, and a descent that shrinks them again
// reuses the longer buffers.
func (m *multiplier) buffer(n int) []uint64 {
	m.mu.Lock()
	var got []uint64
	keep := m.free[:0]
	for _, b := range m.free {
		switch {
		case cap(b) < n:
		case got == nil:
			got = b[:n]
		default:
			keep = append(keep, b)
		}
	}
	clear(m.free[len(keep):])
	m.free = keep
	m.mu.Unlock()
	if got == nil {
		got = make([]uint64, n)
	}
	return got
}

func (m *multiplier) release(bufs ...[]uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.free = append(m.free, bufs...)
}

// product is one output of convolve: the sum over terms of the cyclic
// convolution of the two sources each names, carried, with its limbs
// lo … lo+limbs(out)−1 stored in out.
type product struct {
	terms [][2]int
	out   []big.Word
	lo    int
}

// passChunk is the length, in points or limbs, of one op of the passes
// after the inverse transforms' parts: their tops and Garner's CRT split
// into ops this long, so a lone product keeps every worker busy.
const passChunk = 1 << 13

// convolve computes prods from srcs, each read as a limb vector of at
// most L limbs, at transform length L. Any carry out of limb L−1 is
// dropped: with L ≥ the product's length a term is the product itself;
// shorter, its limbs from L up are added in at the bottom. Each source is
// transformed once however many terms read it. The pointwise pass reads
// every source at a point before it writes, and product k's sum
// overwrites the k-th of the last len(prods) sources. A sum of two terms
// stays within the primes' range.
//
// Every phase is split into ops for the engine: every source under every
// prime; the pointwise products and inverse transforms of each third (a
// 3n-point length) or half (2ᵏ) under every prime; then the top of each
// inverse, and Garner's CRT, in chunks of passChunk. Two workers are
// never left with a lone transform or carry pass.
func (m *multiplier) convolve(srcs [][]big.Word, L int, prods []product) {
	n := L
	if L%3 == 0 {
		n = L / 3
	}
	var tw [3][]uint64
	for pi := range primes {
		tw[pi] = m.table(pi, max(n/2, 1))
	}
	bufs := make([][3][]uint64, len(srcs))
	m.eng.Run(m.ctx, 3*len(srcs), func(o int, _ *kernel.Arena) {
		k, pi := o/3, o%3
		q := &primes[pi]
		buf := m.buffer(L)
		src := srcs[k]
		nl := limbs(src)
		p2 := 2 * q.p
		for i := 0; i < nl; i++ {
			x := limbAt(src, i)
			if x >= p2 {
				x -= p2
			}
			if x >= p2 {
				x -= p2
			}
			buf[i] = x
		}
		clear(buf[nl:])
		q.transform(buf, n, tw[pi])
		bufs[k][pi] = buf
	})
	dst := len(srcs) - len(prods)
	parts := 2
	if n != L {
		parts = 3
	} else if L == 1 {
		parts = 1
	}
	m.eng.Run(m.ctx, 3*parts, func(o int, _ *kernel.Arena) {
		pi, r := o/parts, o%parts
		q := &primes[pi]
		lo, hi := r*L/parts, (r+1)*L/parts
		q.pointwise(bufs, prods, dst, pi, lo, hi)
		for k := range prods {
			a := bufs[dst+k][pi][lo:hi]
			if parts == 3 {
				q.inverse(a, tw[pi])
			} else {
				q.inverseAt(a, tw[pi], r)
			}
		}
	})
	// The top of each inverse: a 3n-point output's radix-3 step, a
	// 2ᵏ-point one's top level and reversal as pairs of points (see
	// finish2); with the scale by L⁻¹·2⁶⁴, the length and the redc's 2⁻⁶⁴.
	span := L/4 + 1
	if n != L {
		span = n
	}
	chunks := (span + passChunk - 1) / passChunk
	var scale [3][2]uint64
	var c3 [3]radix3
	for pi := range primes {
		q := &primes[pi]
		s := q.mulmod(q.pow(uint64(L), q.p-2), q.r)
		scale[pi] = [2]uint64{s, q.shoup(s)}
		if n != L {
			c3[pi] = q.radix3(n)
		}
	}
	m.eng.Run(m.ctx, 3*len(prods)*chunks, func(o int, _ *kernel.Arena) {
		c, pi, k := o%chunks, o/chunks%3, o/chunks/3
		q := &primes[pi]
		lo, hi := c*passChunk, min((c+1)*passChunk, span)
		a := bufs[dst+k][pi]
		if n != L {
			q.finish3(a, c3[pi], scale[pi][0], scale[pi][1], lo, hi)
		} else {
			q.finish2(a, scale[pi][0], scale[pi][1], lo, hi)
		}
	})
	// Garner per chunk from a zero carry; then each chunk's carry is
	// added in above it, which ripples a few limbs.
	type crt struct {
		k, lo, hi int
		c0, c1    uint64
	}
	var gs []crt
	for k, pr := range prods {
		end := pr.lo + limbs(pr.out)
		for lo := 0; lo < end; lo += passChunk {
			gs = append(gs, crt{k: k, lo: lo, hi: min(lo+passChunk, end)})
		}
	}
	m.eng.Run(m.ctx, len(gs), func(o int, _ *kernel.Arena) {
		g := &gs[o]
		pr := &prods[g.k]
		g.c0, g.c1 = garner(bufs[dst+g.k], pr.out, pr.lo, g.lo, g.hi)
	})
	for _, g := range gs {
		pr := &prods[g.k]
		carryIn(bufs[dst+g.k][0], pr.out, pr.lo, g.hi, g.c0, g.c1)
	}
	for _, b := range bufs {
		m.release(b[:]...)
	}
}

// pointwise sets, for points lo … hi−1 under prime pi, every product's
// sum of pointwise products into its destination, source dst+k's buffer.
// It goes a block of points at a time, every product's sums into scratch
// before any is stored, so a product may read another's destination.
func (q *nttPrime) pointwise(bufs [][3][]uint64, prods []product, dst, pi, lo, hi int) {
	const block = 64
	p, p2, pinv := q.p, 2*q.p, q.pinv
	sums := make([][block]uint64, len(prods))
	for j0 := lo; j0 < hi; j0 += block {
		j1 := min(j0+block, hi)
		for k := range prods {
			s := sums[k][:j1-j0]
			clear(s)
			for _, t := range prods[k].terms {
				x, y := bufs[t[0]][pi][j0:j1], bufs[t[1]][pi][j0:j1]
				x, y = x[:len(s)], y[:len(s)]
				for j := range s {
					// s + redc(x, y), x and y cut to [0, 2p) (see redc).
					hi, lo := bits.Mul64(reduce4(x[j], p2), reduce4(y[j], p2))
					mh, _ := bits.Mul64(lo*pinv, p)
					r := hi - mh
					if hi < mh {
						r += p
					}
					r += s[j]
					if r >= p {
						r -= p
					}
					s[j] = r
				}
			}
		}
		for k := range prods {
			copy(bufs[dst+k][pi][j0:j1], sums[k][:j1-j0])
		}
	}
}

// transform is forward at length len(a), n = len(a) or len(a)/3.
func (q *nttPrime) transform(a []uint64, n int, tw []uint64) {
	if len(a) == n {
		q.forward(a, tw)
		return
	}
	q.forward3(a, q.radix3(n))
	for r := 0; r < 3; r++ {
		q.forward(a[r*n:(r+1)*n], tw)
	}
}

// finish2 ends the inverse of a 2ᵏ-point a whose halves have been
// through inverseAt: the top level (twiddle 1: x + y, x − y), the
// reversal of a[1:] and the scale by s, ss = shoup(s), leaving canonical
// residues in [0, p). The reversal sends the top level's outputs at j and
// h+j, h = len(a)/2, to h−j and 2h−j, so the pairs j and h−j are done
// together, for j in [lo, hi) ⊆ [0, h/2].
func (q *nttPrime) finish2(a []uint64, s, ss uint64, lo, hi int) {
	p, p2 := q.p, 2*q.p
	h := len(a) / 2
	if h == 0 {
		a[0] = canon(a[0], s, ss, p)
		return
	}
	x, y := a[:h], a[h:2*h]
	for j := lo; j < hi; j++ {
		if j == 0 {
			u, v := x[0], y[0]
			x[0], y[0] = canon(u+v, s, ss, p), canon(u-v+p2, s, ss, p)
			continue
		}
		k := h - j
		uj, vj, uk, vk := x[j], y[j], x[k], y[k]
		x[k], y[k] = canon(uj-vj+p2, s, ss, p), canon(uj+vj, s, ss, p)
		x[j], y[j] = canon(uk-vk+p2, s, ss, p), canon(uk+vk, s, ss, p)
	}
}

// canon returns x·s mod p in [0, p) for any x, ss = shoup(s).
func canon(x, s, ss, p uint64) uint64 {
	x = mulShoup(x, s, ss, p)
	if x >= p {
		x -= p
	}
	return x
}

// finish3 ends the inverse of a 3n-point a whose thirds have been
// through inverse, at points lo … hi−1 of each third: it undoes forward3
// up to the factor 3, c_{j+sn} = Σ_r ρ⁻ʳˢ ζ⁻ʳʲ e_r[j], and scales by s,
// ss = shoup(s), leaving canonical residues in [0, p).
func (q *nttPrime) finish3(a []uint64, c radix3, s, ss uint64, lo, hi int) {
	p := q.p
	n := len(a) / 3
	a0, a1, a2 := a[:n], a[n:2*n], a[2*n:3*n]
	w1 := q.mulmod(q.pow(c.izeta, uint64(lo)), q.r) // ζ⁻ʲ in Montgomery form
	for j := lo; j < hi; j++ {
		w2 := q.redc(w1, w1)
		e0 := a0[j]
		if e0 >= p {
			e0 -= p
		}
		e1 := q.redc(a1[j], w1) // [0, p)
		e2 := q.redc(a2[j], w2)
		// ρ⁻¹ = ρ², ρ⁻² = ρ: c_{j+n} = e0 + ρ²e1 + ρe2 = e0 − e1 + ρ(e2 − e1),
		// c_{j+2n} = e0 + ρe1 + ρ²e2 = e0 − e2 + ρ(e1 − e2).
		t1 := mulShoup(e2-e1+p, c.rho, c.rhoS, p)
		t2 := mulShoup(e1-e2+p, c.rho, c.rhoS, p)
		a0[j] = canon(e0+e1+e2, s, ss, p)
		a1[j] = canon(e0-e1+p+t1, s, ss, p)
		a2[j] = canon(e0-e2+p+t2, s, ss, p)
		w1 = mulShoup(w1, c.izeta, c.izetaS, p)
		if w1 >= p {
			w1 -= p
		}
	}
}

// garner joins the three residue vectors of limbs lo … hi−1 into limbs,
// carrying from zero: limb i is stored at out's limb i−from, or, below
// from, back in r[0][i], which nothing reads again. It returns the carry
// out of limb hi−1, c0 + c1·2⁶⁴.
func garner(r [3][]uint64, out []big.Word, from, lo, hi int) (uint64, uint64) {
	p1, p2, p3 := primes[0].p, primes[1].p, primes[2].p
	var c0, c1, c2 uint64
	for i := lo; i < hi; i++ {
		v1 := r[0][i]
		t := v1
		if t >= p2 {
			t -= p2
		}
		v2 := mulShoup(r[1][i]+p2-t, c12, c12S, p2)
		if v2 >= p2 {
			v2 -= p2
		}
		t = v1
		if t >= p3 {
			t -= p3
		}
		u := mulShoup(r[2][i]+p3-t, c13, c13S, p3)
		t = v2
		if t >= p3 {
			t -= p3
		}
		v3 := mulShoup(u+2*p3-t, c23, c23S, p3)
		if v3 >= p3 {
			v3 -= p3
		}
		// x = v1 + v2·p1 + v3·(p1·p2)
		h, l := bits.Mul64(v2, p1)
		ah, al := bits.Mul64(v3, p12lo)
		bh, bl := bits.Mul64(v3, p12hi)
		x0, cy := bits.Add64(l, v1, 0)
		x1, cy := bits.Add64(h, ah, cy)
		x2 := bh + cy
		x1, cy = bits.Add64(x1, bl, 0)
		x2 += cy
		x0, cy = bits.Add64(x0, al, 0)
		x1, cy = bits.Add64(x1, 0, cy)
		x2 += cy
		c0, cy = bits.Add64(c0, x0, 0)
		c1, cy = bits.Add64(c1, x1, cy)
		c2 += x2 + cy
		if i >= from {
			putLimb(out, i-from, c0)
		} else {
			r[0][i] = c0
		}
		c0, c1, c2 = c1, c2, 0
	}
	return c0, c1
}

// carryIn adds c0 + c1·2⁶⁴ at limb i of the limbs garner stored, up to
// limb from+limbs(out)−1; a carry past it is dropped, as garner drops
// one. The carry is below 2¹²⁴, so after its first limbs it is one bit.
func carryIn(r0 []uint64, out []big.Word, from, i int, c0, c1 uint64) {
	for end := from + limbs(out); i < end && c0|c1 != 0; i++ {
		var v uint64
		if i < from {
			v = r0[i]
		} else {
			v = limbAt(out, i-from)
		}
		v, cy := bits.Add64(v, c0, 0)
		if i < from {
			r0[i] = v
		} else {
			putLimb(out, i-from, v)
		}
		c0, c1 = c1+cy, 0
	}
}

// mulCrossover is the operand length in limbs from which mul transforms:
// below it, on both sides, big.Int.Mul is as fast (see EXPERIMENTS.md,
// DIVMUL).
const mulCrossover = 2048

// pairCrossover is the node length in limbs from which mulPair
// transforms: a pair's three products cost about two transform products,
// so it passes big.Int.Mul's three below mulCrossover, between 768 and
// 1,024 limbs (DIVMUL, pair against pair3: 1.10× and 0.82×).
const pairCrossover = 896

// mul sets z = x·y and returns z, through the transform when both
// operands are at least mulCrossover limbs long. z may alias x or y.
func (m *multiplier) mul(z, x, y *big.Int) *big.Int {
	xw, yw := x.Bits(), y.Bits()
	lx, ly := limbs(xw), limbs(yw)
	L := nttLen(lx + ly)
	if lx < mulCrossover || ly < mulCrossover || L == 0 {
		return z.Mul(x, y)
	}
	neg := (x.Sign() < 0) != (y.Sign() < 0)
	out := z.Bits()
	// The operands are all read before out is written, so z may share
	// their storage.
	if w := (lx + ly) * wpl; cap(out) >= w {
		out = out[:w]
	} else {
		out = make([]big.Word, w)
	}
	m.convolve([][]big.Word{xw, yw}, L, []product{{terms: [][2]int{{0, 1}}, out: out}})
	z.SetBits(out)
	if neg {
		z.Neg(z)
	}
	return z
}

// mulPair returns a·b and da·b + a·db for non-negative operands, the
// product rule's step from two nodes and their derivatives to their
// parent's, with t as scratch. When a and b reach pairCrossover and their
// derivatives half that, as those of every node over two leaves or more
// do, one convolution transforms each operand once and both outputs
// share its pointwise pass (see pairProducts). Otherwise a·b goes through
// mul, and the derivative terms through big.Int.
func (m *multiplier) mulPair(a, b, da, db, t *big.Int) (ab, d *big.Int) {
	ws := [4][]big.Word{a.Bits(), b.Bits(), da.Bits(), db.Bits()}
	if min(limbs(ws[0]), limbs(ws[1])) >= pairCrossover && min(limbs(ws[2]), limbs(ws[3])) >= pairCrossover/2 {
		if ab, d := m.pairProducts(ws); ab != nil {
			return ab, d
		}
	}
	d = new(big.Int).Mul(da, b)
	return m.mul(new(big.Int), a, b), d.Add(d, t.Mul(a, db))
}

// pairProducts is mulPair's transform path for ws = a, b, da, db, nil
// past the primes' reach: the pointwise pass writes a·b into da's
// buffers and da·b + a·db, which may carry one limb past its longer
// term, into db's.
func (m *multiplier) pairProducts(ws [4][]big.Word) (ab, d *big.Int) {
	la, lb := limbs(ws[0]), limbs(ws[1])
	nab, nd := la+lb, max(limbs(ws[2])+lb, la+limbs(ws[3]))+1
	L := nttLen(max(nab, nd))
	if L == 0 {
		return nil, nil
	}
	abw, dw := make([]big.Word, nab*wpl), make([]big.Word, nd*wpl)
	m.convolve(ws[:], L, []product{
		{terms: [][2]int{{0, 1}}, out: abw},
		{terms: [][2]int{{2, 1}, {0, 3}}, out: dw},
	})
	return new(big.Int).SetBits(abw), new(big.Int).SetBits(dw)
}
