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
// butterflies on Shoup-precomputed twiddles, pointwise products are
// Montgomery reductions, and a length may be 2ᵏ or 3·2ᵏ (one radix-3
// step on top), so a product just past 2ᵏ limbs does not pay for 2ᵏ⁺¹.
//
// Operands are read as 64-bit limbs whatever big.Word's width: two
// 32-bit words make one limb, so the 32-bit build runs the same code.

// nttPrime is one transform modulus with what its arithmetic needs.
type nttPrime struct {
	p    uint64
	g    uint64 // a generator of (ℤ/p)ˣ
	pinv uint64 // p⁻¹ mod 2⁶⁴ (Montgomery)
	r    uint64 // 2⁶⁴ mod p, one in Montgomery form
}

func newPrime(p, g uint64) nttPrime {
	inv := p // Newton on the 2-adic inverse: each step doubles the correct bits
	for i := 0; i < 6; i++ {
		inv *= 2 - p*inv
	}
	_, r := bits.Div64(1, 0, p)
	return nttPrime{p: p, g: g, pinv: inv, r: r}
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

// shoup returns ⌊w·2⁶⁴/p⌋ for a constant factor w < p.
func (q *nttPrime) shoup(w uint64) uint64 {
	s, _ := bits.Div64(w, 0, q.p)
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
// entry i for block i, since ω_{2m}^brv_m(i) = ω_{2half}^brv_half(i).
func (q *nttPrime) twiddles(half int) []uint64 {
	tw := make([]uint64, 2*half)
	w := q.root(uint64(2 * half))
	ws := q.shoup(w)
	shift := 65 - bits.Len(uint(half)) // reverses lg(half) bits; 64 (all gone) for half = 1
	x := uint64(1)
	for j := 0; j < half; j++ {
		i := bits.Reverse64(uint64(j)) >> shift
		tw[2*i], tw[2*i+1] = x, q.shoup(x)
		x = mulShoup(x, w, ws, q.p)
		if x >= q.p {
			x -= q.p
		}
	}
	return tw
}

// nttLeaf is the length from which a transform recurses on its halves
// instead of sweeping the whole array once per level: 16 KiB, so each
// half-size transform runs in cache.
const nttLeaf = 1 << 11

// forward is the Cooley–Tukey transform, natural order in, bit-reversed
// order out, inputs in [0, 4p), outputs in [0, 4p).
func (q *nttPrime) forward(a, tw []uint64) { q.forwardAt(a, tw, 0) }

// forwardAt transforms a, which is block b of its first level: the
// blocks its levels split into are b·m … b·m+m−1 of the whole.
func (q *nttPrime) forwardAt(a, tw []uint64, b int) {
	for len(a) > nttLeaf {
		t := len(a) / 2
		q.ct(a[:t], a[t:], tw[2*b], tw[2*b+1])
		q.forwardAt(a[:t], tw, 2*b)
		a, b = a[t:], 2*b+1
	}
	n := len(a)
	for m, t := 1, n/2; t > 1; m, t = 2*m, t/2 {
		for i := 0; i < m; i++ {
			k := 2 * (b*m + i)
			q.ct(a[2*i*t:2*i*t+t], a[2*i*t+t:2*i*t+2*t], tw[k], tw[k+1])
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

// inverseAt is forwardAt's mirror: the halves first, then a's own level.
func (q *nttPrime) inverseAt(a, tw []uint64, b int) {
	n := len(a)
	if n > nttLeaf {
		t := n / 2
		q.inverseAt(a[:t], tw, 2*b)
		q.inverseAt(a[t:], tw, 2*b+1)
		q.gs(a[:t], a[t:], tw[2*b], tw[2*b+1])
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
	for m, t := n/4, 2; m >= 1; m, t = m/2, 2*t {
		for i := 0; i < m; i++ {
			k := 2 * (b*m + i)
			q.gs(a[2*i*t:2*i*t+t], a[2*i*t+t:2*i*t+2*t], tw[k], tw[k+1])
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

// inverse3 undoes forward3 up to the factor 3, after each third has been
// through inverse: c_{j+sn} = Σ_r ρ⁻ʳˢ ζ⁻ʳʲ e_r[j]. Inputs in [0, 2p),
// outputs in [0, 2p).
func (q *nttPrime) inverse3(a []uint64, c radix3) {
	p, p2 := q.p, 2*q.p
	n := len(a) / 3
	a0, a1, a2 := a[:n], a[n:2*n], a[2*n:3*n]
	w1 := q.r // ζ⁻ʲ in Montgomery form
	for j := range a0 {
		w2 := q.redc(w1, w1)
		e0 := a0[j]
		if e0 >= p {
			e0 -= p
		}
		e1 := q.redc(a1[j], w1) // [0, p)
		e2 := q.redc(a2[j], w2)
		s := e0 + e1 + e2 // < 3p
		// ρ⁻¹ = ρ², ρ⁻² = ρ: c_{j+n} = e0 + ρ²e1 + ρe2 = e0 − e1 + ρ(e2 − e1),
		// c_{j+2n} = e0 + ρe1 + ρ²e2 = e0 − e2 + ρ(e1 − e2).
		t1 := mulShoup(e2-e1+p, c.rho, c.rhoS, p)
		t2 := mulShoup(e1-e2+p, c.rho, c.rhoS, p)
		a0[j] = reduce4(s, p2)
		a1[j] = reduce4(e0-e1+p+t1, p2)
		a2[j] = reduce4(e0-e2+p+t2, p2)
		w1 = mulShoup(w1, c.izeta, c.izetaS, p)
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
		m.tw[pi] = primes[pi].twiddles(half)
	}
	return m.tw[pi][:2*half]
}

func (m *multiplier) buffer(n int) []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, b := range m.free {
		if cap(b) >= n {
			m.free = slices.Delete(m.free, i, i+1)
			return b[:n]
		}
	}
	return make([]uint64, n)
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

// convolve computes prods from srcs, each read as a limb vector of at
// most L limbs, at transform length L. Any carry out of limb L−1 is
// dropped: with L ≥ the product's length a term is the product itself;
// shorter, its limbs from L up are added in at the bottom. Each source is
// transformed once however many terms read it; a product's pointwise sum
// overwrites the second source of its first term, which no other product
// may read. A sum of two terms stays within the primes' range.
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
	// Every source under every prime is an op, then every product under
	// every prime, then every product's carry: two workers are never left
	// with a lone transform.
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
	m.eng.Run(m.ctx, 3*len(prods), func(o int, _ *kernel.Arena) {
		terms, pi := prods[o/3].terms, o%3
		q := &primes[pi]
		p2 := 2 * q.p
		dst := bufs[terms[0][1]][pi]
		for i := range dst {
			var s uint64
			for _, t := range terms {
				s += q.redc(reduce4(bufs[t[0]][pi][i], p2), reduce4(bufs[t[1]][pi][i], p2))
				if s >= q.p {
					s -= q.p
				}
			}
			dst[i] = s
		}
		q.untransform(dst, n, tw[pi])
	})
	m.eng.Run(m.ctx, len(prods), func(k int, _ *kernel.Arena) {
		garner(bufs[prods[k].terms[0][1]], prods[k].out, prods[k].lo)
	})
	for _, b := range bufs {
		m.release(b[:]...)
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

// untransform inverts transform and the Montgomery factor of the
// pointwise products, leaving canonical residues in [0, p).
func (q *nttPrime) untransform(a []uint64, n int, tw []uint64) {
	if len(a) == n {
		q.inverse(a, tw)
	} else {
		for r := 0; r < 3; r++ {
			q.inverse(a[r*n:(r+1)*n], tw)
		}
		q.inverse3(a, q.radix3(n))
	}
	// × L⁻¹·2⁶⁴: the length and the redc's 2⁻⁶⁴.
	s := q.mulmod(q.pow(uint64(len(a)), q.p-2), q.r)
	ss := q.shoup(s)
	for i, x := range a {
		x = mulShoup(x, s, ss, q.p)
		if x >= q.p {
			x -= q.p
		}
		a[i] = x
	}
}

// garner joins three residue vectors into limbs with carries, and
// stores limbs from … from+limbs(out)−1 in out.
func garner(r [3][]uint64, out []big.Word, from int) {
	p1, p2, p3 := primes[0].p, primes[1].p, primes[2].p
	var c0, c1, c2 uint64
	for i := 0; i < from+limbs(out); i++ {
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
		}
		c0, c1, c2 = c1, c2, 0
	}
}

// mulCrossover is the operand length in limbs from which mul transforms:
// below it, on both sides, big.Int.Mul is as fast (see EXPERIMENTS.md,
// DIVMUL).
const mulCrossover = 3072

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

// mulAdd sets z = a·b + c·d for non-negative operands and returns z,
// with t as scratch. When all four reach mulCrossover the two products
// are summed before the one inverse transform and carry they then share.
// z may alias any operand.
func (m *multiplier) mulAdd(z, a, b, c, d, t *big.Int) *big.Int {
	ws := [][]big.Word{a.Bits(), b.Bits(), c.Bits(), d.Bits()}
	need := max(limbs(ws[0])+limbs(ws[1]), limbs(ws[2])+limbs(ws[3])) + 1
	L := nttLen(need)
	if min(limbs(ws[0]), limbs(ws[1]), limbs(ws[2]), limbs(ws[3])) < mulCrossover || L == 0 {
		t.Mul(c, d)
		return z.Add(z.Mul(a, b), t)
	}
	out := z.Bits()
	if cap(out) >= need*wpl {
		out = out[:need*wpl]
	} else {
		out = make([]big.Word, need*wpl)
	}
	m.convolve(ws, L, []product{{terms: [][2]int{{0, 1}, {2, 3}}, out: out}})
	return z.SetBits(out)
}
