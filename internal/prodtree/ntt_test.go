package prodtree

import (
	"context"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// transformMul is x·y through the transform whatever the operand
// lengths, which mul would hand to big.Int.Mul below mulCrossover.
func transformMul(m *multiplier, x, y *big.Int) *big.Int {
	xw, yw := x.Bits(), y.Bits()
	lx, ly := limbs(xw), limbs(yw)
	out := make([]big.Word, (lx+ly)*wpl)
	m.convolve([][]big.Word{xw, yw}, nttLen(lx+ly), []product{{terms: [][2]int{{0, 1}}, out: out}})
	return new(big.Int).SetBits(out)
}

// operand returns a value of exactly w words: random, all ones, or a
// single top bit, by shape.
func operand(rng *rand.Rand, w int, shape int) *big.Int {
	if w == 0 {
		return new(big.Int)
	}
	ws := make([]big.Word, w)
	for i := range ws {
		switch shape {
		case 0:
			ws[i] = big.Word(rng.Uint64())
		case 1:
			ws[i] = ^big.Word(0)
		}
	}
	ws[w-1] |= 1 << (wordBits - 1)
	return new(big.Int).SetBits(ws)
}

// TestMulNTTMatchesBigInt holds the transform product to big.Int.Mul at
// power-of-two lengths and one either side of them (so both 2ᵏ and
// 3·2ᵏ transforms run), at one word, a zero operand, all-ones words and
// unequal lengths.
func TestMulNTTMatchesBigInt(t *testing.T) {
	m := newMultiplier(context.Background())
	rng := rand.New(rand.NewSource(29))
	var lens []int
	for k := 0; k <= 9; k++ {
		lens = append(lens, 1<<k-1, 1<<k, 1<<k+1)
	}
	lens = append(lens, 3000, 4097)
	// Long enough that the top of the inverse and Garner run in several
	// chunks: 30,000 words is a 2¹⁶-point transform on 64-bit words.
	for _, l := range []int{20000, 30000} {
		x, y := operand(rng, l, 0), operand(rng, l-7, 1)
		if transformMul(m, x, y).Cmp(new(big.Int).Mul(x, y)) != 0 {
			t.Fatalf("%d words: transform product differs from big.Int.Mul", l)
		}
	}
	for _, lx := range lens {
		for _, ly := range []int{lx, 1, 0, lx/3 + 1, 2*lx + 1} {
			for shape := 0; shape < 3; shape++ {
				x, y := operand(rng, lx, shape), operand(rng, ly, (shape+1)%3)
				want := new(big.Int).Mul(x, y)
				if got := transformMul(m, x, y); got.Cmp(want) != 0 {
					t.Fatalf("%d×%d words, shape %d: transform product differs from big.Int.Mul", lx, ly, shape)
				}
			}
		}
	}
}

// TestMulDispatch checks that mul agrees with big.Int.Mul on both sides
// of mulCrossover and writes into z's storage, or z aliasing an operand.
func TestMulDispatch(t *testing.T) {
	m := newMultiplier(context.Background())
	rng := rand.New(rand.NewSource(30))
	for _, l := range []int{mulCrossover - 1, mulCrossover, mulCrossover + 5} {
		x, y := operand(rng, l*wpl, 0), operand(rng, (l+3)*wpl, 0)
		want := new(big.Int).Mul(x, y)
		if got := m.mul(new(big.Int), x, y); got.Cmp(want) != 0 {
			t.Fatalf("%d limbs: mul differs from big.Int.Mul", l)
		}
		if got := m.mul(x, x, y); got.Cmp(want) != 0 {
			t.Fatalf("%d limbs: mul into its own operand differs", l)
		}
	}
}

// FuzzMulPair holds the product rule's fused step, (a·b, da·b + a·db),
// to big.Int, both through mulPair's dispatch and through the transform
// whatever the lengths. Operands are drawn from a seed at the limb
// lengths given (each cut below 4,097) and a shape: random, all ones or
// a single top bit. The seeds sit on both sides of pairCrossover and of
// mulCrossover, which the fallback's a·b dispatches on.
func FuzzMulPair(f *testing.F) {
	c, mc := uint16(pairCrossover), uint16(mulCrossover)
	for _, s := range [][5]uint16{
		{c - 1, c, c, c, 0}, // one node below the crossover
		{c, c, c/2 - 1, c, 1},
		{c, c, c, c, 1}, // on the transform, all ones
		{mc - 1, mc, 1, 1, 0},
		{mc, mc, 1, 1, 2},           // a·b alone on the transform
		{mc, mc, mc, mc - 1, 0},     // all four past both crossovers
		{513, 512, 510, 511, 0},     // a·b just past 2¹⁰ limbs
		{769, 768, 767, 768, 2},     // just past 3·2⁹
		{1025, 1024, 1024, 1020, 0}, // just past 2¹¹
		{40, 33, 0, 0, 0},           // D = 0
		{40, 33, 1, 1, 1},           // one-limb D
		{1, 1, 1, 1, 1},
	} {
		f.Add(int64(s[0]), s[0], s[1], s[2], s[3], uint8(s[4]))
	}
	m := newMultiplier(context.Background())
	f.Fuzz(func(t *testing.T, seed int64, la, lb, lda, ldb uint16, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		var ops [4]*big.Int
		for i, l := range []uint16{la, lb, lda, ldb} {
			ops[i] = operand(rng, int(l%4097)*wpl, int(shape%3+uint8(i))%3)
		}
		a, b, da, db := ops[0], ops[1], ops[2], ops[3]
		wantAB := new(big.Int).Mul(a, b)
		wantD := new(big.Int).Mul(da, b)
		wantD.Add(wantD, new(big.Int).Mul(a, db))
		ab, d := m.mulPair(a, b, da, db, new(big.Int))
		if ab.Cmp(wantAB) != 0 || d.Cmp(wantD) != 0 {
			t.Fatalf("%d, %d, %d, %d limbs: mulPair differs from big.Int", la, lb, lda, ldb)
		}
		ab, d = m.pairProducts([4][]big.Word{a.Bits(), b.Bits(), da.Bits(), db.Bits()})
		if ab.Cmp(wantAB) != 0 || d.Cmp(wantD) != 0 {
			t.Fatalf("%d, %d, %d, %d limbs: transform pair differs from big.Int", la, lb, lda, ldb)
		}
	})
}

// forwardRadix2 and inverseRadix2 are the transforms one level per pass
// over the whole array, the shape forward and inverse had before their
// radix-4 passes: the oracle those are held to.
func (q *nttPrime) forwardRadix2(a, tw []uint64) {
	for m, t := 1, len(a)/2; t >= 1; m, t = 2*m, t/2 {
		for i := 0; i < m; i++ {
			q.ct(a[2*i*t:2*i*t+t], a[2*i*t+t:2*(i+1)*t], tw[2*i], tw[2*i+1])
		}
	}
}

func (q *nttPrime) inverseRadix2(a, tw []uint64) {
	for m, t := len(a)/2, 1; m >= 1; m, t = m/2, 2*t {
		for i := 0; i < m; i++ {
			q.gs(a[2*i*t:2*i*t+t], a[2*i*t+t:2*(i+1)*t], tw[2*i], tw[2*i+1])
		}
	}
	if len(a) > 1 {
		slices.Reverse(a[1:])
	}
}

// inverse3Oracle undoes forward3 up to the factor 3 the direct way:
// c_{j+sn} = Σ_r ρ⁻ʳˢ ζ⁻ʳʲ e_r[j], with slow products.
func (q *nttPrime) inverse3Oracle(a []uint64, n int) {
	z := q.root(uint64(3 * n))
	iz, irho := q.pow(z, q.p-2), q.pow(q.root(3), q.p-2)
	e := slices.Clone(a)
	for j := 0; j < n; j++ {
		for s := 0; s < 3; s++ {
			var c uint64
			for r := 0; r < 3; r++ {
				w := q.mulmod(q.pow(irho, uint64(r*s)), q.pow(iz, uint64(r*j)))
				c = (c + q.mulmod(w, e[r*n+j]%q.p)) % q.p
			}
			a[j+s*n] = c
		}
	}
}

// untransform runs the inverse as convolve does: the parts, then the top
// in chunks of 7 points, so chunk edges fall everywhere.
func (q *nttPrime) untransform(a []uint64, n int, tw []uint64) {
	L := len(a)
	s := q.mulmod(q.pow(uint64(L), q.p-2), q.r)
	span := L/4 + 1
	if n != L {
		for r := 0; r < 3; r++ {
			q.inverse(a[r*n:(r+1)*n], tw)
		}
		span = n
	} else if L > 1 {
		q.inverseAt(a[:L/2], tw, 0)
		q.inverseAt(a[L/2:], tw, 1)
	}
	for lo := 0; lo < span; lo += 7 {
		if n != L {
			q.finish3(a, q.radix3(n), s, q.shoup(s), lo, min(lo+7, span))
		} else {
			q.finish2(a, s, q.shoup(s), lo, min(lo+7, span))
		}
	}
}

// TestTransformMatchesRadix2 holds the radix-4 forward and inverse to the
// radix-2 oracle, mod p, at every length 2ᵏ and 3·2ᵏ up to 2¹⁵ under all
// three primes, with inputs at the lazy ranges' edges: 4p−1 into a 2ᵏ
// forward transform (2p−1 into forward3), 2p−1 into the inverse. The
// inverse is checked through the scale and the reversal against
// inverseRadix2, the direct inverse radix-3 step and a slow scale.
func TestTransformMatchesRadix2(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var lens []int
	for k := 0; 1<<k <= 1<<15; k++ {
		lens = append(lens, 1<<k)
		if 3<<k <= 1<<15 {
			lens = append(lens, 3<<k)
		}
	}
	for pi := range primes {
		q := &primes[pi]
		for _, L := range lens {
			n := L
			if L%3 == 0 {
				n = L / 3
			}
			tw := q.twiddles(nil, max(n/2, 1))
			in := func(bound uint64) []uint64 {
				a := make([]uint64, L)
				for i := range a {
					a[i] = rng.Uint64() % bound
					if i%5 == 0 || i == L-1 {
						a[i] = bound - 1
					}
				}
				return a
			}
			fb := 4 * q.p
			if n != L {
				fb = 2 * q.p
			}
			got := in(fb)
			want := slices.Clone(got)
			q.transform(got, n, tw)
			if n != L {
				q.forward3(want, q.radix3(n))
			}
			for r := 0; r < L/n; r++ {
				q.forwardRadix2(want[r*n:(r+1)*n], tw)
			}
			mustEqualMod(t, q, "forward", L, got, want)

			got = in(2 * q.p)
			want = slices.Clone(got)
			q.untransform(got, n, tw)
			for r := 0; r < L/n; r++ {
				q.inverseRadix2(want[r*n:(r+1)*n], tw)
			}
			if n != L {
				q.inverse3Oracle(want, n)
			}
			s := q.mulmod(q.pow(uint64(L), q.p-2), q.r)
			for i := range want {
				want[i] = q.mulmod(want[i]%q.p, s)
				if got[i] >= q.p {
					t.Fatalf("p%d, length %d: inverse output %d not canonical", pi, L, i)
				}
			}
			mustEqualMod(t, q, "inverse", L, got, want)
		}
	}
}

// TestShoupMatchesDivision holds shoup to ⌊w·2⁶⁴/p⌋ by division at the
// ends of its range and at random factors, under every prime.
func TestShoupMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for pi := range primes {
		q := &primes[pi]
		ws := []uint64{0, 1, 2, q.p - 2, q.p - 1, q.p / 2, q.p/2 + 1}
		for i := 0; i < 100000; i++ {
			ws = append(ws, rng.Uint64()%q.p)
		}
		for _, w := range ws {
			if want, _ := bits.Div64(w, 0, q.p); q.shoup(w) != want {
				t.Fatalf("p%d: shoup(%d) = %d, want %d", pi, w, q.shoup(w), want)
			}
		}
	}
}

// TestTwiddlesGrow: a table grown a doubling at a time, or from a
// shorter one in a jump, holds ω^brv(i) and its Shoup factor at entry i.
func TestTwiddlesGrow(t *testing.T) {
	const half = 1 << 12
	for pi := range primes {
		q := &primes[pi]
		var step []uint64
		for h := 1; h <= half; h *= 2 {
			step = q.twiddles(step, h)
		}
		jump := q.twiddles(q.twiddles(nil, 4), half)
		w := q.root(2 * half)
		for i := 0; i < half; i++ {
			x := q.pow(w, bits.Reverse64(uint64(i))>>(65-bits.Len(half)))
			want := []uint64{x, q.shoup(x)}
			if !slices.Equal(step[2*i:2*i+2], want) || !slices.Equal(jump[2*i:2*i+2], want) {
				t.Fatalf("p%d entry %d: grown %v, jumped %v, want %v", pi, i, step[2*i:2*i+2], jump[2*i:2*i+2], want)
			}
		}
	}
}

func mustEqualMod(t *testing.T, q *nttPrime, what string, L int, got, want []uint64) {
	t.Helper()
	for i := range got {
		if got[i]%q.p != want[i]%q.p {
			t.Fatalf("%s, p = %#x, length %d: point %d is %d, oracle %d", what, q.p, L, i, got[i]%q.p, want[i]%q.p)
		}
		if got[i] >= 4*q.p {
			t.Fatalf("%s, p = %#x, length %d: point %d = %d past 4p", what, q.p, L, i, got[i])
		}
	}
}

func TestNTTLen(t *testing.T) {
	for need, want := range map[int]int{1: 1, 2: 2, 3: 3, 4: 4, 5: 6, 7: 8, 9: 12, 13: 16, 100: 128, 1 << 20: 1 << 20, 1<<20 + 1: 3 << 19} {
		if got := nttLen(need); got != want {
			t.Errorf("nttLen(%d) = %d, want %d", need, got, want)
		}
	}
	if nttLen(3<<25+1) != 0 {
		t.Error("nttLen past 3·2²⁵ should refuse")
	}
}

// FuzzMulNTT is the differential target: the transform product of two
// byte strings read as numbers must equal big.Int.Mul's. The seed corpus
// under testdata/fuzz covers the length edges.
func FuzzMulNTT(f *testing.F) {
	f.Add([]byte{1}, []byte{1})
	f.Add([]byte{}, []byte{7})
	m := newMultiplier(context.Background())
	f.Fuzz(func(t *testing.T, a, b []byte) {
		const maxBytes = 1 << 15
		if len(a) > maxBytes || len(b) > maxBytes {
			return
		}
		x, y := new(big.Int).SetBytes(a), new(big.Int).SetBytes(b)
		want := new(big.Int).Mul(x, y)
		if got := transformMul(m, x, y); got.Cmp(want) != 0 {
			t.Fatalf("%d×%d bytes: transform product differs from big.Int.Mul", len(a), len(b))
		}
	})
}

// BenchmarkDivideVsMultiply is the DIVMUL table of EXPERIMENTS.md, the
// measurement behind mulCrossover and scaledCrossover: one division step
// of the remainder tree divides a 2s-word parent by an s-word node (div),
// a multiply-only descent without the transform would put a 2s×s product
// in its place (mul2s; math/big has no middle product), and mul is the
// s×s unit all are quoted in. ntt is mul through the transform, and
// scaled one scaled step: both children's fractions from their parent's
// (2s+guard limbs) and their two s-word nodes, against two divs. pair is
// the build's step, a node's product and derivative from two s-word
// nodes and their derivatives (s−2 words, as over 128-bit leaves),
// through the transform, and pair3 the same as three big.Int products.
func BenchmarkDivideVsMultiply(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, words := range []int{256, 512, 768, 1024, 1536, 2048, 3072, 4096, 8192, 16384, 65536} {
		x, y := operand(rng, words, 0), operand(rng, words, 0)
		dx, dy := operand(rng, words-2, 0), operand(rng, words-2, 0)
		xy, q, r := new(big.Int).Mul(x, y), new(big.Int), new(big.Int)
		frac := operand(rng, (limbs(xy.Bits())+guard)*wpl, 0).Bits()
		ws := [4][]big.Word{x.Bits(), y.Bits(), dx.Bits(), dy.Bits()}
		m := newMultiplier(context.Background())
		for name, f := range map[string]func(){
			"mul":    func() { q.Mul(x, y) },
			"mul2s":  func() { q.Mul(xy, y) },
			"div":    func() { q.QuoRem(xy, y, r) },
			"ntt":    func() { transformMul(m, x, y) },
			"scaled": func() { m.scaledStep(frac, x, y) },
			"pair":   func() { m.pairProducts(ws) },
			"pair3": func() {
				q.Mul(x, y)
				q.Mul(dx, y)
				r.Mul(x, dy)
			},
		} {
			b.Run(name+"/words="+strconv.Itoa(words), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					f()
				}
			})
		}
	}
}

// BenchmarkTransform times one forward and one inverse transform under
// the first prime at 2¹², 2¹⁶ and 2¹⁷ points, in ns per butterfly:
// (n/2)·lg n of them.
func BenchmarkTransform(b *testing.B) {
	q := &primes[0]
	for _, lg := range []int{12, 16, 17} {
		n := 1 << lg
		tw := q.twiddles(nil, n/2)
		a := make([]uint64, n)
		for i := range a {
			a[i] = uint64(i) * 0x9e3779b97f4a7c15 % q.p
		}
		for name, f := range map[string]func(){
			"forward": func() { q.forward(a, tw) },
			"inverse": func() { q.inverse(a, tw) },
		} {
			b.Run(name+"/n="+strconv.Itoa(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					f()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n/2*lg), "ns/butterfly")
			})
		}
	}
}
