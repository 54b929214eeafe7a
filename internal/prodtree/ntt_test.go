package prodtree

import (
	"context"
	"math/big"
	"math/rand"
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

// TestMulAddMatchesBigInt checks the up pass's a·b + c·d, summed in one
// transform, on both sides of mulCrossover and with all-ones operands,
// whose sum carries into a limb past either product.
func TestMulAddMatchesBigInt(t *testing.T) {
	m := newMultiplier(context.Background())
	rng := rand.New(rand.NewSource(33))
	for _, l := range []int{1, mulCrossover - 1, mulCrossover, 2*mulCrossover + 3} {
		for shape := 0; shape < 2; shape++ {
			a, b := operand(rng, l*wpl, shape), operand(rng, (l+2)*wpl, shape)
			c, d := operand(rng, (l+1)*wpl, shape), operand(rng, (l+1)*wpl, shape)
			want := new(big.Int).Mul(a, b)
			want.Add(want, new(big.Int).Mul(c, d))
			if got := m.mulAdd(new(big.Int), a, b, c, d, new(big.Int)); got.Cmp(want) != 0 {
				t.Fatalf("%d limbs, shape %d: mulAdd differs from big.Int", l, shape)
			}
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
// (2s+guard limbs) and their two s-word nodes, against two divs.
func BenchmarkDivideVsMultiply(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, words := range []int{256, 1024, 2048, 4096, 8192, 16384, 65536} {
		x, y := operand(rng, words, 0), operand(rng, words, 0)
		xy, q, r := new(big.Int).Mul(x, y), new(big.Int), new(big.Int)
		frac := operand(rng, (limbs(xy.Bits())+guard)*wpl, 0).Bits()
		m := newMultiplier(context.Background())
		for name, f := range map[string]func(){
			"mul":    func() { q.Mul(x, y) },
			"mul2s":  func() { q.Mul(xy, y) },
			"div":    func() { q.QuoRem(xy, y, r) },
			"ntt":    func() { transformMul(m, x, y) },
			"scaled": func() { m.scaledStep(frac, x, y) },
		} {
			b.Run(name+"/words="+strconv.Itoa(words), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					f()
				}
			})
		}
	}
}
