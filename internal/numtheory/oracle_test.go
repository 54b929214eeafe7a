package numtheory

import (
	"errors"
	"io"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// The oracles below are the plain big.Int versions of what this
// package ships with word-level shortcuts: the Fermat ascent before the
// residue sieve, trial division before the word-sized products, and the
// prime searches before the word sieve. They recompute everything the
// slow way, and the production code must return exactly what they
// return: the same (p, q), the same factors, the same prime.

func oracleFermatFactor(n *big.Int, maxSteps int) (p, q *big.Int) {
	if n.Sign() <= 0 || n.BitLen() < 2 || n.Bit(0) == 0 || n.ProbablyPrime(12) {
		return nil, nil
	}
	a := new(big.Int).Sqrt(n)
	aa := new(big.Int).Mul(a, a)
	if aa.Cmp(n) < 0 {
		a.Add(a, one)
	}
	b2 := new(big.Int).Mul(a, a)
	b2.Sub(b2, n)
	b := new(big.Int)
	bb := new(big.Int)
	step := new(big.Int)
	for i := 0; i < maxSteps; i++ {
		b.Sqrt(b2)
		bb.Mul(b, b)
		if bb.Cmp(b2) == 0 {
			p = new(big.Int).Sub(a, b)
			q = new(big.Int).Add(a, b)
			if p.Cmp(one) <= 0 {
				return nil, nil
			}
			return p, q
		}
		step.Lsh(a, 1)
		step.Add(step, one)
		b2.Add(b2, step)
		a.Add(a, one)
	}
	return nil, nil
}

// oracleSmallFactors is trial division as this package shipped it before
// the word-sized products: one exact big.Int division per prime, and
// per prime factor again until it no longer divides. That loop never
// ended on zero, which has no factorization; here zero is (nil, 0).
func oracleSmallFactors(n *big.Int, nPrimes int) (factors []PrimePower, cofactor *big.Int) {
	cofactor = new(big.Int).Set(n)
	if n.Sign() == 0 {
		return nil, cofactor
	}
	var q, m, rem big.Int
	for _, p := range FirstPrimes(nPrimes) {
		q.SetUint64(p)
		exp := 0
		for {
			m.QuoRem(cofactor, &q, &rem)
			if rem.Sign() != 0 {
				break
			}
			cofactor.Set(&m)
			exp++
		}
		if exp > 0 {
			factors = append(factors, PrimePower{Prime: p, Exp: exp})
		}
	}
	return factors, cofactor
}

// oracleNextPrime is NextPrime as this package shipped it before the
// word sieve: ProbablyPrime(20) on every odd candidate in turn.
func oracleNextPrime(n *big.Int) *big.Int {
	c := new(big.Int).Set(n)
	if c.Cmp(two) <= 0 {
		return big.NewInt(2)
	}
	if c.Bit(0) == 0 {
		c.Add(c, one)
	}
	for !c.ProbablyPrime(20) {
		c.Add(c, two)
	}
	return c
}

// oracleGenPrime is genPrimeSieved as this package shipped it before
// GenPrimeNaive and GenPrimeOpenSSL shared NextPrime's word sieve: each
// draw takes its residues modulo every sieve prime from big.Int, and
// every candidate loops over all of them before ProbablyPrime(20).
func oracleGenPrime(r io.Reader, bits, sievePrimes int, excludeOne bool) (*big.Int, error) {
	primes := FirstPrimes(sievePrimes)
	rems := make([]uint64, len(primes))
	var m big.Int
	for draws := 0; draws < 1000; draws++ {
		start, err := RandomOdd(r, bits)
		if err != nil {
			return nil, err
		}
		for i, q := range primes {
			rems[i] = m.Mod(start, m.SetUint64(q)).Uint64()
		}
		const maxDelta = 1 << 16
	scan:
		for delta := uint64(0); delta < maxDelta; delta += 2 {
			for i, q := range primes {
				rem := (rems[i] + delta) % q
				if rem == 0 {
					continue scan
				}
				if excludeOne && rem == 1 && q != 2 {
					continue scan
				}
			}
			cand := new(big.Int).Add(start, m.SetUint64(delta))
			if cand.BitLen() != bits {
				break
			}
			if cand.ProbablyPrime(20) {
				return cand, nil
			}
		}
	}
	return nil, errors.New("oracle: redraw budget exhausted")
}

// sameInt reports whether a and b are both nil or the same integer.
func sameInt(a, b *big.Int) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Cmp(b) == 0
}

// oracleSteps are the Fermat budgets the equality tests cycle through:
// one step, a few short ones, the serving default and each side of it,
// and one past it.
var oracleSteps = []int{1, 63, 64, 65, 255, 256, 257, 300, 511, 512, 513, 1000}

func randPrime(t testing.TB, rng *rand.Rand, bits int) *big.Int {
	t.Helper()
	p, err := GenPrimeNaive(rng, bits)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// oracleTable is the inputs the equality tests share: every class the
// probes are pointed at, every class they must refuse, and random
// integers across the widths where limb counts change.
func oracleTable(t testing.TB) []*big.Int {
	t.Helper()
	rng := testRand(2101)
	mul := func(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) }
	var table []*big.Int

	// Seeded random odd integers of 8 to 320 bits: mostly composites
	// with a small factor, some primes, a few that exhaust every budget.
	for i := 0; i < 4000; i++ {
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(8+rng.Intn(313))))
		table = append(table, n.SetBit(n, 0, 1))
	}
	// Close primes: q the next prime at least 2^j above p.
	for j := 0; j <= 30; j++ {
		p := randPrime(t, rng, 40+2*j)
		gap := new(big.Int).Lsh(one, uint(j))
		table = append(table, mul(p, NextPrime(gap.Add(gap, p))))
	}
	// Planted factors: 641 × a 120-bit prime (keycheck's golden key),
	// the planted corpus of anomaly_test.go (a small prime × a 64-bit
	// prime, consecutive 64-bit primes, independent 64-bit primes), and
	// 16- to 39-bit primes × 100-bit primes.
	sfQ, _ := new(big.Int).SetString("d6e5f84c9ab31027fd5a3c0e917bab", 16)
	table = append(table, mul(big.NewInt(641), sfQ))
	smalls := FirstPrimes(128)
	for i := 0; i < 40; i++ {
		p := randPrime(t, rng, 64)
		table = append(table,
			mul(p, new(big.Int).SetUint64(smalls[rng.Intn(len(smalls))])),
			mul(p, NextPrime(new(big.Int).Add(p, two))),
			mul(p, randPrime(t, rng, 64)),
			mul(randPrime(t, rng, 16+i%24), randPrime(t, rng, 100)))
	}
	// Squares of primes and of composites, and bare primes.
	for _, bits := range []int{16, 31, 32, 33, 64, 65, 100, 128} {
		p := randPrime(t, rng, bits)
		table = append(table, p, mul(p, p), mul(mul(p, p), big.NewInt(9)))
	}
	// Everything below 9, negatives, and even n.
	for v := int64(-15); v < 9; v++ {
		table = append(table, big.NewInt(v))
	}
	for _, bits := range []int{16, 64, 128, 200} {
		p := randPrime(t, rng, bits)
		table = append(table, mul(p, two), mul(p, big.NewInt(1<<20)))
	}
	return table
}

// checkAgainstOracle holds both entry points of the Fermat ascent to
// the oracle on one input at one budget, and reports whether the oracle
// split n.
func checkAgainstOracle(t *testing.T, n *big.Int, fermatSteps int) (fermatHit bool) {
	t.Helper()
	wantP, wantQ := oracleFermatFactor(n, fermatSteps)
	if p, q := FermatFactor(n, fermatSteps); !sameInt(p, wantP) || !sameInt(q, wantQ) {
		t.Errorf("FermatFactor(%v, %d) = %v, %v, oracle %v, %v", n, fermatSteps, p, q, wantP, wantQ)
	}
	if n.Cmp(big.NewInt(3)) <= 0 || n.ProbablyPrime(12) {
		return wantP != nil
	}
	// n is composite: the composite-known entry point must agree with
	// the self-checking public one.
	if p, q := FermatComposite(n, fermatSteps); !sameInt(p, wantP) || !sameInt(q, wantQ) {
		t.Errorf("FermatComposite(%v, %d) = %v, %v, oracle %v, %v", n, fermatSteps, p, q, wantP, wantQ)
	}
	return wantP != nil
}

func TestProbesMatchOracle(t *testing.T) {
	t.Parallel()
	var fermatHits int
	for i, n := range oracleTable(t) {
		if checkAgainstOracle(t, n, oracleSteps[i%len(oracleSteps)]) {
			fermatHits++
		}
	}
	// The table must exercise the hit path, not only the refusals.
	if fermatHits < 100 {
		t.Errorf("table too tame: %d Fermat hits", fermatHits)
	}
}

// TestProbesMatchOracleWide repeats the comparison at RSA widths, where
// a modulus is 8, 16 or 32 limbs: a clean semiprime that exhausts the
// budget, close primes, and a planted 20-bit factor.
func TestProbesMatchOracleWide(t *testing.T) {
	t.Parallel()
	rng := testRand(2102)
	for _, bits := range []int{512, 1024, 2048} {
		p, q := randPrime(t, rng, bits/2), randPrime(t, rng, bits/2)
		small := randPrime(t, rng, 20)
		for _, n := range []*big.Int{
			new(big.Int).Mul(p, q),
			new(big.Int).Mul(p, NextPrime(new(big.Int).Add(p, big.NewInt(1<<20)))),
			new(big.Int).Mul(small, randPrime(t, rng, bits-20)),
		} {
			checkAgainstOracle(t, n, 512)
		}
	}
}

// checkMontBytes is checkMont on a modulus and operands taken from raw
// bytes: n is forced odd and > 1 and cut to at most two limbs, and the
// operands are reduced below it.
func checkMontBytes(t *testing.T, nb, xb, yb []byte) {
	t.Helper()
	if len(nb) > 16 {
		nb = nb[:16]
	}
	n := new(big.Int).SetBytes(nb)
	n.SetBit(n, 0, 1)
	if n.Cmp(one) == 0 {
		n.SetInt64(3)
	}
	x := new(big.Int).SetBytes(xb)
	y := new(big.Int).SetBytes(yb)
	checkMont(t, n, x.Mod(x, n), y.Mod(y, n))
}

// checkMont holds mont2's mul and add to big.Int on one modulus of one
// or two limbs and one pair of operands, including the square the base-2
// gate's ladder takes. Its R is 2^128 whatever n's width.
func checkMont(t *testing.T, n, x, y *big.Int) {
	t.Helper()
	m := newMont2(n)
	var xs, ys [2]uint64
	limbsOf(xs[:], x)
	limbsOf(ys[:], y)
	pair := func(z0, z1 uint64) *big.Int {
		return new(big.Int).Or(new(big.Int).Lsh(new(big.Int).SetUint64(z1), 64), new(big.Int).SetUint64(z0))
	}
	mod := func(v *big.Int) *big.Int { return v.Mod(v, n) }
	r := new(big.Int).Lsh(one, 128)

	// mul(x, y)·R ≡ x·y, canonically.
	if g := pair(m.mul(xs[0], xs[1], ys[0], ys[1])); g.Cmp(n) >= 0 || mod(new(big.Int).Mul(g, r)).Cmp(mod(new(big.Int).Mul(x, y))) != 0 {
		t.Errorf("mul(%v, %v) mod %v = %v", x, y, n, g)
	}
	if g := pair(m.mul(xs[0], xs[1], xs[0], xs[1])); g.Cmp(n) >= 0 || mod(new(big.Int).Mul(g, r)).Cmp(mod(new(big.Int).Mul(x, x))) != 0 {
		t.Errorf("square of %v mod %v = %v", x, n, g)
	}
	// Into and out of Montgomery form is the identity.
	z0, z1 := m.mul(xs[0], xs[1], m.r2[0], m.r2[1])
	if g := pair(m.mul(z0, z1, 1, 0)); g.Cmp(x) != 0 {
		t.Errorf("round trip of %v mod %v = %v", x, n, g)
	}
	if g, want := pair(m.add(xs[0], xs[1], ys[0], ys[1])), mod(new(big.Int).Add(x, y)); g.Cmp(want) != 0 {
		t.Errorf("add(%v, %v) mod %v = %v, want %v", x, y, n, g, want)
	}
}

func TestMontMatchesBigInt(t *testing.T) {
	rng := testRand(2104)
	buf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for k := 1; k <= 2; k++ {
		for _, nLen := range []int{8*k - 7, 8 * k} {
			for i := 0; i < 64; i++ {
				checkMontBytes(t, buf(nLen), buf(8*k), buf(8*k))
			}
		}
		// Extremes: n = 2^(64k) - 1 with operands n - 1, 0 and 1.
		n := new(big.Int).Lsh(one, uint(64*k))
		n.Sub(n, one)
		top := new(big.Int).Sub(n, one)
		checkMont(t, n, top, top)
		checkMont(t, n, top, one)
		checkMont(t, n, new(big.Int), top)
	}
}

// FuzzMontMul holds mont2 to big.Int on arbitrary odd moduli of one or
// two limbs and arbitrary reduced operands.
func FuzzMontMul(f *testing.F) {
	f.Add([]byte{0x0f}, []byte{0x07}, []byte{0x0e})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe}, []byte{1})
	f.Fuzz(func(t *testing.T, nb, xb, yb []byte) {
		checkMontBytes(t, nb, xb, yb)
	})
}

// FuzzProbeMatchesOracle holds FermatFactor and FermatComposite to the
// oracle on arbitrary n of up to 320 bits and budgets up to 1,100 steps.
func FuzzProbeMatchesOracle(f *testing.F) {
	f.Add([]byte{0x09}, uint16(64))
	f.Add(new(big.Int).Mul(big.NewInt(10007), big.NewInt(10009)).Bytes(), uint16(512))
	f.Fuzz(func(t *testing.T, nb []byte, fermatSteps uint16) {
		if len(nb) > 40 {
			nb = nb[:40]
		}
		checkAgainstOracle(t, new(big.Int).SetBytes(nb), int(fermatSteps%1101))
	})
}

// checkSmallFactors holds SmallFactors to the per-prime oracle on n cut
// to 40 bytes and made negative if neg is set, with nPrimes up to 2,048.
func checkSmallFactors(t *testing.T, nb []byte, nPrimes int, neg bool) {
	t.Helper()
	if len(nb) > 40 {
		nb = nb[:40]
	}
	n := new(big.Int).SetBytes(nb)
	if neg {
		n.Neg(n)
	}
	nPrimes %= 2049
	factors, cofactor := SmallFactors(n, nPrimes)
	wantFactors, wantCofactor := oracleSmallFactors(n, nPrimes)
	if !slices.Equal(factors, wantFactors) || cofactor.Cmp(wantCofactor) != 0 {
		t.Errorf("SmallFactors(%v, %d) = %v, %v, oracle %v, %v", n, nPrimes, factors, cofactor, wantFactors, wantCofactor)
	}
}

// TestSmallFactorsMatchesOracle runs seeded inputs that divide by many
// small primes, and by high powers of them, through checkSmallFactors:
// products of random runs of the first 2,048 primes with random
// exponents, times a random cofactor, against every prime count from
// none to past the last prime of the products.
func TestSmallFactorsMatchesOracle(t *testing.T) {
	t.Parallel()
	rng := testRand(2108)
	primes := FirstPrimes(2048)
	for i := 0; i < 2000; i++ {
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(rng.Intn(160))))
		n.Add(n, one)
		for j := rng.Intn(8); j > 0; j-- {
			p := new(big.Int).SetUint64(primes[rng.Intn(len(primes))])
			n.Mul(n, p.Exp(p, big.NewInt(int64(1+rng.Intn(6))), nil))
		}
		checkSmallFactors(t, n.Bytes(), rng.Intn(2049), i%7 == 0)
	}
}

// FuzzSmallFactors holds SmallFactors to the per-prime oracle on
// arbitrary n of up to 40 bytes, either sign, zero included, and prime
// counts up to 2,048.
func FuzzSmallFactors(f *testing.F) {
	f.Add([]byte{}, uint16(128), false)
	f.Add(new(big.Int).Exp(big.NewInt(17863), big.NewInt(9), nil).Bytes(), uint16(2048), true)
	f.Fuzz(func(t *testing.T, nb []byte, nPrimes uint16, neg bool) {
		checkSmallFactors(t, nb, int(nPrimes), neg)
	})
}
