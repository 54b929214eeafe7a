package numtheory

import (
	"errors"
	"io"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The oracles below are the plain big.Int Pollard rho and Fermat ascent
// this package shipped before the Montgomery limb kernel, the memoised
// sequence and the residue sieve. They recompute everything the slow
// way, and the production code must return exactly what they return:
// the same factor or the same nil, the same (p, q).

// rhoOutcome says why one oracle rho run ended.
type rhoOutcome int

const (
	rhoFound rhoOutcome = iota
	rhoCycled
	rhoOvershot
	rhoExhausted
)

func oraclePollardRho(n *big.Int, maxSteps int) *big.Int {
	if n.Sign() <= 0 || n.Cmp(one) == 0 || n.ProbablyPrime(12) {
		return nil
	}
	if n.Bit(0) == 0 {
		return big.NewInt(2)
	}
	for c := int64(1); c <= 8; c++ {
		if d, _ := oracleRhoRun(n, c, maxSteps); d != nil {
			return d
		}
	}
	return nil
}

func oracleRhoRun(n *big.Int, c int64, maxSteps int) (*big.Int, rhoOutcome) {
	x := big.NewInt(2)
	y := new(big.Int).Set(x)
	cc := big.NewInt(c)
	d := new(big.Int)
	prod := big.NewInt(1)
	var diff big.Int

	step := func(v *big.Int) {
		v.Mul(v, v)
		v.Add(v, cc)
		v.Mod(v, n)
	}

	const batch = 64
	for steps := 0; steps < maxSteps; {
		prod.SetInt64(1)
		for i := 0; i < batch && steps < maxSteps; i++ {
			step(x)
			step(y)
			step(y)
			diff.Sub(x, y)
			if diff.Sign() == 0 {
				return nil, rhoCycled
			}
			prod.Mul(prod, &diff)
			prod.Mod(prod, n)
			steps++
		}
		d.GCD(nil, nil, prod, n)
		if d.Cmp(one) != 0 && d.Cmp(n) != 0 {
			return new(big.Int).Set(d), rhoFound
		}
		if d.Cmp(n) == 0 {
			return nil, rhoOvershot
		}
	}
	return nil, rhoExhausted
}

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

// oracleSteps are the budgets the equality tests cycle through: one
// step, each side of the GCD batch boundary, the serving default (one
// group of batches) and each side of it, a budget that ends inside the
// second group, and one of several groups.
var oracleSteps = []int{1, 63, 64, 65, 255, 256, 257, 300, 1000}

// rhoTrace replays one rho run the plain way without stopping at a
// hit: gcds holds gcd(batch product, n) for every batch completed before
// the budget ran out or the sequence cycled, and cycle is the number of
// steps completed before x = y, or -1. It is what the grouped GCDs must
// reconstruct, and says which group-level cases a test reached.
func rhoTrace(n *big.Int, c int64, maxSteps int) (gcds []*big.Int, cycle int) {
	x, y, cc := big.NewInt(2), big.NewInt(2), big.NewInt(c)
	prod := new(big.Int)
	var diff big.Int
	step := func(v *big.Int) { v.Mod(v.Add(v.Mul(v, v), cc), n) }
	for steps := 0; steps < maxSteps; {
		prod.SetInt64(1)
		for i := 0; i < 64 && steps < maxSteps; i++ {
			step(x)
			step(y)
			step(y)
			if diff.Sub(x, y).Sign() == 0 {
				return gcds, steps
			}
			prod.Mod(prod.Mul(prod, &diff), n)
			steps++
		}
		gcds = append(gcds, new(big.Int).GCD(nil, nil, prod, n))
	}
	return gcds, -1
}

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
	// factors just past trial division that only rho reaches.
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

// checkAgainstOracle holds every entry point of the probes to the
// oracles on one input at one pair of budgets, and reports which of the
// oracles split n.
func checkAgainstOracle(t *testing.T, n *big.Int, fermatSteps, rhoSteps int) (rhoHit, fermatHit bool) {
	t.Helper()
	wantD := oraclePollardRho(n, rhoSteps)
	if got := PollardRho(n, rhoSteps); !sameInt(got, wantD) {
		t.Errorf("PollardRho(%v, %d) = %v, oracle %v", n, rhoSteps, got, wantD)
	}
	wantP, wantQ := oracleFermatFactor(n, fermatSteps)
	if p, q := FermatFactor(n, fermatSteps); !sameInt(p, wantP) || !sameInt(q, wantQ) {
		t.Errorf("FermatFactor(%v, %d) = %v, %v, oracle %v, %v", n, fermatSteps, p, q, wantP, wantQ)
	}
	rhoHit, fermatHit = wantD != nil, wantP != nil
	if n.Cmp(big.NewInt(3)) <= 0 || n.ProbablyPrime(12) {
		return rhoHit, fermatHit
	}
	// n is composite: the composite-known entry points must agree with
	// the self-checking public ones, and SplitComposite with Fermat
	// first, rho second.
	if got := rhoComposite(n, rhoSteps); !sameInt(got, wantD) {
		t.Errorf("rhoComposite(%v, %d) = %v, oracle %v", n, rhoSteps, got, wantD)
	}
	if p, q := fermatComposite(n, fermatSteps); !sameInt(p, wantP) || !sameInt(q, wantQ) {
		t.Errorf("fermatComposite(%v, %d) = %v, %v, oracle %v, %v", n, fermatSteps, p, q, wantP, wantQ)
	}
	// SplitComposite skips a probe whose budget is not positive, which
	// for rho includes the even-n shortcut that ignores the budget.
	if !fermatHit && rhoHit && rhoSteps > 0 {
		wantP, wantQ = wantD, new(big.Int).Quo(n, wantD)
		if wantP.Cmp(wantQ) > 0 {
			wantP, wantQ = wantQ, wantP
		}
	}
	if p, q, fermat := SplitComposite(n, fermatSteps, rhoSteps); !sameInt(p, wantP) || !sameInt(q, wantQ) || fermat != fermatHit {
		t.Errorf("SplitComposite(%v, %d, %d) = %v, %v, %v, want %v, %v, %v",
			n, fermatSteps, rhoSteps, p, q, fermat, wantP, wantQ, fermatHit)
	}
	return rhoHit, fermatHit
}

func TestProbesMatchOracle(t *testing.T) {
	t.Parallel()
	var rhoHits, fermatHits int
	for i, n := range oracleTable(t) {
		fermatSteps, rhoSteps := oracleSteps[i%len(oracleSteps)], oracleSteps[i/len(oracleSteps)%len(oracleSteps)]
		rhoHit, fermatHit := checkAgainstOracle(t, n, fermatSteps, rhoSteps)
		if rhoHit {
			rhoHits++
		}
		if fermatHit {
			fermatHits++
		}
	}
	// The table must exercise the hit paths, not only the refusals.
	if rhoHits < 1000 || fermatHits < 100 {
		t.Errorf("table too tame: %d rho hits, %d Fermat hits", rhoHits, fermatHits)
	}
}

// TestProbesMatchOracleWide repeats the comparison at RSA widths, where
// a modulus is 8, 16 or 32 limbs: a clean semiprime that exhausts every
// budget, close primes, and a planted factor only rho reaches.
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
			checkAgainstOracle(t, n, 512, 256)
		}
	}
}

// TestRhoRunMatchesOracleOnEveryOutcome compares single runs, constant
// by constant, over every small odd composite, where sequences are
// short enough to cycle and batches coarse enough to overshoot, and
// requires that both of those endings were actually reached. Each run
// is repeated with the memo squeezed to nothing, one entry and a few,
// so the slow pointer crosses from read-back to direct stepping at
// every position, and on both kernels, so the slice kernel that wide
// moduli use meets cycles and overshoots too.
//
// It also requires the cases where one GCD per group of batches could
// answer differently from one per batch: a cycle after a batch of its
// group completed, a proper factor in a batch whose group then cycles
// (the factor must still be reported), and a group in which a later batch also
// shares a different factor with n (the earlier one must win).
func TestRhoRunMatchesOracleOnEveryOutcome(t *testing.T) {
	t.Parallel()
	const group = rhoBatch * rhoGroup
	seen := make(map[rhoOutcome]int)
	var midGroupCycles, hitThenCycle, laterBatchDiffers int
	// Below 1200 no run finds a proper factor and then cycles within the
	// same group; 2391, 2631 and 2757 are three odd composites past it that do.
	moduli := []int64{2391, 2631, 2757}
	for v := int64(9); v < 1200; v += 2 {
		moduli = append(moduli, v)
	}
	for _, v := range moduli {
		n := big.NewInt(v)
		if n.ProbablyPrime(12) {
			continue
		}
		for _, maxSteps := range oracleSteps {
			var runs []*rho
			for _, memoLimbs := range []int{rhoMemoLimbs, 0, 1, 5, 64} {
				runs = append(runs, newRhoOn(n, maxSteps, memoLimbs, true), newRhoOn(n, maxSteps, memoLimbs, false))
			}
			for c := int64(1); c <= rhoConstants; c++ {
				want, outcome := oracleRhoRun(n, c, maxSteps)
				seen[outcome]++
				for _, r := range runs {
					if got := r.run(uint64(c), maxSteps); !sameInt(got, want) {
						t.Fatalf("n=%d c=%d maxSteps=%d memo=%d two-limb=%v: run = %v, oracle %v (outcome %d)",
							v, c, maxSteps, len(r.memo), r.m2 != nil, got, want, outcome)
					}
				}
				gcds, cycle := rhoTrace(n, c, maxSteps)
				if cycle >= 0 && cycle%group >= rhoBatch {
					midGroupCycles++
				}
				hit := slices.IndexFunc(gcds, func(d *big.Int) bool { return d.Cmp(one) != 0 })
				if hit < 0 {
					continue
				}
				if cycle >= 0 && cycle/group == hit/rhoGroup && gcds[hit].Cmp(n) != 0 {
					hitThenCycle++
				}
				for j := hit + 1; j < len(gcds) && j/rhoGroup == hit/rhoGroup; j++ {
					if gcds[j].Cmp(one) != 0 && gcds[j].Cmp(gcds[hit]) != 0 {
						laterBatchDiffers++
						break
					}
				}
			}
		}
	}
	for _, o := range []rhoOutcome{rhoFound, rhoCycled, rhoOvershot, rhoExhausted} {
		if seen[o] == 0 {
			t.Errorf("no run ended with outcome %d", o)
		}
	}
	if midGroupCycles == 0 || hitThenCycle == 0 || laterBatchDiffers == 0 {
		t.Errorf("group cases not reached: %d mid-group cycles, %d hits before a cycle in their group, %d later batches with another factor",
			midGroupCycles, hitThenCycle, laterBatchDiffers)
	}
}

// TestRhoMemoCap runs a wide modulus with a memo too small for the
// budget: the answers must not depend on where the cap falls, and the
// memo must never hold more than it was allowed.
func TestRhoMemoCap(t *testing.T) {
	rng := testRand(2103)
	n := new(big.Int).Mul(randPrime(t, rng, 22), randPrime(t, rng, 490))
	k := (n.BitLen() + 63) / 64
	for _, memoLimbs := range []int{0, k - 1, k, 17 * k, 100*k + 3, rhoMemoLimbs} {
		r := newRho(n, 1000, memoLimbs)
		if len(r.memo) > memoLimbs {
			t.Errorf("memo of %d limbs exceeds its cap %d", len(r.memo), memoLimbs)
		}
		for c := int64(1); c <= rhoConstants; c++ {
			want, _ := oracleRhoRun(n, c, 1000)
			if got := r.run(uint64(c), 1000); !sameInt(got, want) {
				t.Errorf("memo=%d c=%d: run = %v, oracle %v", memoLimbs, c, got, want)
			}
		}
	}
	if r := newRho(n, 1<<30, rhoMemoLimbs); len(r.memo) > rhoMemoLimbs {
		t.Errorf("a huge budget bought a memo of %d limbs", len(r.memo))
	}
}

// checkMontBytes is checkMont on a modulus and operands taken from raw
// bytes: n is forced odd and > 1 and cut to at most 40 limbs, and the
// operands are reduced below it.
func checkMontBytes(t *testing.T, nb, xb, yb []byte) {
	t.Helper()
	if len(nb) > 320 {
		nb = nb[:320]
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

// checkMont holds mul, add and sub to big.Int on one modulus and pair of
// operands, including the aliased forms rho uses.
func checkMont(t *testing.T, n, x, y *big.Int) {
	t.Helper()
	m := newMont(n)
	k := len(m.n)
	xs, ys, z, scratch := make([]uint64, k), make([]uint64, k), make([]uint64, k), make([]uint64, k+2)
	limbsOf(xs, x)
	limbsOf(ys, y)
	words := make([]big.Word, k*64/bits.UintSize)
	got := func() *big.Int { return new(big.Int).Set(setLimbs(new(big.Int), words, z)) }
	r := new(big.Int).Lsh(one, uint(64*k))
	mod := func(v *big.Int) *big.Int { return v.Mod(v, n) }

	// mul(x, y)·R ≡ x·y.
	m.mul(z, xs, ys, scratch)
	if g := got(); g.Cmp(n) >= 0 || mod(new(big.Int).Mul(g, r)).Cmp(mod(new(big.Int).Mul(x, y))) != 0 {
		t.Errorf("mul(%v, %v) mod %v = %v", x, y, n, g)
	}
	// Into and out of Montgomery form is the identity.
	m.mul(z, xs, m.r2, scratch)
	unit := make([]uint64, k)
	unit[0] = 1
	m.mul(z, z, unit, scratch)
	if g := got(); g.Cmp(x) != 0 {
		t.Errorf("round trip of %v mod %v = %v", x, n, g)
	}
	// Aliased square.
	copy(z, xs)
	m.mul(z, z, z, scratch)
	if g := got(); mod(new(big.Int).Mul(g, r)).Cmp(mod(new(big.Int).Mul(x, x))) != 0 {
		t.Errorf("square of %v mod %v = %v", x, n, g)
	}
	m.add(z, xs, ys, scratch)
	if g, want := got(), mod(new(big.Int).Add(x, y)); g.Cmp(want) != 0 {
		t.Errorf("add(%v, %v) mod %v = %v, want %v", x, y, n, g, want)
	}
	copy(z, xs)
	m.add(z, z, ys, scratch)
	if g, want := got(), mod(new(big.Int).Add(x, y)); g.Cmp(want) != 0 {
		t.Errorf("aliased add(%v, %v) mod %v = %v, want %v", x, y, n, g, want)
	}
	m.sub(z, xs, ys)
	if g, want := got(), mod(new(big.Int).Sub(x, y)); g.Cmp(want) != 0 {
		t.Errorf("sub(%v, %v) mod %v = %v, want %v", x, y, n, g, want)
	}
	if isZero(z) != (x.Cmp(y) == 0) {
		t.Errorf("isZero(%v - %v) = %v", x, y, isZero(z))
	}
	if k <= 2 {
		checkMont2(t, m, n, x, y, xs, ys)
	}
}

// checkMont2 holds the two-limb kernel to the slice kernel m and to
// big.Int on a modulus of one or two limbs, and gcd2 to big.Int's
// GCD. Its R is 2^128 even for one
// limb, where mont's is 2^64, so there its product must equal mont's
// multiplied once more by a plain 1.
func checkMont2(t *testing.T, m *mont, n, x, y *big.Int, xs, ys []uint64) {
	t.Helper()
	m2 := newMont2(n)
	k := len(m.n)
	var x2, y2 [2]uint64
	copy(x2[:], xs)
	copy(y2[:], ys)
	pair := func(z0, z1 uint64) *big.Int {
		return new(big.Int).Or(new(big.Int).Lsh(new(big.Int).SetUint64(z1), 64), new(big.Int).SetUint64(z0))
	}
	mod := func(v *big.Int) *big.Int { return v.Mod(v, n) }
	r := new(big.Int).Lsh(one, 128)

	z, unit, scratch := make([]uint64, k), make([]uint64, k), make([]uint64, k+2)
	unit[0] = 1
	m.mul(z, xs, ys, scratch)
	if k == 1 {
		m.mul(z, z, unit, scratch)
	}
	var want [2]uint64
	copy(want[:], z)
	if g0, g1 := m2.mul(x2[0], x2[1], y2[0], y2[1]); [2]uint64{g0, g1} != want {
		t.Errorf("mont2.mul(%v, %v) mod %v = %v, slice kernel %v", x, y, n, pair(g0, g1), pair(want[0], want[1]))
	} else if g := pair(g0, g1); g.Cmp(n) >= 0 || mod(new(big.Int).Mul(g, r)).Cmp(mod(new(big.Int).Mul(x, y))) != 0 {
		t.Errorf("mont2.mul(%v, %v) mod %v = %v", x, y, n, g)
	}
	// The binary GCD on words is big.Int's.
	if g0, g1 := gcd2(x2[0], x2[1], m2.n0, m2.n1); pair(g0, g1).Cmp(new(big.Int).GCD(nil, nil, x, n)) != 0 {
		t.Errorf("gcd2(%v, %v) = %v", x, n, pair(g0, g1))
	}
	// Into and out of Montgomery form is the identity.
	z0, z1 := m2.mul(x2[0], x2[1], m2.r2[0], m2.r2[1])
	if z0, z1 = m2.mul(z0, z1, 1, 0); pair(z0, z1).Cmp(x) != 0 {
		t.Errorf("mont2 round trip of %v mod %v = %v", x, n, pair(z0, z1))
	}
	m.add(z, xs, ys, scratch)
	copy(want[:], z)
	if g0, g1 := m2.add(x2[0], x2[1], y2[0], y2[1]); [2]uint64{g0, g1} != want || pair(g0, g1).Cmp(mod(new(big.Int).Add(x, y))) != 0 {
		t.Errorf("mont2.add(%v, %v) mod %v = %v", x, y, n, pair(g0, g1))
	}
	m.sub(z, xs, ys)
	copy(want[:], z)
	if g0, g1 := m2.sub(x2[0], x2[1], y2[0], y2[1]); [2]uint64{g0, g1} != want || pair(g0, g1).Cmp(mod(new(big.Int).Sub(x, y))) != 0 {
		t.Errorf("mont2.sub(%v, %v) mod %v = %v", x, y, n, pair(g0, g1))
	}
}

func TestMontMatchesBigInt(t *testing.T) {
	rng := testRand(2104)
	buf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for k := 1; k <= 40; k++ {
		for _, nLen := range []int{8*k - 7, 8 * k} {
			for i := 0; i < 8; i++ {
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

// FuzzMontMul holds the limb kernel to big.Int on arbitrary odd moduli
// of 1 to 40 limbs and arbitrary reduced operands, and the two-limb
// kernel to both on the moduli of one or two limbs.
func FuzzMontMul(f *testing.F) {
	f.Add([]byte{0x0f}, []byte{0x07}, []byte{0x0e})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe}, []byte{1})
	f.Fuzz(func(t *testing.T, nb, xb, yb []byte) {
		checkMontBytes(t, nb, xb, yb)
	})
}

// FuzzProbeMatchesOracle holds PollardRho, FermatFactor and the
// composite-known entry points to the oracles on arbitrary n of up to
// 320 bits and budgets up to 1,100 steps.
func FuzzProbeMatchesOracle(f *testing.F) {
	f.Add([]byte{0x09}, uint16(64), uint16(64))
	f.Add(new(big.Int).Mul(big.NewInt(10007), big.NewInt(10009)).Bytes(), uint16(512), uint16(256))
	f.Fuzz(func(t *testing.T, nb []byte, fermatSteps, rhoSteps uint16) {
		if len(nb) > 40 {
			nb = nb[:40]
		}
		checkAgainstOracle(t, new(big.Int).SetBytes(nb), int(fermatSteps%1101), int(rhoSteps%1101))
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
