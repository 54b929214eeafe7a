package numtheory

import (
	"math/big"
	"math/bits"
)

// SmallFactors returns the prime factorization of n restricted to primes
// among the first nPrimes primes, as (prime, exponent) pairs in
// ascending order, plus the remaining cofactor. The bit-error analysis
// uses this to show corrupted moduli carrying "divisors that are the
// product of many small prime factors" (Section 3.3.5).
func SmallFactors(n *big.Int, nPrimes int) (factors []PrimePower, cofactor *big.Int) {
	cofactor = new(big.Int).Set(n)
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

// PrimePower is one (prime, exponent) term of a factorization.
type PrimePower struct {
	Prime uint64
	Exp   int
}

// rhoConstants is how many polynomial constants c = 1, 2, ... one
// PollardRho call sweeps; rhoBatch is how many |x-y| differences are
// multiplied together into one batch product, and rhoGroup how many
// batch products share one GCD.
const (
	rhoConstants = 8
	rhoBatch     = 64
	rhoGroup     = 4
)

// rhoMemoLimbs caps the sequence memo of one PollardRho call at 1 MiB
// of limbs, so a huge step budget cannot buy unbounded memory; past the
// cap the slow pointer is stepped directly, through the same values.
const rhoMemoLimbs = 1 << 17

// PollardRho attempts to find one nontrivial factor of the composite n
// using Pollard's rho with Floyd's cycle detection. It sweeps the
// polynomial constant over rhoConstants runs of at most maxSteps
// iterations each, so the effective budget is rhoConstants × maxSteps.
// It returns nil if no run found a factor or n is prime/1.
// Deterministic given n.
//
// Rho complements the batch GCD in the bit-error forensics: a corrupted
// modulus is an essentially random integer, so its small and medium
// factors fall to trial division and rho even though it shares no prime
// with any other key.
func PollardRho(n *big.Int, maxSteps int) *big.Int {
	if n.Sign() <= 0 || n.Cmp(one) == 0 || ProbePrime(n) {
		return nil
	}
	return rhoComposite(n, maxSteps)
}

// rhoComposite is PollardRho for a caller that has already established
// n is composite (n > 3 and not a probable prime); n <= 0 still yields
// nil.
func rhoComposite(n *big.Int, maxSteps int) *big.Int {
	if n.Sign() <= 0 {
		return nil
	}
	if n.Bit(0) == 0 {
		return big.NewInt(2)
	}
	r := newRho(n, maxSteps, rhoMemoLimbs)
	for c := uint64(1); c <= rhoConstants; c++ {
		if d := r.run(c, maxSteps); d != nil {
			return d
		}
	}
	return nil
}

// rho is the state the runs of one PollardRho call share: the
// Montgomery constants of n and every limb buffer, so a run allocates
// only inside its GCDs. A modulus of at most two limbs runs on mont2,
// with values of k = 2 limbs; a wider one on the slice kernel mont.
type rho struct {
	m        *mont  // nil under m2
	m2       *mont2 // nil under m
	k        int
	n        *big.Int
	r2       []uint64 // the kernel's R² mod n
	memo     []uint64 // x_1 ... x_stored, k limbs each
	x, y     []uint64 // the pointers' values (mont: once past the memo)
	xp, yp   []uint64 // mont: where the pointers' current values are
	c        []uint64 // polynomial constant, Montgomery form
	x0       []uint64 // the start value 2, Montgomery form
	diff     []uint64
	prods    []uint64 // the current group's batch products, k limbs each
	groupAcc []uint64 // their product
	t        []uint64 // mont scratch
	// prodInt views a product through prodWords for the GCD.
	prodInt   big.Int
	prodWords []big.Word
	gcd       big.Int
}

// newRho selects the kernel by n's limb count alone, as math/big
// selects a multiplication algorithm by operand length.
func newRho(n *big.Int, maxSteps, memoLimbs int) *rho {
	return newRhoOn(n, maxSteps, memoLimbs, (n.BitLen()+63)/64 <= 2)
}

// newRhoOn builds the state on mont2 if two is set, which n must fit,
// and on mont otherwise.
func newRhoOn(n *big.Int, maxSteps, memoLimbs int, two bool) *rho {
	r := &rho{n: n}
	if two {
		r.m2 = newMont2(n)
		r.k, r.r2 = 2, r.m2.r2[:]
	} else {
		r.m = newMont(n)
		r.k, r.r2 = len(r.m.n), r.m.r2
	}
	k := r.k
	stored := max(0, min(maxSteps, memoLimbs/k))
	buf := make([]uint64, (stored+6+rhoGroup)*k+k+2)
	next := func(limbs int) []uint64 {
		s := buf[:limbs:limbs]
		buf = buf[limbs:]
		return s
	}
	r.memo = next(stored * k)
	r.x, r.y, r.c, r.x0, r.diff, r.groupAcc = next(k), next(k), next(k), next(k), next(k), next(k)
	r.prods = next(rhoGroup * k)
	r.t = next(k + 2)
	r.prodWords = make([]big.Word, k*64/bits.UintSize)
	r.x0[0] = 2
	r.mul(r.x0, r.x0, r.r2)
	return r
}

// mul sets z = x·y·R⁻¹ mod n through r's kernel; z may alias x or y.
func (r *rho) mul(z, x, y []uint64) {
	if r.m2 != nil {
		z[0], z[1] = r.m2.mul(x[0], x[1], y[0], y[1])
		return
	}
	r.m.mul(z, x, y, r.t)
}

// run is one rho run with f(x) = x² + c mod n from x_0 = 2, Floyd
// pairing (x advances one step per iteration, y two) and batched GCDs.
// y passes through every x_i before x needs it, so the values it
// produces are memoised and x reads x_(steps+1) back instead of
// recomputing it: three modular multiplies per iteration, not four.
//
// The arithmetic is in Montgomery form, which leaves every decision
// where plain arithmetic puts it: x_i ≡ x_j exactly when their forms are
// equal, and a batch product differs from the plain one by a power of
// R, a unit mod n, so gcd(prod, n) is the same integer.
//
// The decisions are those of one GCD per batch of rhoBatch steps, but
// the GCDs are paid per group of rhoGroup batches: see resolve.
//
// A nil return means the budget ran out, the sequence cycled (x = y)
// without exposing a factor, or a batch overshot: every prime of n
// divided some difference in the same batch, so the product is 0 mod n
// and the GCD is n itself. The batch is not replayed step by step; the
// caller's sweep to the next c is the retry, and the callers only need
// best-effort factors.
func (r *rho) run(c uint64, maxSteps int) *big.Int {
	clear(r.c)
	r.c[0] = c
	r.mul(r.c, r.c, r.r2) // reduces c mod n on the way
	copy(r.x, r.x0)
	copy(r.y, r.x0)
	r.xp, r.yp = r.x0, r.x0
	for steps := 0; steps < maxSteps; {
		batches, cycled := 0, false
		for ; batches < rhoGroup && steps < maxSteps; batches++ {
			end := min(steps+rhoBatch, maxSteps)
			prod := r.prods[batches*r.k : (batches+1)*r.k]
			if r.m2 != nil {
				cycled = !r.batch2(steps, end, prod)
			} else {
				cycled = !r.batch(steps, end, prod)
			}
			if cycled {
				break
			}
			steps = end
		}
		if d, done := r.resolve(batches); done || cycled {
			return d
		}
	}
	return nil
}

// resolve decides the group's first b batch products as one GCD per
// batch would, in order: a zero product is an overshoot, any other
// product sharing a factor with n yields that factor, and done reports
// that the run ends either way. Every product is a unit exactly when
// their product is, so that one GCD is all a group without a hit pays;
// only a group with a hit goes back through its batches.
func (r *rho) resolve(b int) (d *big.Int, done bool) {
	if b == 0 {
		return nil, false
	}
	k := r.k
	copy(r.groupAcc, r.prods[:k])
	for i := 1; i < b; i++ {
		r.mul(r.groupAcc, r.groupAcc, r.prods[i*k:(i+1)*k])
	}
	if r.unit(r.groupAcc) {
		return nil, false
	}
	for i := 0; i < b; i++ {
		p := r.prods[i*k : (i+1)*k]
		if isZero(p) {
			return nil, true
		}
		if !r.unit(p) {
			return new(big.Int).Set(&r.gcd), true
		}
	}
	panic("numtheory: rho group product shares a factor with n that no batch does")
}

// unit reports whether gcd(p, n) = 1, leaving the GCD in r.gcd.
func (r *rho) unit(p []uint64) bool {
	return r.gcd.GCD(nil, nil, setLimbs(&r.prodInt, r.prodWords, p), r.n).Cmp(one) == 0
}

// batch advances the run on mont from step from to step to,
// multiplying each difference x − y into prod, and reports false if
// the pointers met.
func (r *rho) batch(from, to int, prod []uint64) bool {
	m, k, t := r.m, r.k, r.t
	stored := len(r.memo) / k
	// slot is where x_i is kept: in the memo while it has room, else in
	// the pointer's own buffer.
	slot := func(i int, own []uint64) []uint64 {
		if i <= stored {
			return r.memo[(i-1)*k : i*k]
		}
		return own
	}
	step := func(dst, src []uint64) []uint64 {
		m.mul(dst, src, src, t)
		m.add(dst, dst, r.c, t)
		return dst
	}
	x, y := r.xp, r.yp
	copy(prod, m.one)
	for s := from; s < to; s++ {
		y = step(slot(2*s+1, r.y), y)
		y = step(slot(2*s+2, r.y), y)
		if s < stored {
			x = slot(s+1, nil)
		} else {
			x = step(r.x, x)
		}
		m.sub(r.diff, x, y)
		if isZero(r.diff) {
			return false
		}
		m.mul(prod, prod, r.diff, t)
	}
	r.xp, r.yp = x, y
	return true
}

// batch2 is batch on mont2, with the pointers and the product held in
// registers and kept in r.x and r.y between batches.
func (r *rho) batch2(from, to int, prod []uint64) bool {
	m, memo := r.m2, r.memo
	stored := len(memo) / 2
	c0, c1 := r.c[0], r.c[1]
	x0, x1, y0, y1 := r.x[0], r.x[1], r.y[0], r.y[1]
	p0, p1 := m.one[0], m.one[1]
	for s := from; s < to; s++ {
		y0, y1 = m.mul(y0, y1, y0, y1)
		y0, y1 = m.add(y0, y1, c0, c1)
		if i := 2 * s; i < stored {
			memo[2*i], memo[2*i+1] = y0, y1
		}
		y0, y1 = m.mul(y0, y1, y0, y1)
		y0, y1 = m.add(y0, y1, c0, c1)
		if i := 2*s + 1; i < stored {
			memo[2*i], memo[2*i+1] = y0, y1
		}
		if s < stored {
			x0, x1 = memo[2*s], memo[2*s+1]
		} else {
			x0, x1 = m.mul(x0, x1, x0, x1)
			x0, x1 = m.add(x0, x1, c0, c1)
		}
		d0, d1 := m.sub(x0, x1, y0, y1)
		if d0|d1 == 0 {
			return false
		}
		p0, p1 = m.mul(p0, p1, d0, d1)
	}
	r.x[0], r.x[1], r.y[0], r.y[1] = x0, x1, y0, y1
	prod[0], prod[1] = p0, p1
	return true
}

// fermatSieve holds, per modulus m, which residues are squares mod m. A
// perfect square is a square modulo everything, so a² - n that is a
// non-residue modulo any of these is rejected on machine words without
// forming it; about 0.8% of candidates pass all four.
var fermatSieve = func() (s [4]struct {
	m  uint64
	qr [65]bool
}) {
	for i, m := range [...]uint64{64, 63, 65, 11} {
		s[i].m = m
		for v := uint64(0); v < m; v++ {
			s[i].qr[v*v%m] = true
		}
	}
	return s
}()

// fermatSieveProduct is the product of the sieve moduli: one reduction
// by it yields the residue modulo each.
var fermatSieveProduct = big.NewInt(64 * 63 * 65 * 11)

// FermatFactor attempts to factor n = p*q with close primes by Fermat's
// method: ascend a from ceil(sqrt(n)) and test whether a² - n is a
// perfect square b²; if so, n = (a-b)(a+b). The budget is the number of
// candidate a values tried (so step 0 tests ceil(sqrt(n)) itself, and a
// pair whose midpoint is k above the root needs a budget of k+1). It
// returns nil, nil when no split lands within the budget or n is even,
// a square, prime, or < 2.
//
// Primes drawn too close together — the "When RSA Fails" prime-selection
// flaw where q is the next prime after p, or p and q share high bits —
// fall in a handful of steps: the required ascent is ~(p-q)²/(8·sqrt(n)),
// so any |p-q| below roughly n^(1/4) is within reach of a tiny budget
// while honestly independent primes sit ~sqrt(n)/2 away.
func FermatFactor(n *big.Int, maxSteps int) (p, q *big.Int) {
	if n.Sign() <= 0 || n.BitLen() < 2 || ProbePrime(n) {
		return nil, nil
	}
	return fermatComposite(n, maxSteps)
}

// fermatComposite is FermatFactor for a caller that has already
// established n is composite (n > 3 and not a probable prime); n <= 0
// still yields nil.
func fermatComposite(n *big.Int, maxSteps int) (p, q *big.Int) {
	if n.Sign() <= 0 || n.Bit(0) == 0 {
		return nil, nil
	}
	// a0 = ceil(sqrt(n)); a is scratch until the ascent, then the
	// candidate a0 + i.
	a0 := new(big.Int).Sqrt(n)
	a := new(big.Int).Mul(a0, a0)
	if a.Cmp(n) < 0 {
		a0.Add(a0, one)
	}
	// The ascent itself runs on residues: am[j] tracks a mod m_j and
	// nm[j] is n mod m_j. Only a candidate the sieve cannot rule out
	// pays for a² - n and its square root.
	aRes := a.Mod(a0, fermatSieveProduct).Uint64()
	nRes := a.Mod(n, fermatSieveProduct).Uint64()
	var am, nm [len(fermatSieve)]uint64
	for j := range fermatSieve {
		am[j], nm[j] = aRes%fermatSieve[j].m, nRes%fermatSieve[j].m
	}
	b2 := new(big.Int)
	b := new(big.Int)
	bb := new(big.Int)
	for i := 0; i < maxSteps; i++ {
		maybeSquare := true
		for j := range fermatSieve {
			s := &fermatSieve[j]
			maybeSquare = maybeSquare && s.qr[(am[j]*am[j]+s.m-nm[j])%s.m]
			if am[j]++; am[j] == s.m {
				am[j] = 0
			}
		}
		if !maybeSquare {
			continue
		}
		a.SetInt64(int64(i))
		a.Add(a, a0)
		b2.Mul(a, a)
		b2.Sub(b2, n)
		b.Sqrt(b2)
		bb.Mul(b, b)
		if bb.Cmp(b2) == 0 {
			p = new(big.Int).Sub(a, b)
			q = new(big.Int).Add(a, b)
			if p.Cmp(one) <= 0 {
				// n itself is the degenerate 1·n split (n a square of
				// nothing useful, or a=(n+1)/2 reached for tiny n).
				return nil, nil
			}
			return p, q
		}
	}
	return nil, nil
}

// SplitComposite runs the two bounded factoring probes against an n the
// caller has already established is composite (n > 3 and not a probable
// prime), so neither repeats the primality test FermatFactor and
// PollardRho each open with: first the Fermat ascent over fermatSteps
// candidates, then Pollard rho with rhoSteps per run; a budget <= 0
// skips that probe. It returns the split p <= q of the first hit and
// whether Fermat's method found it (q may be composite for a rho hit),
// or nil, nil when both budgets are exhausted.
func SplitComposite(n *big.Int, fermatSteps, rhoSteps int) (p, q *big.Int, fermat bool) {
	if fermatSteps > 0 {
		if p, q = fermatComposite(n, fermatSteps); p != nil {
			return p, q, true
		}
	}
	if rhoSteps > 0 {
		if p = rhoComposite(n, rhoSteps); p != nil {
			q = new(big.Int).Quo(n, p)
			if p.Cmp(q) > 0 {
				p, q = q, p
			}
			return p, q, false
		}
	}
	return nil, nil, false
}

// FactorCompletely factors n into probable primes using trial division by
// the first nPrimes primes followed by recursive Pollard rho, each rho
// call bounded by rhoSteps. Factors that resist the budget are returned
// in incomplete. Results are sorted ascending.
func FactorCompletely(n *big.Int, nPrimes, rhoSteps int) (primes []*big.Int, incomplete []*big.Int) {
	small, cofactor := SmallFactors(n, nPrimes)
	for _, pp := range small {
		for i := 0; i < pp.Exp; i++ {
			primes = append(primes, new(big.Int).SetUint64(pp.Prime))
		}
	}
	var rec func(m *big.Int)
	rec = func(m *big.Int) {
		if m.Cmp(one) == 0 {
			return
		}
		if ProbePrime(m) {
			primes = append(primes, new(big.Int).Set(m))
			return
		}
		d := rhoComposite(m, rhoSteps)
		if d == nil {
			incomplete = append(incomplete, new(big.Int).Set(m))
			return
		}
		rec(d)
		rec(new(big.Int).Quo(m, d))
	}
	rec(cofactor)
	sortBig(primes)
	sortBig(incomplete)
	return primes, incomplete
}

func sortBig(xs []*big.Int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j].Cmp(xs[j-1]) < 0; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
