package numtheory

import (
	"math/big"
	"math/bits"
)

// SmallFactors returns the prime factorization of n restricted to primes
// among the first nPrimes primes, as (prime, exponent) pairs in
// ascending order, plus the remaining cofactor. The bit-error analysis
// uses this to show corrupted moduli carrying "divisors that are the
// product of many small prime factors" (Section 3.3.5). Zero has no
// factorization: SmallFactors(0, k) is (nil, 0).
//
// The primes are taken in runs whose product fits a machine word: one
// pass over n's words yields n modulo the run's product, and the
// residue modulo each prime of the run follows on words. Only a prime
// that divides n pays for the exact big.Int division that counts its
// exponent and takes it out of the cofactor; a prime q that does not
// divide n divides no cofactor either, so n's residues decide for every
// prime.
func SmallFactors(n *big.Int, nPrimes int) (factors []PrimePower, cofactor *big.Int) {
	cofactor = new(big.Int).Set(n)
	if n.Sign() == 0 {
		return nil, cofactor
	}
	words := n.Bits()
	var q, m, rem big.Int
	primes := FirstPrimes(nPrimes)
	for len(primes) > 0 {
		run, prod := wordRun(primes)
		r := remWords(words, prod)
		for _, p := range primes[:run] {
			if r%p != 0 {
				continue
			}
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
			factors = append(factors, PrimePower{Prime: p, Exp: exp})
		}
		primes = primes[run:]
	}
	return factors, cofactor
}

// wordRun returns how many of primes, from the first, have a product
// that fits a machine word, and that product.
func wordRun(primes []uint64) (int, uint64) {
	run, prod := 1, primes[0]
	for ; run < len(primes); run++ {
		hi, lo := bits.Mul64(prod, primes[run])
		if hi != 0 {
			break
		}
		prod = lo
	}
	return run, prod
}

// remWords returns x mod d for the magnitude x held in words, d > 0, by
// one word division per word of x.
func remWords(words []big.Word, d uint64) uint64 {
	var r uint64
	for i := len(words) - 1; i >= 0; i-- {
		if bits.UintSize == 64 {
			_, r = bits.Div64(r, uint64(words[i]), d)
		} else {
			_, r = bits.Div64(r>>32, r<<32|uint64(words[i]), d)
		}
	}
	return r
}

// PrimePower is one (prime, exponent) term of a factorization.
type PrimePower struct {
	Prime uint64
	Exp   int
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
const fermatSieveProduct = 64 * 63 * 65 * 11

// fermatTables is the sieve specialised to one n: ok[j][a] is 1 when
// a² - n is a square mod m_j for a ≡ a (mod m_j), else 0, so an ascent
// step is one lookup per modulus, and-ed together with no multiply,
// division or branch on the verdicts.
type fermatTables [len(fermatSieve)][65]uint8

// newFermatTables builds the tables for n ≡ nRes (mod fermatSieveProduct),
// stepping v = a² - n mod m_j by (a+1)² = a² + 2a + 1 with no division.
func newFermatTables(nRes uint64) (t fermatTables) {
	for j := range fermatSieve {
		s := &fermatSieve[j]
		v := (s.m - nRes%s.m) % s.m
		for a := uint64(0); a < s.m; a++ {
			if s.qr[v] {
				t[j][a] = 1
			}
			for v += 2*a + 1; v >= s.m; v -= s.m {
			}
		}
	}
	return t
}

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
	return FermatComposite(n, maxSteps)
}

// FermatComposite is FermatFactor for a caller that has already
// established n is composite (n > 3 and not a probable prime), so it
// skips the primality test; n <= 0 still yields nil. It is the ascent
// anomaly's probe runs after its own primality gate.
func FermatComposite(n *big.Int, maxSteps int) (p, q *big.Int) {
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
	// The ascent itself runs on residues: am[j] tracks a mod m_j, and
	// the tables turn it into the sieve's verdict. Only a candidate the
	// sieve cannot rule out pays for a² - n and its square root.
	ok := newFermatTables(remWords(n.Bits(), fermatSieveProduct))
	aRes := remWords(a0.Bits(), fermatSieveProduct)
	var am [len(fermatSieve)]uint64
	for j := range fermatSieve {
		am[j] = aRes % fermatSieve[j].m
	}
	b2 := new(big.Int)
	b := new(big.Int)
	bb := new(big.Int)
	for i := 0; i < maxSteps; i++ {
		maybeSquare := uint8(1)
		for j := range am {
			maybeSquare &= ok[j][am[j]]
			if am[j]++; am[j] == fermatSieve[j].m {
				am[j] = 0
			}
		}
		if maybeSquare == 0 {
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
