package numtheory

import (
	"errors"
	"io"
	"math"
	"math/big"
	"slices"
)

// ErrEntropy is returned when the supplied entropy source fails or is
// exhausted before a prime could be generated.
var ErrEntropy = errors.New("numtheory: entropy source failed")

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// ProbePrime is n.ProbablyPrime(12), the primality test the factoring
// probes open with, made cheap for the composites they are pointed at:
// an odd n with 2^(n-1) mod n ≠ 1 is proven composite by one modular
// exponentiation, and only the survivors pay for the test's random
// bases. The answer is always the same, because ProbablyPrime always
// runs a base-2 Miller–Rabin round, which every such n fails.
func ProbePrime(n *big.Int) bool {
	if n.Bit(0) == 1 && n.Cmp(one) > 0 && !fermatBase2(n) {
		return false
	}
	return n.ProbablyPrime(12)
}

// fermatBase2 reports whether 2^(n-1) ≡ 1 (mod n) for an odd n > 1. Up
// to two limbs the power is taken on mont2, where squaring the
// Montgomery form of 2^e gives that of 2^2e and doubling it that of
// 2^(e+1), so the left-to-right ladder needs no multiply by the base.
func fermatBase2(n *big.Int) bool {
	if n.BitLen() > 128 {
		nm1 := new(big.Int).Sub(n, one)
		return nm1.Exp(two, nm1, n).Cmp(one) == 0
	}
	m := newMont2(n)
	var e [2]uint64
	limbsOf(e[:], n)
	e[0]-- // n is odd: no borrow
	x0, x1 := m.one[0], m.one[1]
	for i := n.BitLen() - 1; i >= 0; i-- {
		x0, x1 = m.mul(x0, x1, x0, x1)
		if e[i/64]>>(i%64)&1 != 0 {
			x0, x1 = m.add(x0, x1, x0, x1)
		}
	}
	return x0 == m.one[0] && x1 == m.one[1]
}

// NextPrime returns the smallest probable prime >= n. The argument is
// not modified. From 2048 up it is sieveSearch over the odd primes among
// the first trialDivisionPrimes, with no bound. The answer is the one
// the bare ProbablyPrime(20) scan gives, unless some composite passes
// ProbablyPrime(20) (no such number is known).
func NextPrime(n *big.Int) *big.Int {
	c := new(big.Int).Set(n)
	if c.Cmp(two) <= 0 {
		return big.NewInt(2)
	}
	if c.Bit(0) == 0 {
		c.Add(c, one)
	}
	if c.BitLen() <= 11 {
		// At most 2047: a candidate could be a sieve prime itself.
		for !probablePrime(c) {
			c.Add(c, two)
		}
		return c
	}
	return sieveSearch(c, naiveSieve, false, math.MaxUint64)
}

// probablePrime is ProbablyPrime(20) behind the base-2 Fermat gate, for
// an odd n > 1: the gate rejects only what ProbablyPrime's forced
// base-2 round rejects (as in ProbePrime), so the answer is the same.
func probablePrime(n *big.Int) bool {
	return fermatBase2(n) && n.ProbablyPrime(20)
}

// sieveSearch returns the first odd candidate c+d, d < limit, that no
// prime in sieve divides, nor, with excludeOne, leaves remainder 1 (the
// OpenSSL rule that keeps every sieve prime out of p-1), and that
// probablePrime accepts; nil if there is none. c must be odd and exceed
// every sieve prime, so a candidate a sieve prime divides is composite.
//
// Candidates are struck out on words, sieveWindow at a time: c's
// residues come from one pass over its words, and per sieve prime the
// search keeps the offset of the next candidate each rule strikes, so a
// window costs no division.
func sieveSearch(c *big.Int, sieve []uint64, excludeOne bool, limit uint64) *big.Int {
	// Candidate k is c+2k: q divides it when 2k ≡ -r (mod q), so at
	// k ≡ (q-r)·(q+1)/2, and it leaves remainder 1 at (q+1)/2 past that.
	zero := remsOf(c.Bits(), sieve)
	strikes := [][]uint64{zero}
	if excludeOne {
		strikes = append(strikes, make([]uint64, len(sieve)))
	}
	for i, q := range sieve {
		half := (q + 1) / 2
		zero[i] = (q - zero[i]) % q * half % q
		if excludeOne {
			strikes[1][i] = (zero[i] + half) % q
		}
	}
	var struck [sieveWindow]bool
	cand, d := new(big.Int), new(big.Int)
	for base := uint64(0); ; base += 2 * sieveWindow {
		clear(struck[:])
		for _, next := range strikes {
			for i, q := range sieve {
				k := next[i]
				for ; k < sieveWindow; k += q {
					struck[k] = true
				}
				next[i] = k - sieveWindow
			}
		}
		for k, out := range struck {
			delta := base + 2*uint64(k)
			if delta >= limit {
				return nil
			}
			if !out && probablePrime(cand.Add(c, d.SetUint64(delta))) {
				return cand
			}
		}
	}
}

// sieveWindow is how many odd candidates sieveSearch strikes at a time,
// a span of 256. The mean prime gap is about 44 near 2^64 and 355 near
// 2^512: a narrower window would take several passes at the wide end,
// a wider one strike out candidates past the prime at the narrow end.
const sieveWindow = 128

// naiveSieve holds the odd primes among the first trialDivisionPrimes,
// the sieve of NextPrime and of the naive generator.
var naiveSieve = FirstPrimes(trialDivisionPrimes)[1:]

// remsOf returns the magnitude in words modulo each of primes, taking
// the primes in runs whose product fits a word so that one pass over
// the words serves the whole run (as SmallFactors does).
func remsOf(words []big.Word, primes []uint64) []uint64 {
	rems := make([]uint64, len(primes))
	for i := 0; i < len(primes); {
		run, prod := wordRun(primes[i:])
		r := remWords(words, prod)
		for end := i + run; i < end; i++ {
			rems[i] = r % primes[i]
		}
	}
	return rems
}

// RandomOdd reads bits/8 bytes from r and returns an odd integer of exactly
// the requested bit length (top two bits forced to 1, as RSA prime
// generation conventionally does so the product of two primes has full
// length).
func RandomOdd(r io.Reader, bits int) (*big.Int, error) {
	if bits < 16 {
		return nil, errors.New("numtheory: bit length too small")
	}
	buf := make([]byte, (bits+7)/8)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, ErrEntropy
	}
	excess := len(buf)*8 - bits
	buf[0] &= 0xFF >> uint(excess)
	buf[0] |= 0xC0 >> uint(excess)
	buf[len(buf)-1] |= 1
	return new(big.Int).SetBytes(buf), nil
}

// OpenSSLSievePrimes is the number of small primes OpenSSL's prime
// generator trial-divides against, and therefore the number the paper's
// implementation fingerprint checks (Section 3.3.4).
const OpenSSLSievePrimes = 2048

// trialDivisionPrimes is the sieve depth used purely as a speed
// optimization by the "naive" generator. It is deliberately much smaller
// than OpenSSLSievePrimes so naive primes keep the unconstrained p-1
// distribution the paper relies on (only ~7.5% satisfy the OpenSSL
// property by chance).
const trialDivisionPrimes = 256

// genPrimeSieved is the prime search shared by both generator
// flavours: sieveSearch from a random odd start over at most 2^16 past
// it, redrawn when no prime of the requested length lies there. With
// excludeOne it is OpenSSL's probable_prime loop, which is what makes
// p-1 free of small odd prime factors. Bounding the scan keeps one
// unlucky start from pushing the candidate past the requested bit
// length or skewing the distribution too far.
func genPrimeSieved(r io.Reader, bits int, sieve []uint64, excludeOne bool) (*big.Int, error) {
	for draws := 0; draws < 1000; draws++ {
		start, err := RandomOdd(r, bits)
		if err != nil {
			return nil, err
		}
		if p := sieveSearch(start, sieve, excludeOne, 1<<16); p != nil && p.BitLen() == bits {
			return p, nil
		}
	}
	return nil, errors.New("numtheory: prime generation exhausted redraw budget")
}

// GenPrimeNaive generates a probable prime of the given bit length from r
// with no constraint on the factorization of p-1. This models the prime
// generation used by non-OpenSSL embedded implementations in the paper:
// only ~7.5% of primes produced this way satisfy the OpenSSL p-1 property
// by chance (Mironov's estimate quoted in Section 3.3.4).
func GenPrimeNaive(r io.Reader, bits int) (*big.Int, error) {
	return genPrimeSieved(r, bits, naiveSieve, false)
}

// GenPrimeOpenSSL generates a probable prime of the given bit length whose
// p-1 is not divisible by any odd prime among the first OpenSSLSievePrimes
// primes — the distinctive OpenSSL behaviour observed by Mironov. The
// returned primes always satisfy SatisfiesOpenSSLProperty.
func GenPrimeOpenSSL(r io.Reader, bits int) (*big.Int, error) {
	return genPrimeSieved(r, bits, FirstPrimes(OpenSSLSievePrimes)[1:], true)
}

// SatisfiesOpenSSLProperty reports whether the prime p could have been
// produced by OpenSSL's generator: p-1 has no odd prime factor among the
// first OpenSSLSievePrimes primes. This is the per-prime test behind the
// paper's Table 5 classification.
func SatisfiesOpenSSLProperty(p *big.Int) bool {
	return !slices.Contains(remsOf(p.Bits(), FirstPrimes(OpenSSLSievePrimes)[1:]), 1)
}

// GenSafePrime generates a probable safe prime (p where (p-1)/2 is also
// prime). Safe primes trivially satisfy the OpenSSL property, which is why
// the paper checks that no vulnerable implementation produced exclusively
// safe primes before trusting the fingerprint.
func GenSafePrime(r io.Reader, bits int) (*big.Int, error) {
	for attempts := 0; attempts < 200000; attempts++ {
		q, err := GenPrimeNaive(r, bits-1)
		if err != nil {
			return nil, err
		}
		p := new(big.Int).Lsh(q, 1)
		p.Add(p, one)
		if p.BitLen() == bits && probablePrime(p) {
			return p, nil
		}
	}
	return nil, errors.New("numtheory: failed to generate safe prime")
}

// IsSafePrime reports whether p and (p-1)/2 are both probable primes.
func IsSafePrime(p *big.Int) bool {
	if !p.ProbablyPrime(20) {
		return false
	}
	q := new(big.Int).Sub(p, one)
	q.Rsh(q, 1)
	return q.ProbablyPrime(20)
}
