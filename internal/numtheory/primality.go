package numtheory

import (
	"errors"
	"io"
	"math/big"
)

// ErrEntropy is returned when the supplied entropy source fails or is
// exhausted before a prime could be generated.
var ErrEntropy = errors.New("numtheory: entropy source failed")

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// IsProbablePrime reports whether n is prime with error probability at most
// 4^-rounds, using math/big's Miller-Rabin implementation (which also runs
// a Baillie-PSW-style Lucas test). Negative numbers, zero and one are
// never prime.
func IsProbablePrime(n *big.Int, rounds int) bool {
	if n.Sign() <= 0 {
		return false
	}
	return n.ProbablyPrime(rounds)
}

// ProbePrime is n.ProbablyPrime(12), the primality test the factoring
// probes open with, made cheap for the composites they are pointed at:
// an odd n with 2^(n-1) mod n ≠ 1 is proven composite by one modular
// exponentiation, and only the survivors pay for the test's random
// bases. The answer is always the same, because ProbablyPrime always
// runs a base-2 Miller–Rabin round, which every such n fails.
func ProbePrime(n *big.Int) bool {
	if n.Sign() > 0 && n.Bit(0) == 1 {
		nm1 := new(big.Int).Sub(n, one)
		if nm1.Exp(two, nm1, n).Cmp(one) != 0 {
			return false
		}
	}
	return n.ProbablyPrime(12)
}

// NextPrime returns the smallest probable prime >= n. It scans odd
// candidates; for cryptographic sizes the prime gap makes this fast. The
// argument is not modified.
func NextPrime(n *big.Int) *big.Int {
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

// genPrimeSieved is the incremental prime search shared by both generator
// flavours. It draws a random odd starting point, caches its residues
// modulo the first sievePrimes primes, and scans candidates start+delta
// (delta even) rejecting any divisible by a sieve prime. When excludeOne
// is set it additionally rejects candidates congruent to 1 modulo any odd
// sieve prime — this is exactly OpenSSL's probable_prime loop and is what
// makes p-1 free of small odd prime factors.
func genPrimeSieved(r io.Reader, bits, sievePrimes int, excludeOne bool) (*big.Int, error) {
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
		// Bound the scan so one unlucky start cannot push the candidate
		// past the requested bit length or skew the distribution too far.
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
				break // wrapped past the top; redraw
			}
			if cand.ProbablyPrime(20) {
				return cand, nil
			}
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
	return genPrimeSieved(r, bits, trialDivisionPrimes, false)
}

// GenPrimeOpenSSL generates a probable prime of the given bit length whose
// p-1 is not divisible by any odd prime among the first OpenSSLSievePrimes
// primes — the distinctive OpenSSL behaviour observed by Mironov. The
// returned primes always satisfy SatisfiesOpenSSLProperty.
func GenPrimeOpenSSL(r io.Reader, bits int) (*big.Int, error) {
	return genPrimeSieved(r, bits, OpenSSLSievePrimes, true)
}

// SatisfiesOpenSSLProperty reports whether the prime p could have been
// produced by OpenSSL's generator: p-1 has no odd prime factor among the
// first OpenSSLSievePrimes primes. This is the per-prime test behind the
// paper's Table 5 classification.
func SatisfiesOpenSSLProperty(p *big.Int) bool {
	pm1 := new(big.Int).Sub(p, one)
	var m big.Int
	for _, q := range FirstPrimes(OpenSSLSievePrimes)[1:] {
		if m.Mod(pm1, m.SetUint64(q)).Sign() == 0 {
			return false
		}
	}
	return true
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
		if p.BitLen() == bits && p.ProbablyPrime(20) {
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
