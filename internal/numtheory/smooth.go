package numtheory

import (
	"math/big"
	"slices"
)

// SmoothPart returns the largest divisor of n composed entirely of primes
// among the first nPrimes primes, together with the remaining cofactor.
// n must not be negative; SmoothPart(0, k) is (1, 0), as SmallFactors
// leaves zero whole. The bit-error classifier uses this: one or more bit
// flips in a valid RSA modulus yield an essentially random integer, which
// is expected to carry many small prime factors, whereas a well-formed
// modulus p*q has none.
func SmoothPart(n *big.Int, nPrimes int) (smooth, cofactor *big.Int) {
	factors, cofactor := SmallFactors(n, nPrimes)
	smooth = big.NewInt(1)
	var pe big.Int
	for _, f := range factors {
		smooth.Mul(smooth, pe.Exp(pe.SetUint64(f.Prime), big.NewInt(int64(f.Exp)), nil))
	}
	return smooth, cofactor
}

// SmoothBits returns the bit length of the smooth part of n with respect to
// the first nPrimes primes; a cheap scalar summary used by classifiers.
func SmoothBits(n *big.Int, nPrimes int) int {
	s, _ := SmoothPart(n, nPrimes)
	return s.BitLen()
}

// IsWellFormedModulus reports whether n plausibly is an RSA modulus of the
// given bit length: correct size, odd, not prime, and with no prime factor
// among the first sievePrimes primes. The paper found 107 of 313,330
// vulnerable moduli failed this test, almost all due to transmission or
// storage bit errors.
func IsWellFormedModulus(n *big.Int, bits, sievePrimes int) bool {
	if n.Sign() <= 0 || n.Bit(0) == 0 {
		return false
	}
	if n.BitLen() != bits {
		return false
	}
	if slices.Contains(remsOf(n.Bits(), FirstPrimes(sievePrimes)), 0) {
		return false
	}
	return !n.ProbablyPrime(8)
}
