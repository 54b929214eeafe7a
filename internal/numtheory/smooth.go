package numtheory

import "math/big"

// SmoothPart returns the largest divisor of n composed entirely of primes
// among the first nPrimes primes, together with the remaining cofactor.
// n must not be negative; SmoothPart(0, k) is (1, 0), as SmallFactors
// leaves zero whole. The bit-error classifier uses this: one or more bit
// flips in a valid RSA modulus yield an essentially random integer, which
// is expected to carry many small prime factors, whereas a well-formed
// modulus p*q has none.
func SmoothPart(n *big.Int, nPrimes int) (smooth, cofactor *big.Int) {
	smooth = big.NewInt(1)
	cofactor = new(big.Int).Set(n)
	if n.Sign() == 0 { // every prime divides zero: dividing it out never ends
		return smooth, cofactor
	}
	var q, m big.Int
	for _, p := range FirstPrimes(nPrimes) {
		q.SetUint64(p)
		for {
			var rem big.Int
			m.QuoRem(cofactor, &q, &rem)
			if rem.Sign() != 0 {
				break
			}
			cofactor.Set(&m)
			smooth.Mul(smooth, &q)
		}
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
	var m, q big.Int
	for _, p := range FirstPrimes(sievePrimes) {
		if m.Mod(n, q.SetUint64(p)).Sign() == 0 {
			return false
		}
	}
	return !n.ProbablyPrime(8)
}
