// Package numtheory provides the elementary number-theoretic building
// blocks used throughout the weak-key study: small-prime sieves,
// probabilistic primality testing, modular arithmetic helpers, and
// smooth-part extraction.
//
// The package intentionally works with math/big so the same routines serve
// both the key-generation substrate (internal/weakrsa) and the factoring
// core (internal/batchgcd). Everything here is deterministic given its
// inputs; randomized routines take an explicit io.Reader entropy source.
package numtheory

// SmallPrimes returns the first n primes, computed with an Eratosthenes
// sieve. The result is freshly allocated on every call; callers that need
// the list repeatedly should use FirstPrimes, which shares one.
func SmallPrimes(n int) []uint64 {
	if n <= 0 {
		return nil
	}
	// Upper bound for the nth prime: n(ln n + ln ln n) for n >= 6.
	limit := uint64(16)
	if n >= 6 {
		fn := float64(n)
		limit = uint64(fn*(ln(fn)+ln(ln(fn)))) + 8
	}
	for {
		primes := sieve(limit)
		if len(primes) >= n {
			return primes[:n:n]
		}
		limit *= 2
	}
}

// ln is a tiny natural-log approximation sufficient for sieve sizing; it
// avoids importing math for a single call site and never needs to be
// precise (an overestimate merely sieves slightly further).
func ln(x float64) float64 {
	// Use the identity ln(x) = 2*atanh((x-1)/(x+1)) via its series.
	// Range-reduce by powers of 2: ln(x) = k*ln2 + ln(m), m in [1,2).
	const ln2 = 0.6931471805599453
	k := 0.0
	for x >= 2 {
		x /= 2
		k++
	}
	for x < 1 {
		x *= 2
		k--
	}
	y := (x - 1) / (x + 1)
	y2 := y * y
	term := y
	sum := 0.0
	for i := 1; i < 40; i += 2 {
		sum += term / float64(i)
		term *= y2
	}
	return k*ln2 + 2*sum
}

// sieve returns all primes <= limit.
func sieve(limit uint64) []uint64 {
	if limit < 2 {
		return nil
	}
	composite := make([]bool, limit+1)
	var primes []uint64
	for p := uint64(2); p <= limit; p++ {
		if composite[p] {
			continue
		}
		primes = append(primes, p)
		for m := p * p; m <= limit; m += p {
			composite[m] = true
		}
	}
	return primes
}

// firstPrimes is the first OpenSSLSievePrimes primes, the longest list
// the study asks FirstPrimes for, built once at init so concurrent
// callers share it without synchronisation.
var firstPrimes = SmallPrimes(OpenSSLSievePrimes)

// FirstPrimes returns the first n primes: up to OpenSSLSievePrimes a
// prefix of the shared list, which MUST NOT be modified, and beyond it a
// fresh SmallPrimes(n). It is the list OpenSSL-style prime generation
// sieves against (the paper's fingerprint uses the first 2048 primes).
func FirstPrimes(n int) []uint64 {
	if n > len(firstPrimes) {
		return SmallPrimes(n)
	}
	return firstPrimes[:n:n]
}
