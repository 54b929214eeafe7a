package numtheory

import (
	"math/big"
	"testing"
)

// BenchmarkProbeParts measures the four parts of one default-budget
// anomaly probe of a clean 128-bit modulus, each through its public
// entry point: the primality test, trial division by the first 128
// primes, the 512-step Fermat ascent and the eight 256-step rho runs.
func BenchmarkProbeParts(b *testing.B) {
	var moduli []*big.Int
	for seed := int64(1); seed <= 8; seed++ {
		rng := testRand(seed)
		moduli = append(moduli, new(big.Int).Mul(randPrime(b, rng, 64), randPrime(b, rng, 64)))
	}
	for _, part := range []struct {
		name string
		run  func(n *big.Int) bool // reports whether n survived
	}{
		{"prime", func(n *big.Int) bool { return !n.ProbablyPrime(12) }},
		{"trial", func(n *big.Int) bool { small, _ := SmallFactors(n, 128); return len(small) == 0 }},
		{"fermat", func(n *big.Int) bool { p, _ := FermatFactor(n, 512); return p == nil }},
		{"rho", func(n *big.Int) bool { return PollardRho(n, 256) == nil }},
	} {
		b.Run(part.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !part.run(moduli[i%len(moduli)]) {
					b.Fatal("clean modulus did not survive")
				}
			}
		})
	}
}
