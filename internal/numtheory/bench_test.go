package numtheory

import (
	"fmt"
	"math/big"
	"testing"
)

// BenchmarkProbeParts measures the parts of one default-budget anomaly
// probe of a clean 128-bit modulus, each through its public entry
// point: the primality test as ProbablyPrime(12) alone (prime) and
// behind the base-2 gate the probes use (gate), trial division by the
// first 128 primes, the 512-step Fermat ascent and the eight 256-step
// rho runs.
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
		{"gate", func(n *big.Int) bool { return !ProbePrime(n) }},
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

// BenchmarkMontMul measures one Montgomery squaring, rho's step, by
// modulus width: the slice kernel at 1, 2, 4 and 16 limbs, and beside it
// at 1 and 2 limbs the two-limb kernel rho selects there instead.
func BenchmarkMontMul(b *testing.B) {
	rng := testRand(2107)
	for _, k := range []int{1, 2, 4, 16} {
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(64*k)))
		n.SetBit(n, 64*k-1, 1).SetBit(n, 0, 1)
		x := new(big.Int).Rsh(n, 1)
		b.Run(fmt.Sprintf("limbs=%d/slice", k), func(b *testing.B) {
			m := newMont(n)
			z, t := make([]uint64, k), make([]uint64, k+2)
			limbsOf(z, x)
			for i := 0; i < b.N; i++ {
				m.mul(z, z, z, t)
			}
		})
		if k > 2 {
			continue
		}
		b.Run(fmt.Sprintf("limbs=%d/two-limb", k), func(b *testing.B) {
			m := newMont2(n)
			var z [2]uint64
			limbsOf(z[:], x)
			for i := 0; i < b.N; i++ {
				z[0], z[1] = m.mul(z[0], z[1], z[0], z[1])
			}
		})
	}
}
