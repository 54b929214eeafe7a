package numtheory

import (
	"fmt"
	"math/big"
	"testing"
)

// BenchmarkProbeParts measures the numtheory parts of one anomaly probe
// of a clean 128-bit modulus, each through its public entry point: the
// primality test as ProbablyPrime(12) alone (prime) and behind the
// base-2 gate the probe uses (gate), and the 512-step Fermat ascent.
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
		{"fermat", func(n *big.Int) bool { p, _ := FermatFactor(n, 512); return p == nil }},
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

// BenchmarkMontMul measures one Montgomery squaring on mont2, the step
// of the base-2 gate's ladder, at one and two limbs.
func BenchmarkMontMul(b *testing.B) {
	rng := testRand(2107)
	for _, k := range []int{1, 2} {
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(64*k)))
		n.SetBit(n, 64*k-1, 1).SetBit(n, 0, 1)
		x := new(big.Int).Rsh(n, 1)
		b.Run(fmt.Sprintf("limbs=%d", k), func(b *testing.B) {
			m := newMont2(n)
			var z [2]uint64
			limbsOf(z[:], x)
			for i := 0; i < b.N; i++ {
				z[0], z[1] = m.mul(z[0], z[1], z[0], z[1])
			}
		})
	}
}

// BenchmarkNextPrime is one NextPrime search from a random start at
// each width weakrsa plants keys at, cycling through eight starts.
func BenchmarkNextPrime(b *testing.B) {
	for _, bits := range []int{64, 128, 256, 512} {
		rng := testRand(int64(bits))
		starts := make([]*big.Int, 8)
		for i := range starts {
			starts[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(bits)))
			starts[i].SetBit(starts[i], bits-1, 1)
		}
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NextPrime(starts[i%len(starts)])
			}
		})
	}
}

// BenchmarkGenPrime is one prime from each generator flavour at 64 to
// 512 bits, drawn from one seeded stream per width.
func BenchmarkGenPrime(b *testing.B) {
	for _, gen := range []string{"naive", "openssl"} {
		for _, bits := range []int{64, 128, 256, 512} {
			b.Run(fmt.Sprintf("%s/bits=%d", gen, bits), func(b *testing.B) {
				rng := testRand(int64(bits))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := generators[gen](rng, bits); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
