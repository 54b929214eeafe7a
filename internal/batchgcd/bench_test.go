package batchgcd

import (
	"context"
	"math/big"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/factorable/weakkeys/internal/kernel"
)

// mrBases make Miller–Rabin deterministic below 2^64.
var mrBases = [...]uint64{2, 325, 9375, 28178, 450775, 9780504, 1795265022}

// isPrime64 is a deterministic primality test for an odd n > 37: trial
// division by the small odd primes, then strong probable-prime tests to
// mrBases on words. big.Int.ProbablyPrime seeds a math/rand source per
// call, which over the candidates of 2^17 primes would take longer than
// the batch GCD it sets up.
func isPrime64(n uint64) bool {
	for _, p := range [...]uint64{3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n%p == 0 {
			return false
		}
	}
	mulmod := func(a, b uint64) uint64 {
		hi, lo := bits.Mul64(a, b)
		_, r := bits.Div64(hi, lo, n)
		return r
	}
	d := n - 1
	s := bits.TrailingZeros64(d)
	d >>= s
witness:
	for _, a := range mrBases {
		x := uint64(1)
		for b, e := a%n, d; e > 0; e >>= 1 {
			if e&1 == 1 {
				x = mulmod(x, b)
			}
			b = mulmod(b, b)
		}
		if a%n == 0 || x == 1 || x == n-1 {
			continue
		}
		for range s - 1 {
			if x = mulmod(x, x); x == n-1 {
				continue witness
			}
		}
		return false
	}
	return true
}

// pairCorpus returns n moduli of two 64-bit primes each, the batch_gcd
// workload's shape: 1% in pairs sharing a prime, the rest sharing
// nothing, shuffled. shared holds each planted modulus's shared prime.
func pairCorpus(seed int64, n int) (moduli []*big.Int, shared map[int]uint64) {
	rng := rand.New(rand.NewSource(seed))
	prime := func() uint64 {
		for {
			if p := rng.Uint64() | 1<<63 | 1; isPrime64(p) {
				return p
			}
		}
	}
	mod := func(p, q uint64) *big.Int {
		return new(big.Int).Mul(new(big.Int).SetUint64(p), new(big.Int).SetUint64(q))
	}
	primes := make([]uint64, n)
	moduli = make([]*big.Int, n)
	planted := n / 100 &^ 1
	for i := range moduli {
		primes[i] = prime()
		if i < planted && i%2 == 1 {
			primes[i] = primes[i-1]
		}
		moduli[i] = mod(primes[i], prime())
	}
	perm := rng.Perm(n)
	out := make([]*big.Int, n)
	shared = make(map[int]uint64, planted)
	for i, j := range perm {
		out[j] = moduli[i]
		if i < planted {
			shared[j] = primes[i]
		}
	}
	return out, shared
}

var benchCorpus = sync.OnceValues(func() ([]*big.Int, map[int]uint64) { return pairCorpus(53, 1<<16) })

// BenchmarkFactor is one FactorCtx over 65,536 moduli of 128 bits, 1% in
// pairs sharing a prime: the batch_gcd workload's op, on the shared
// kernel pool, in ms/op and allocs/op. The corpus is built once per
// process, outside the timer.
func BenchmarkFactor(b *testing.B) {
	moduli, shared := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Factor(moduli)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(shared) {
			b.Fatalf("%d moduli factored, %d planted", len(res), len(shared))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
}

// TestFactorAllocations holds what a warm FactorCtx over 4,096 moduli of
// the workload's shape allocates on a one-worker engine to 35,000: the
// count measured when the divisor pass came in, about 23,500, plus half.
// That is the product tree's nodes and derivatives, the residues down to
// the pruning level, a GCD's temporaries per node there, and the
// divisors; a residue and a GCD per modulus, as before, made 87,000.
func TestFactorAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	eng := kernel.New(1)
	defer eng.Close()
	ctx := kernel.With(context.Background(), eng)
	moduli, shared := pairCorpus(54, 4096)
	res, err := FactorCtx(ctx, moduli)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if p, ok := shared[r.Index]; !ok || !r.Divisor.IsUint64() || r.Divisor.Uint64() != p {
			t.Fatalf("modulus %d: divisor %v, planted prime %d", r.Index, r.Divisor, p)
		}
	}
	if len(res) != len(shared) {
		t.Fatalf("%d moduli factored, %d planted", len(res), len(shared))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 5
	for range calls {
		if _, err := FactorCtx(ctx, moduli); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / calls
	t.Logf("a warm FactorCtx over %d moduli: %d bytes, %d allocations", len(moduli), (after.TotalAlloc-before.TotalAlloc)/calls, allocs)
	if budget := uint64(35000); allocs > budget {
		t.Errorf("a warm FactorCtx over %d moduli makes %d allocations, budget %d", len(moduli), allocs, budget)
	}
}
