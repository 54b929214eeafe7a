package numtheory

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
)

// testRand returns a deterministic entropy source for reproducible tests.
func testRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func TestIsProbablePrime(t *testing.T) {
	cases := []struct {
		v    int64
		want bool
	}{
		{-7, false}, {0, false}, {1, false}, {2, true}, {3, true},
		{4, false}, {17, true}, {561, false} /* Carmichael */, {7919, true},
	}
	for _, c := range cases {
		if got := IsProbablePrime(big.NewInt(c.v), 20); got != c.want {
			t.Errorf("IsProbablePrime(%d) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestProbePrimeMatchesProbablyPrime holds the base-2 gate to the test
// it fronts: on every n below 2^16 (0, 1, 2 and the even n included),
// on the base-2 Fermat pseudoprimes below 10^4, which pass the gate and
// leave the decision to ProbablyPrime, and on primes and semiprimes of
// 128 and 1024 bits.
func TestProbePrimeMatchesProbablyPrime(t *testing.T) {
	t.Parallel()
	check := func(n *big.Int) {
		t.Helper()
		if got, want := ProbePrime(n), n.ProbablyPrime(12); got != want {
			t.Errorf("ProbePrime(%v) = %v, ProbablyPrime(12) = %v", n, got, want)
		}
	}
	for v := int64(0); v < 1<<16; v++ {
		check(big.NewInt(v))
	}
	pseudoprimes := []int64{341, 561, 645, 1105, 1387, 1729, 1905, 2047, 2465, 2701, 2821,
		3277, 4033, 4369, 4371, 4681, 5461, 6601, 7957, 8321, 8481, 8911}
	for _, v := range pseudoprimes {
		n := big.NewInt(v)
		if f := new(big.Int).Exp(two, big.NewInt(v-1), n); f.Cmp(one) != 0 || n.ProbablyPrime(12) {
			t.Errorf("%d is not a base-2 Fermat pseudoprime", v)
		}
		check(n)
	}
	rng := testRand(2106)
	for _, bits := range []int{128, 1024} {
		p, q := randPrime(t, rng, bits), randPrime(t, rng, bits/2)
		check(p)
		check(new(big.Int).Mul(p, q))
		check(new(big.Int).Mul(q, randPrime(t, rng, bits/2)))
	}
}

func TestNextPrime(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {14, 17}, {90, 97}, {7907, 7907},
	}
	for _, c := range cases {
		if got := NextPrime(big.NewInt(c.in)); got.Int64() != c.want {
			t.Errorf("NextPrime(%d) = %v, want %d", c.in, got, c.want)
		}
	}
}

func TestNextPrimeDoesNotMutate(t *testing.T) {
	n := big.NewInt(10)
	NextPrime(n)
	if n.Int64() != 10 {
		t.Error("NextPrime mutated its argument")
	}
}

func TestRandomOdd(t *testing.T) {
	r := testRand(42)
	for _, bits := range []int{16, 64, 128, 512, 513} {
		v, err := RandomOdd(r, bits)
		if err != nil {
			t.Fatalf("RandomOdd(%d): %v", bits, err)
		}
		if v.BitLen() != bits {
			t.Errorf("RandomOdd(%d) has bit length %d", bits, v.BitLen())
		}
		if v.Bit(0) != 1 {
			t.Errorf("RandomOdd(%d) is even", bits)
		}
		if v.Bit(bits-2) != 1 {
			t.Errorf("RandomOdd(%d) second-highest bit not set", bits)
		}
	}
}

func TestRandomOddRejectsTinyBits(t *testing.T) {
	if _, err := RandomOdd(testRand(1), 8); err == nil {
		t.Error("expected error for 8-bit request")
	}
}

func TestRandomOddEntropyFailure(t *testing.T) {
	if _, err := RandomOdd(bytes.NewReader(nil), 64); err != ErrEntropy {
		t.Errorf("got %v, want ErrEntropy", err)
	}
}

func TestGenPrimeNaive(t *testing.T) {
	r := testRand(7)
	for i := 0; i < 4; i++ {
		p, err := GenPrimeNaive(r, 128)
		if err != nil {
			t.Fatal(err)
		}
		if p.BitLen() != 128 {
			t.Errorf("prime bit length %d, want 128", p.BitLen())
		}
		if !p.ProbablyPrime(30) {
			t.Errorf("GenPrimeNaive produced composite %v", p)
		}
	}
}

func TestGenPrimeNaiveDeterministicGivenEntropy(t *testing.T) {
	p1, err := GenPrimeNaive(testRand(99), 128)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := GenPrimeNaive(testRand(99), 128)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cmp(p2) != 0 {
		t.Error("same entropy stream produced different primes — the shared-prime vulnerability model depends on this determinism")
	}
}

func TestGenPrimeOpenSSLSatisfiesProperty(t *testing.T) {
	r := testRand(3)
	for i := 0; i < 3; i++ {
		p, err := GenPrimeOpenSSL(r, 128)
		if err != nil {
			t.Fatal(err)
		}
		if !p.ProbablyPrime(30) {
			t.Fatalf("composite from GenPrimeOpenSSL: %v", p)
		}
		if !SatisfiesOpenSSLProperty(p) {
			t.Errorf("OpenSSL-style prime %v fails the OpenSSL property", p)
		}
	}
}

func TestNaivePrimesMostlyFailOpenSSLProperty(t *testing.T) {
	// Mironov's estimate: ~7.5% of unconstrained primes satisfy the
	// property. With 40 samples the chance all satisfy it is ~0; we just
	// assert a strict majority fails.
	r := testRand(11)
	fail := 0
	const n = 40
	for i := 0; i < n; i++ {
		p, err := GenPrimeNaive(r, 128)
		if err != nil {
			t.Fatal(err)
		}
		if !SatisfiesOpenSSLProperty(p) {
			fail++
		}
	}
	if fail < n*3/4 {
		t.Errorf("only %d/%d naive primes fail the OpenSSL property; expected a large majority", fail, n)
	}
}

func TestSatisfiesOpenSSLPropertyKnownValues(t *testing.T) {
	// p = 23: p-1 = 22 = 2*11, 11 is a small odd prime -> fails.
	if SatisfiesOpenSSLProperty(big.NewInt(23)) {
		t.Error("23 should fail the property (22 = 2*11)")
	}
	// A safe prime far beyond the sieve range: p-1 = 2q with q prime and
	// huge, so no small odd factor. Construct via GenSafePrime.
	p, err := GenSafePrime(testRand(5), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !SatisfiesOpenSSLProperty(p) {
		t.Errorf("safe prime %v should satisfy the property", p)
	}
}

func TestGenSafePrime(t *testing.T) {
	p, err := GenSafePrime(testRand(8), 48)
	if err != nil {
		t.Fatal(err)
	}
	if p.BitLen() != 48 {
		t.Errorf("bit length %d, want 48", p.BitLen())
	}
	if !IsSafePrime(p) {
		t.Errorf("%v is not a safe prime", p)
	}
}

func TestIsSafePrime(t *testing.T) {
	// 23 is safe (11 prime); 13 is not (6 composite).
	if !IsSafePrime(big.NewInt(23)) {
		t.Error("23 is a safe prime")
	}
	if IsSafePrime(big.NewInt(13)) {
		t.Error("13 is not a safe prime")
	}
	if IsSafePrime(big.NewInt(24)) {
		t.Error("24 is not prime at all")
	}
}

func TestGenPrimeEntropyFailurePropagates(t *testing.T) {
	if _, err := GenPrimeNaive(bytes.NewReader(nil), 64); err == nil {
		t.Error("expected entropy error")
	}
	if _, err := GenPrimeOpenSSL(bytes.NewReader(nil), 64); err == nil {
		t.Error("expected entropy error")
	}
}
