package numtheory

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSmallPrimesPrefix(t *testing.T) {
	want := []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
	got := SmallPrimes(len(want))
	if len(got) != len(want) {
		t.Fatalf("SmallPrimes(%d) returned %d primes", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("prime[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSmallPrimesCounts(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 1000, 2048} {
		got := SmallPrimes(n)
		if len(got) != n {
			t.Errorf("SmallPrimes(%d) returned %d primes", n, len(got))
		}
	}
	if SmallPrimes(0) != nil {
		t.Error("SmallPrimes(0) should be nil")
	}
	if SmallPrimes(-3) != nil {
		t.Error("SmallPrimes(-3) should be nil")
	}
}

func TestSmallPrimes2048th(t *testing.T) {
	// The 2048th prime is 17863; the paper's OpenSSL fingerprint sieves
	// exactly this far.
	primes := SmallPrimes(2048)
	if got := primes[2047]; got != 17863 {
		t.Errorf("2048th prime = %d, want 17863", got)
	}
}

func TestSmallPrimesAllPrime(t *testing.T) {
	for _, p := range SmallPrimes(500) {
		if !new(big.Int).SetUint64(p).ProbablyPrime(20) {
			t.Errorf("sieve produced composite %d", p)
		}
	}
}

func TestFirstPrimesCaching(t *testing.T) {
	a := FirstPrimes(100)
	b := FirstPrimes(50)
	if len(a) != 100 || len(b) != 50 {
		t.Fatalf("lengths: %d, %d", len(a), len(b))
	}
	for i := range b {
		if a[i] != b[i] {
			t.Fatalf("cache inconsistency at %d", i)
		}
	}
}

func TestTreeProduct(t *testing.T) {
	cases := []struct {
		in   []int64
		want int64
	}{
		{nil, 1},
		{[]int64{7}, 7},
		{[]int64{2, 3}, 6},
		{[]int64{2, 3, 5}, 30},
		{[]int64{1, 2, 3, 4, 5, 6, 7}, 5040},
	}
	for _, c := range cases {
		vals := make([]*big.Int, len(c.in))
		for i, v := range c.in {
			vals[i] = big.NewInt(v)
		}
		if got := TreeProduct(vals); got.Cmp(big.NewInt(c.want)) != 0 {
			t.Errorf("TreeProduct(%v) = %v, want %d", c.in, got, c.want)
		}
	}
}

func TestTreeProductDoesNotMutateInputs(t *testing.T) {
	vals := []*big.Int{big.NewInt(3), big.NewInt(5), big.NewInt(7)}
	TreeProduct(vals)
	if vals[0].Int64() != 3 || vals[1].Int64() != 5 || vals[2].Int64() != 7 {
		t.Error("TreeProduct mutated its inputs")
	}
}

func TestTreeProductMatchesLinearFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		count := int(n%50) + 1
		vals := make([]*big.Int, count)
		linear := big.NewInt(1)
		for i := range vals {
			vals[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 64))
			vals[i].Add(vals[i], big.NewInt(1))
			linear.Mul(linear, vals[i])
		}
		return TreeProduct(vals).Cmp(linear) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLnApproximation(t *testing.T) {
	// ln only sizes the sieve; it needs to be within a few percent.
	cases := []struct{ x, want float64 }{
		{2.718281828, 1.0}, {10, 2.302585}, {1000, 6.907755}, {0.5, -0.693147},
	}
	for _, c := range cases {
		got := ln(c.x)
		if diff := got - c.want; diff > 0.01 || diff < -0.01 {
			t.Errorf("ln(%g) = %g, want ~%g", c.x, got, c.want)
		}
	}
}
