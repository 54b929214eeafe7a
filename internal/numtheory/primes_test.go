package numtheory

import (
	"math/big"
	"slices"
	"sync"
	"testing"
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

// TestFirstPrimesConcurrent has goroutines ask for lists of different
// lengths at once, as key generation, fingerprinting and trial division
// do; under -race it fails if FirstPrimes shares state unsynchronised.
func TestFirstPrimesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	got := make([][]uint64, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = FirstPrimes(128 << i)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if want := SmallPrimes(128 << i); !slices.Equal(g, want) {
			t.Errorf("FirstPrimes(%d) differs from SmallPrimes", 128<<i)
		}
	}
	if g := FirstPrimes(OpenSSLSievePrimes + 1); !slices.Equal(g, SmallPrimes(OpenSSLSievePrimes+1)) {
		t.Errorf("FirstPrimes past the shared list differs from SmallPrimes")
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
