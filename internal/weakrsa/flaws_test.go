package weakrsa

import (
	"math/big"
	"testing"
)

// ibmCliqueKeys is the number of distinct moduli an IBM clique can
// produce: C(9,2) = 36 unordered pairs of distinct primes.
const ibmCliqueKeys = IBMCliquePrimes * (IBMCliquePrimes - 1) / 2

func testClique(t *testing.T) *Clique {
	t.Helper()
	c, err := NewClique([]byte("ibm-rsa2-fw"), IBMCliquePrimes, 128, PrimeNaive)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCliqueKeyCount(t *testing.T) {
	c := testClique(t)
	if got := c.KeyCount(); got != ibmCliqueKeys {
		t.Errorf("KeyCount = %d, want %d (C(9,2))", got, ibmCliqueKeys)
	}
	if len(c.Primes()) != IBMCliquePrimes {
		t.Errorf("prime pool size %d", len(c.Primes()))
	}
}

func TestCliqueDeterministic(t *testing.T) {
	a := testClique(t)
	b := testClique(t)
	for i := 0; i < ibmCliqueKeys; i++ {
		ka, err := a.Key(i)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := b.Key(i)
		if err != nil {
			t.Fatal(err)
		}
		if !samePublicKey(&ka.PublicKey, &kb.PublicKey) {
			t.Fatalf("clique key %d differs across instantiations", i)
		}
	}
}

func TestCliqueKeysDistinctAndValid(t *testing.T) {
	c := testClique(t)
	seen := make(map[string]bool)
	for i := 0; i < c.KeyCount(); i++ {
		k, err := c.Key(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Validate(); err != nil {
			t.Errorf("key %d invalid: %v", i, err)
		}
		s := k.N.String()
		if seen[s] {
			t.Errorf("key %d duplicates an earlier modulus", i)
		}
		seen[s] = true
	}
	if len(seen) != ibmCliqueKeys {
		t.Errorf("%d distinct moduli, want %d", len(seen), ibmCliqueKeys)
	}
}

func TestCliqueEveryPairSharesViaPool(t *testing.T) {
	// Every modulus's primes come from the 9-prime pool.
	c := testClique(t)
	pool := make(map[string]bool)
	for _, p := range c.Primes() {
		pool[p.String()] = true
	}
	for i := 0; i < c.KeyCount(); i++ {
		k, _ := c.Key(i)
		if !pool[k.P.String()] || !pool[k.Q.String()] {
			t.Errorf("key %d uses a prime outside the pool", i)
		}
	}
}

func TestCliqueIndexBounds(t *testing.T) {
	c := testClique(t)
	if _, err := c.Key(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := c.Key(c.KeyCount()); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestCliqueNeedsTwoPrimes(t *testing.T) {
	if _, err := NewClique([]byte("x"), 1, 128, PrimeNaive); err == nil {
		t.Error("single-prime clique accepted")
	}
}

func TestCorruptBits(t *testing.T) {
	n := big.NewInt(0b1010)
	c := CorruptBits(n, 0)
	if c.Int64() != 0b1011 {
		t.Errorf("flip bit 0: %b", c.Int64())
	}
	if n.Int64() != 0b1010 {
		t.Error("CorruptBits mutated input")
	}
	// Double flip restores.
	r := CorruptBits(CorruptBits(n, 2), 2)
	if r.Cmp(n) != 0 {
		t.Error("double flip should restore")
	}
	// Negative positions ignored.
	if CorruptBits(n, -5).Cmp(n) != 0 {
		t.Error("negative position should be a no-op")
	}
	// Multiple flips.
	m := CorruptBits(n, 0, 1)
	if m.Int64() != 0b1001 {
		t.Errorf("flip bits 0,1: %b", m.Int64())
	}
}
