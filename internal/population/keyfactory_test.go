package population

import (
	"math/big"
	"testing"

	"github.com/factorable/weakkeys/internal/numtheory"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

func TestHealthyKeysDistinct(t *testing.T) {
	f := NewKeyFactory(1, 128)
	seen := make(map[string]bool)
	var primes []*big.Int
	for i := 0; i < 10; i++ {
		k, err := f.Healthy()
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Validate(); err != nil {
			t.Fatal(err)
		}
		if k.N.BitLen() != 128 {
			t.Errorf("modulus %d bits", k.N.BitLen())
		}
		if seen[k.N.String()] {
			t.Error("healthy keys must be distinct")
		}
		seen[k.N.String()] = true
		primes = append(primes, k.P, k.Q)
	}
	// No shared primes anywhere.
	for i := range primes {
		for j := i + 1; j < len(primes); j++ {
			if primes[i].Cmp(primes[j]) == 0 {
				t.Fatal("healthy primes collided")
			}
		}
	}
}

func TestSharedPrimeCohorts(t *testing.T) {
	f := NewKeyFactory(2, 128)
	var keys []*weakrsa.PrivateKey
	for i := 0; i < 12; i++ {
		k, err := f.SharedPrime("VendorA", weakrsa.PrimeNaive)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	// Count distinct first primes: cohort sizes are 2..6, so 12 keys
	// need between 2 and 6 cohorts.
	firsts := make(map[string]int)
	for _, k := range keys {
		firsts[k.P.String()]++
	}
	if len(firsts) < 2 || len(firsts) > 6 {
		t.Errorf("cohort count = %d for 12 keys", len(firsts))
	}
	for p, n := range firsts {
		if n > 6 {
			t.Errorf("cohort %s... has %d members, max 6", p[:8], n)
		}
	}
	// All moduli distinct, and every cohort-mate pair shares exactly the
	// first prime (gcd = P).
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[i].N.Cmp(keys[j].N) == 0 {
				t.Fatal("duplicate shared-prime modulus")
			}
			g := new(big.Int).GCD(nil, nil, keys[i].N, keys[j].N)
			if keys[i].P.Cmp(keys[j].P) == 0 {
				if g.Cmp(keys[i].P) != 0 {
					t.Error("cohort mates should share exactly P")
				}
			} else if g.Cmp(big.NewInt(1)) != 0 {
				t.Error("non-mates should be coprime")
			}
		}
	}
}

func TestSharedPrimePoolsIndependent(t *testing.T) {
	f := NewKeyFactory(3, 128)
	a, err := f.SharedPrime("A", weakrsa.PrimeNaive)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.SharedPrime("B", weakrsa.PrimeNaive)
	if err != nil {
		t.Fatal(err)
	}
	if a.P.Cmp(b.P) == 0 {
		t.Error("different pools must not share primes")
	}
}

func TestSharedPrimeCrossVendorPool(t *testing.T) {
	// The Dell/Xerox overlap: two callers naming the same pool share
	// prime material.
	f := NewKeyFactory(4, 128)
	a, _ := f.SharedPrime("Xerox", weakrsa.PrimeNaive)
	b, _ := f.SharedPrime("Xerox", weakrsa.PrimeNaive)
	if a.P.Cmp(b.P) != 0 {
		t.Error("same pool should share the cohort prime")
	}
}

func TestSharedPrimeStyleRespected(t *testing.T) {
	f := NewKeyFactory(5, 128)
	k, err := f.SharedPrime("ssl-vendor", weakrsa.PrimeOpenSSL)
	if err != nil {
		t.Fatal(err)
	}
	if !numtheory.SatisfiesOpenSSLProperty(k.P) || !numtheory.SatisfiesOpenSSLProperty(k.Q) {
		t.Error("OpenSSL-style pool must satisfy the fingerprint")
	}
}

func TestCliqueKeyBounded(t *testing.T) {
	f := NewKeyFactory(6, 128)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		k, err := f.CliqueKey("IBM", weakrsa.PrimeNaive)
		if err != nil {
			t.Fatal(err)
		}
		seen[k.N.String()] = true
	}
	if maxKeys := weakrsa.IBMCliquePrimes * (weakrsa.IBMCliquePrimes - 1) / 2; len(seen) > maxKeys {
		t.Errorf("%d distinct clique keys, max %d", len(seen), maxKeys)
	}
	if len(seen) < 10 {
		t.Errorf("only %d distinct clique keys from 100 draws", len(seen))
	}
	if f.Clique("IBM") == nil {
		t.Error("clique should be exposed after first draw")
	}
	if f.Clique("nope") != nil {
		t.Error("unknown clique should be nil")
	}
}

func TestFactoryDeterminism(t *testing.T) {
	a, b := NewKeyFactory(7, 128), NewKeyFactory(7, 128)
	ka, err := a.Healthy()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Healthy()
	if err != nil {
		t.Fatal(err)
	}
	if ka.N.Cmp(kb.N) != 0 {
		t.Error("same seed must reproduce the same keys")
	}
}

// TestSharedPrimeSkipsUnusableCohortPrime: with this seed, the cohort
// prime first drawn for the 692nd key is ≡ 1 mod 65537, so no partner
// prime can make a key with it. The factory must draw another cohort
// prime rather than fail every key of the cohort.
func TestSharedPrimeSkipsUnusableCohortPrime(t *testing.T) {
	f := NewKeyFactory(-6916443620120989001, 128)
	e := big.NewInt(weakrsa.DefaultExponent)
	for i := 0; i < 700; i++ {
		k, err := f.SharedPrime("fleet", weakrsa.PrimeOpenSSL)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if new(big.Int).Mod(k.P, e).Int64() == 1 {
			t.Fatalf("key %d: cohort prime ≡ 1 mod e", i)
		}
	}
}
