package population

import (
	"fmt"
	"math/big"
	"slices"
	"strings"
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

// factoryVectors pins what one KeyFactory hands out, call by call, in
// every mode at 128 bits: P, Q, E and D of each key, then the factory
// stream's next value, so a change to what a mode draws, or in which
// order, shows here.
var factoryVectors = []string{
	"e7559bb27d0cc227 d0659790bafc92b5 65537 348c03501a4fdced188e6c63c78649c9",
	"f828e33a4b6463a5 d4a90f701590df89 65537 a66b6bc96616fa1f65e4ab96b5ba6e61",
	"f828e33a4b6463a5 d719a5ec11719013 65537 59e3c5f99eae8a1895eeb1b331fa3e69",
	"e0cbae9a1250882d fb775a4770f9ee27 65537 75d5bb2e0ab4bb16fb96054a5a76f969",
	"c673c40e31ad4bc7 fa85b1b4a114cd25 65537 9457015ef8e45d72768130e5e983c449",
	"d0924ef271166bab d0924ef27117c18b 65537 43a202424bc52aebbba747bf09b8b211",
	"3c7 398a92218cac6782f227934336de57 65537 a724ec2c18ecad9c67fb768cb6ba0d49",
	"e85cfdbecf80dc1b f065b54fe0582fe9 3 9177aa18d45d882b75c59548bec0290b",
	"fc55688fe9620ea5 fd0a7d9c669363c9 65537 90df8b782211aedefc25a4cf23cb6a61",
	"da8fc2400d1b0a0d e44a1e28eeb59471 65537 bf71e2ea93c27a9231d401767b860b81",
	"next=5783236482869043691",
}

func TestFactoryVectors(t *testing.T) {
	f := NewKeyFactory(50, 128)
	calls := []func() (*weakrsa.PrivateKey, error){
		f.Healthy,
		func() (*weakrsa.PrivateKey, error) { return f.SharedPrime("A", weakrsa.PrimeNaive) },
		func() (*weakrsa.PrivateKey, error) { return f.SharedPrime("A", weakrsa.PrimeNaive) },
		func() (*weakrsa.PrivateKey, error) { return f.SharedPrime("B", weakrsa.PrimeOpenSSL) },
		func() (*weakrsa.PrivateKey, error) { return f.CliqueKey("IBM", weakrsa.PrimeOpenSSL) },
		func() (*weakrsa.PrivateKey, error) { return f.ClosePrimeKey(weakrsa.PrimeNaive) },
		func() (*weakrsa.PrivateKey, error) { return f.SmallFactorKey(weakrsa.PrimeNaive) },
		func() (*weakrsa.PrivateKey, error) { return f.UnsafeExponentKey(weakrsa.PrimeOpenSSL, 3) },
		func() (*weakrsa.PrivateKey, error) { return f.SharedModulusKey("clone", weakrsa.PrimeNaive) },
		f.Healthy,
	}
	var got []string
	for i, call := range calls {
		k, err := call()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		got = append(got, fmt.Sprintf("%x %x %d %x", k.P, k.Q, k.E, k.D))
	}
	got = append(got, fmt.Sprintf("next=%d", f.rng.Int63()))
	if !slices.Equal(got, factoryVectors) {
		t.Errorf("factory keys:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(factoryVectors, "\n"))
	}
}
