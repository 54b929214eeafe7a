package weakrsa

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/factorable/weakkeys/internal/numtheory"
)

func TestGenerateClosePrimes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	k, err := GenerateClosePrimes(rng, Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if k.N.BitLen() != 128 {
		t.Errorf("modulus %d bits", k.N.BitLen())
	}
	// The whole point: a tiny Fermat budget splits it.
	p, q := numtheory.FermatFactor(k.N, 64)
	if p == nil {
		t.Fatal("close-prime modulus resisted a 64-step Fermat ascent")
	}
	if p.Cmp(k.P) != 0 || q.Cmp(k.Q) != 0 {
		t.Errorf("Fermat split %v,%v, want %v,%v", p, q, k.P, k.Q)
	}
}

func TestGenerateSmallFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	k, err := GenerateSmallFactor(rng, Options{Bits: 128}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if k.N.BitLen() != 128 {
		t.Errorf("modulus %d bits", k.N.BitLen())
	}
	if k.P.BitLen() > SmallFactorBits {
		t.Errorf("small factor is %d bits, want <= %d", k.P.BitLen(), SmallFactorBits)
	}
	if _, err := GenerateSmallFactor(rng, Options{Bits: 128}, 1); err == nil {
		t.Error("1-bit factor accepted")
	}
	if _, err := GenerateSmallFactor(rng, Options{Bits: 128}, 65); err == nil {
		t.Error("factor wider than half the modulus accepted")
	}
}

func TestGenerateUnsafeExponent(t *testing.T) {
	for _, e := range []int{1, 2, 3, 4, 65536} {
		rng := rand.New(rand.NewSource(13))
		k, err := GenerateUnsafeExponent(rng, Options{Bits: 128}, e)
		if err != nil {
			t.Fatalf("e=%d: %v", e, err)
		}
		if k.E != e {
			t.Errorf("e=%d: key has E=%d", e, k.E)
		}
		if k.N.BitLen() != 128 {
			t.Errorf("e=%d: modulus %d bits", e, k.N.BitLen())
		}
		if new(big.Int).Mul(k.P, k.Q).Cmp(k.N) != 0 {
			t.Errorf("e=%d: N != P*Q", e)
		}
		// Odd e: D must actually invert. Even e: no inverse exists, and
		// the key ships with D = 0 — Validate must reject it.
		if e%2 == 1 {
			if err := k.Validate(); err != nil {
				t.Errorf("e=%d: %v", e, err)
			}
		} else if err := k.Validate(); err == nil {
			t.Errorf("e=%d: even-exponent key validated", e)
		}
	}
}

func TestSharedModulusGroup(t *testing.T) {
	g1, err := NewSharedModulusGroup([]byte("fw-clone-1.0"), 128, PrimeNaive)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewSharedModulusGroup([]byte("fw-clone-1.0"), 128, PrimeNaive)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Key() != g1.Key() {
		t.Error("group must return the identical key object")
	}
	if !samePublicKey(&g1.Key().PublicKey, &g2.Key().PublicKey) {
		t.Error("same seed must derive the same shared key")
	}
	if err := g1.Key().Validate(); err != nil {
		t.Error(err)
	}
	g3, err := NewSharedModulusGroup([]byte("fw-clone-2.0"), 128, PrimeNaive)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Key().N.Cmp(g3.Key().N) == 0 {
		t.Error("distinct seeds collided")
	}
}
