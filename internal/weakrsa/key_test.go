package weakrsa

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/factorable/weakkeys/internal/entropy"
	"github.com/factorable/weakkeys/internal/numtheory"
)

// samePublicKey reports whether two public keys are identical.
func samePublicKey(a, b *PublicKey) bool { return a.E == b.E && a.N.Cmp(b.N) == 0 }

func TestGenerateKeyValid(t *testing.T) {
	for _, gen := range []PrimeGen{PrimeNaive, PrimeOpenSSL} {
		rng := rand.New(rand.NewSource(1))
		k, err := GenerateKey(rng, Options{Bits: 128, PrimeGen: gen})
		if err != nil {
			t.Fatalf("%v: %v", gen, err)
		}
		if err := k.Validate(); err != nil {
			t.Errorf("%v: %v", gen, err)
		}
		if k.N.BitLen() != 128 {
			t.Errorf("%v: modulus %d bits", gen, k.N.BitLen())
		}
		if k.E != DefaultExponent {
			t.Errorf("%v: E = %d", gen, k.E)
		}
	}
}

func TestGenerateKeySafePrimes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k, err := GenerateKey(rng, Options{Bits: 96, PrimeGen: PrimeSafe})
	if err != nil {
		t.Fatal(err)
	}
	if !numtheory.IsSafePrime(k.P) || !numtheory.IsSafePrime(k.Q) {
		t.Error("PrimeSafe must produce safe primes")
	}
}

func TestGenerateKeyRSARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k, err := GenerateKey(rng, Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	msg := big.NewInt(0xC0FFEE)
	ct := new(big.Int).Exp(msg, big.NewInt(int64(k.E)), k.N)
	pt := new(big.Int).Exp(ct, k.D, k.N)
	if pt.Cmp(msg) != 0 {
		t.Error("RSA decryption did not invert encryption")
	}
}

func TestGenerateKeyInvalidOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := GenerateKey(rng, Options{Bits: 31}); err == nil {
		t.Error("odd bit size should be rejected")
	}
	if _, err := GenerateKey(rng, Options{Bits: 16}); err == nil {
		t.Error("tiny bit size should be rejected")
	}
	if _, err := GenerateKey(rng, Options{Bits: 128, PrimeGen: PrimeGen(42)}); err == nil {
		t.Error("unknown PrimeGen should be rejected")
	}
}

func TestGenerateKeyDefaults(t *testing.T) {
	o, err := (&Options{}).withDefaults()
	if err != nil || o.Bits != DefaultBits {
		t.Errorf("defaults: %+v", o)
	}
}

func TestIdenticalEntropyIdenticalKeys(t *testing.T) {
	a := entropy.NewPool([]byte("fw-1.0"))
	b := entropy.NewPool([]byte("fw-1.0"))
	ka, err := GenerateKey(a, Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := GenerateKey(b, Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !samePublicKey(&ka.PublicKey, &kb.PublicKey) {
		t.Error("identical entropy must reproduce the identical key")
	}
}

func TestMidEventSharesOnlyFirstPrime(t *testing.T) {
	ka, kb, err := SharedPrimePair([]byte("fw-1.0"), 128, PrimeNaive,
		[]byte("boot-ms-104"), []byte("boot-ms-887"))
	if err != nil {
		t.Fatal(err)
	}
	if ka.P.Cmp(kb.P) != 0 {
		t.Error("first primes must collide (identical pre-event streams)")
	}
	if ka.Q.Cmp(kb.Q) == 0 {
		t.Error("second primes must diverge after the mid-event")
	}
	if ka.N.Cmp(kb.N) == 0 {
		t.Error("moduli must be distinct")
	}
	// And the shared prime is exactly gcd(Na, Nb) — the attack.
	g := new(big.Int).GCD(nil, nil, ka.N, kb.N)
	if g.Cmp(ka.P) != 0 {
		t.Errorf("gcd(Na,Nb) = %v, want shared prime %v", g, ka.P)
	}
}

func TestMidEventSameEventSameKey(t *testing.T) {
	ka, kb, err := SharedPrimePair([]byte("fw"), 128, PrimeNaive,
		[]byte("boot-s-1"), []byte("boot-s-1"))
	if err != nil {
		t.Fatal(err)
	}
	if !samePublicKey(&ka.PublicKey, &kb.PublicKey) {
		t.Error("identical mid-events must reproduce the whole key (full collision)")
	}
}

func TestValidateRejectsTampering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k, err := GenerateKey(rng, Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	bad := *k
	bad.N = new(big.Int).Add(k.N, big.NewInt(2))
	if bad.Validate() == nil {
		t.Error("tampered N accepted")
	}
	bad2 := *k
	bad2.D = new(big.Int).Add(k.D, big.NewInt(1))
	if bad2.Validate() == nil {
		t.Error("tampered D accepted")
	}
	bad3 := *k
	bad3.P = nil
	if bad3.Validate() == nil {
		t.Error("nil P accepted")
	}
}

func TestPrimeGenString(t *testing.T) {
	if PrimeNaive.String() != "naive" || PrimeOpenSSL.String() != "openssl" ||
		PrimeSafe.String() != "safe" {
		t.Error("PrimeGen.String labels wrong")
	}
	if PrimeGen(9).String() == "" {
		t.Error("unknown PrimeGen should still stringify")
	}
}

func TestOpenSSLKeysSatisfyFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k, err := GenerateKey(rng, Options{Bits: 128, PrimeGen: PrimeOpenSSL})
	if err != nil {
		t.Fatal(err)
	}
	if !numtheory.SatisfiesOpenSSLProperty(k.P) || !numtheory.SatisfiesOpenSSLProperty(k.Q) {
		t.Error("OpenSSL-style key must satisfy the fingerprint on both primes")
	}
}

func TestProductionKeySizes(t *testing.T) {
	// The paper's devices used 1024- and 2048-bit keys; the simulation
	// defaults to smaller moduli for speed, but every algorithm must
	// hold at production sizes. Generate a 1024-bit shared-prime pair
	// and break it with one gcd.
	if testing.Short() {
		t.Skip("1024-bit generation in -short mode")
	}
	ka, kb, err := SharedPrimePair([]byte("prod-fw"), 1024, PrimeNaive,
		[]byte("boot-a"), []byte("boot-b"))
	if err != nil {
		t.Fatal(err)
	}
	if ka.N.BitLen() != 1024 || kb.N.BitLen() != 1024 {
		t.Fatalf("bit lengths: %d, %d", ka.N.BitLen(), kb.N.BitLen())
	}
	if err := ka.Validate(); err != nil {
		t.Fatal(err)
	}
	g := new(big.Int).GCD(nil, nil, ka.N, kb.N)
	if g.BitLen() != 512 {
		t.Fatalf("shared prime of %d bits, want 512", g.BitLen())
	}
	rec, err := RecoverPrivateKey(&ka.PublicKey, g)
	if err != nil {
		t.Fatal(err)
	}
	if rec.D.Cmp(ka.D) != 0 {
		t.Error("1024-bit recovery mismatch")
	}
}
