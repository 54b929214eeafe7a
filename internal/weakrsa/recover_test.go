package weakrsa

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRecoverPrivateKey(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	orig, err := GenerateKey(rng, Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverPrivateKey(&orig.PublicKey, orig.P)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		t.Errorf("recovered key invalid: %v", err)
	}
	if rec.D.Cmp(orig.D) != 0 {
		t.Error("recovered private exponent differs")
	}
	// Recovery from the OTHER factor works too.
	rec2, err := RecoverPrivateKey(&orig.PublicKey, orig.Q)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.D.Cmp(orig.D) != 0 {
		t.Error("recovery from q differs")
	}
}

func TestRecoverPrivateKeyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	k, err := GenerateKey(rng, Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*big.Int{big.NewInt(1), big.NewInt(0), k.N, big.NewInt(12345)} {
		if _, err := RecoverPrivateKey(&k.PublicKey, bad); err == nil {
			t.Errorf("factor %v accepted", bad)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	k, err := GenerateKey(rng, Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint64) bool {
		m := new(big.Int).SetUint64(raw)
		m.Mod(m, k.N)
		c, err := k.PublicKey.Encrypt(m)
		if err != nil {
			return false
		}
		p, err := k.Decrypt(c)
		if err != nil {
			return false
		}
		return p.Cmp(m) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEncryptDecryptRangeChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	k, err := GenerateKey(rng, Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.PublicKey.Encrypt(new(big.Int).Neg(big.NewInt(1))); err == nil {
		t.Error("negative message accepted")
	}
	if _, err := k.PublicKey.Encrypt(k.N); err == nil {
		t.Error("oversized message accepted")
	}
	if _, err := k.Decrypt(k.N); err == nil {
		t.Error("oversized ciphertext accepted")
	}
}
