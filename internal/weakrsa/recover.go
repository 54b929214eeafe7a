package weakrsa

import (
	"errors"
	"math/big"

	"github.com/factorable/weakkeys/internal/batchgcd"
)

// RecoverPrivateKey reconstructs a full private key from a public key and
// one prime factor — the attacker's step after batch GCD hands back a
// shared prime (Section 2.3: "an attacker who can find such a pair can
// easily factor both of them").
func RecoverPrivateKey(pub *PublicKey, factor *big.Int) (*PrivateKey, error) {
	p, q, err := batchgcd.SplitModulus(pub.N, factor)
	if err != nil {
		return nil, err
	}
	d := new(big.Int).ModInverse(big.NewInt(int64(pub.E)), phi(p, q))
	if d == nil {
		return nil, errors.New("weakrsa: e is not invertible modulo phi(N)")
	}
	return &PrivateKey{
		PublicKey: PublicKey{N: new(big.Int).Set(pub.N), E: pub.E},
		D:         d, P: p, Q: q,
	}, nil
}

// Encrypt performs textbook RSA encryption of m (which must lie in
// [0, N)). The study never needs padding: it encrypts session-key-sized
// test values to demonstrate compromise.
func (k *PublicKey) Encrypt(m *big.Int) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(k.N) >= 0 {
		return nil, errors.New("weakrsa: message out of range")
	}
	return new(big.Int).Exp(m, big.NewInt(int64(k.E)), k.N), nil
}

// Decrypt inverts Encrypt using the private exponent.
func (k *PrivateKey) Decrypt(c *big.Int) (*big.Int, error) {
	if c.Sign() < 0 || c.Cmp(k.N) >= 0 {
		return nil, errors.New("weakrsa: ciphertext out of range")
	}
	return new(big.Int).Exp(c, k.D, k.N), nil
}
