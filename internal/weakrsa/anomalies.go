package weakrsa

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"github.com/factorable/weakkeys/internal/entropy"
	"github.com/factorable/weakkeys/internal/numtheory"
)

// This file models the anomalous-key generation flaws the Tor-relays
// study ("Major key alert!") and "When RSA Fails" describe — key classes
// that batch GCD alone never catches because no prime is shared with any
// other key:
//
//   - close primes:   q is chosen as the next prime after p (or p plus a
//     small stir), so Fermat's method splits N in a handful of steps;
//   - small factors:  a broken primality test accepts a tiny "prime", so
//     a GCD with the product of the small primes splits N;
//   - unsafe exponents: e = 1, even e, or a tiny e emitted by a confused
//     generator;
//   - shared moduli:  the whole fleet ships one hardcoded keypair, so
//     the same N appears under every device identity.
//
// The constructors draw their primes themselves instead of calling
// GenerateKey, which draws two honest primes; all but the unsafe
// exponent assemble through NewKey as it does.

// GenerateClosePrimes draws p honestly and then takes q as the next
// prime above p plus a small even stir drawn from rand — the "When RSA
// Fails" prime-selection flaw where both primes come from one narrow
// window. |p-q| stays far below N^(1/4), so the modulus falls to a
// Fermat ascent of a handful of steps.
func GenerateClosePrimes(rand io.Reader, opts Options) (*PrivateKey, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return redraw(o.Bits, func() (p, q *big.Int, err error) {
		if p, err = o.PrimeGen.Prime(rand, o.Bits/2); err != nil {
			return nil, nil, err
		}
		var stir [2]byte
		if _, err := io.ReadFull(rand, stir[:]); err != nil {
			return nil, nil, err
		}
		gap := int64(stir[0])<<8 | int64(stir[1])
		return p, numtheory.NextPrime(new(big.Int).Add(p, big.NewInt(2+2*gap))), nil
	})
}

// SmallFactorBits is the default size of the bogus "prime" in
// GenerateSmallFactor: far below the 2²⁰ bound of the anomaly probe's
// small-factor step, the way real broken-primality-test keys carried
// factors of a few hundred.
const SmallFactorBits = 10

// GenerateSmallFactor produces a key whose P is a tiny prime
// (factorBits wide, SmallFactorBits if zero) — the broken-primality-test
// flaw, where the generator's Miller-Rabin was short-circuited and a
// small or composite candidate shipped as a prime. The modulus still has
// the requested bit length; the anomaly probe's GCD with the product of
// the primes below 2²⁰ splits it.
func GenerateSmallFactor(rand io.Reader, opts Options, factorBits int) (*PrivateKey, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if factorBits == 0 {
		factorBits = SmallFactorBits
	}
	if factorBits < 2 || factorBits > o.Bits/2 {
		return nil, fmt.Errorf("weakrsa: invalid small-factor size %d", factorBits)
	}
	return redraw(o.Bits, func() (p, q *big.Int, err error) {
		if p, err = smallPrime(rand, factorBits); err != nil {
			return nil, nil, err
		}
		q, err = o.PrimeGen.Prime(rand, o.Bits-factorBits)
		return p, q, err
	})
}

// smallPrime draws a prime of roughly the requested bit length, below the
// 16-bit floor numtheory's generators enforce: a random value of that
// magnitude bumped to the next prime.
func smallPrime(rand io.Reader, bits int) (*big.Int, error) {
	buf := make([]byte, (bits+7)/8)
	if _, err := io.ReadFull(rand, buf); err != nil {
		return nil, err
	}
	p := new(big.Int).SetBytes(buf)
	mask := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	mask.Sub(mask, big.NewInt(1))
	p.And(p, mask)
	p.SetBit(p, bits-1, 1)
	p = numtheory.NextPrime(p)
	if p.BitLen() > bits {
		// NextPrime crossed the power of two; 2^bits - small is prime-free
		// rarely enough that stepping down is simpler than redrawing.
		p = numtheory.NextPrime(new(big.Int).Lsh(big.NewInt(1), uint(bits-1)))
	}
	return p, nil
}

// GenerateUnsafeExponent produces an honestly-built modulus carrying a
// broken public exponent — e = 1 (identity "encryption"), an even e (no
// inverse mod φ(N) exists), or a tiny unsafe e. GenerateKey only ever
// uses DefaultExponent, which is why the flawed-device model assembles
// the key directly. When e has no inverse, D is zero and Validate fails;
// such keys still serve certificates in the field, which is the point.
func GenerateUnsafeExponent(rand io.Reader, opts Options, e int) (*PrivateKey, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	for attempt := 0; attempt < 64; attempt++ {
		p, err := o.PrimeGen.Prime(rand, o.Bits/2)
		if err != nil {
			return nil, err
		}
		q, err := o.PrimeGen.Prime(rand, o.Bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != o.Bits {
			continue
		}
		d := new(big.Int).ModInverse(big.NewInt(int64(e)), phi(p, q))
		if d == nil {
			if e > 0 && e%2 == 1 {
				// Odd e can invert for other primes (e.g. 3 | φ here);
				// redraw so the tiny-but-workable exponent stays workable.
				continue
			}
			d = new(big.Int) // no inverse exists: the key can sign nothing, and ships anyway
		}
		return &PrivateKey{PublicKey: PublicKey{N: n, E: e}, D: d, P: p, Q: q}, nil
	}
	return nil, errors.New("weakrsa: exhausted unsafe-exponent generation attempts")
}

// SharedModulusGroup hands every caller the identical keypair, derived
// deterministically from a firmware seed: the cloned-image flaw, where
// the key was baked into the firmware (or a VM template) and every
// device in the fleet serves the same modulus under its own identity.
type SharedModulusGroup struct {
	key *PrivateKey
}

// NewSharedModulusGroup derives the group's single keypair from the
// firmware seed. The same seed always yields the same key — that is the
// bug being modeled.
func NewSharedModulusGroup(firmwareSeed []byte, bits int, gen PrimeGen) (*SharedModulusGroup, error) {
	pool := entropy.NewPool(firmwareSeed)
	key, err := GenerateKey(pool, Options{Bits: bits, PrimeGen: gen})
	if err != nil {
		return nil, err
	}
	return &SharedModulusGroup{key: key}, nil
}

// Key returns the group's shared keypair — the same *PrivateKey for
// every device. Shared storage; do not modify.
func (g *SharedModulusGroup) Key() *PrivateKey { return g.key }
