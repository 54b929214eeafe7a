// Package weakrsa generates RSA keys on top of simulated entropy sources,
// including the flawed generation patterns responsible for the weak keys
// the paper factors: boot-time entropy holes producing shared primes, the
// IBM nine-prime clique, and bit-error corruption of otherwise valid
// moduli.
//
// The generation code deliberately follows the structure of embedded-
// device firmware: primes are drawn sequentially from the OS RNG, with an
// optional low-entropy event (time stirring) between the two draws. Keys
// are honest RSA keys — small by default (512 bits, configurable) so that
// the batch GCD pipeline runs at laptop scale, as discussed in DESIGN.md.
package weakrsa

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"github.com/factorable/weakkeys/internal/numtheory"
)

// DefaultBits is the default modulus size for simulated keys. The paper's
// devices used 1024- and 2048-bit keys; 512 keeps the product trees
// laptop-sized without changing any algorithm.
const DefaultBits = 512

// DefaultExponent is the conventional RSA public exponent.
const DefaultExponent = 65537

// PrimeGen selects the prime-generation style, which determines whether
// the key matches the paper's OpenSSL fingerprint (Section 3.3.4).
type PrimeGen int

const (
	// PrimeNaive draws primes with no constraint on p-1 (non-OpenSSL
	// implementations; only ~7.5% of such primes satisfy the OpenSSL
	// property by chance).
	PrimeNaive PrimeGen = iota
	// PrimeOpenSSL sieves p-1 against the first 2048 primes, as OpenSSL
	// does.
	PrimeOpenSSL
	// PrimeSafe generates safe primes ((p-1)/2 also prime). No vulnerable
	// vendor in the paper produced exclusively safe primes; the option
	// exists to test that the fingerprint classifier would be fooled.
	PrimeSafe
)

func (g PrimeGen) String() string {
	switch g {
	case PrimeNaive:
		return "naive"
	case PrimeOpenSSL:
		return "openssl"
	case PrimeSafe:
		return "safe"
	default:
		return fmt.Sprintf("PrimeGen(%d)", int(g))
	}
}

// OpenSSLClass is the Table 5 verdict on a vendor's factored primes:
// whether they carry the fingerprint PrimeOpenSSL leaves. The fingerprint
// analysis derives it; the vendor registry records the expected one.
type OpenSSLClass int

const (
	// OpenSSLUnknown: no factored keys, so the private-key fingerprint
	// cannot be evaluated.
	OpenSSLUnknown OpenSSLClass = iota
	// OpenSSLLikely: every factored prime satisfies the OpenSSL p-1
	// property, so the implementation is likely OpenSSL.
	OpenSSLLikely
	// OpenSSLNot: a substantial fraction of factored primes violate the
	// property, so the implementation is definitely not OpenSSL.
	OpenSSLNot
)

func (c OpenSSLClass) String() string {
	switch c {
	case OpenSSLLikely:
		return "satisfies OpenSSL fingerprint"
	case OpenSSLNot:
		return "does not satisfy"
	default:
		return "unknown"
	}
}

// Prime draws one probable prime of the given bit length from r in
// this style.
func (g PrimeGen) Prime(r io.Reader, bits int) (*big.Int, error) {
	switch g {
	case PrimeNaive:
		return numtheory.GenPrimeNaive(r, bits)
	case PrimeOpenSSL:
		return numtheory.GenPrimeOpenSSL(r, bits)
	case PrimeSafe:
		return numtheory.GenSafePrime(r, bits)
	default:
		return nil, fmt.Errorf("weakrsa: unknown PrimeGen %d", int(g))
	}
}

// PublicKey is an RSA public key.
type PublicKey struct {
	N *big.Int
	E int
}

// PrivateKey is an RSA private key with its prime factorization retained,
// as the OpenSSL-fingerprint analysis needs the primes.
type PrivateKey struct {
	PublicKey
	D, P, Q *big.Int
}

// Validate checks the internal consistency of a private key: N = P*Q,
// both primes probable, and D inverting E modulo φ(N).
func (k *PrivateKey) Validate() error {
	if k.P == nil || k.Q == nil || k.N == nil || k.D == nil {
		return errors.New("weakrsa: incomplete key")
	}
	if new(big.Int).Mul(k.P, k.Q).Cmp(k.N) != 0 {
		return errors.New("weakrsa: N != P*Q")
	}
	if !k.P.ProbablyPrime(20) || !k.Q.ProbablyPrime(20) {
		return errors.New("weakrsa: non-prime factor")
	}
	phi := phi(k.P, k.Q)
	ed := new(big.Int).Mul(big.NewInt(int64(k.E)), k.D)
	ed.Mod(ed, phi)
	if ed.Cmp(bigOne) != 0 {
		return errors.New("weakrsa: D does not invert E")
	}
	return nil
}

var bigOne = big.NewInt(1)

func phi(p, q *big.Int) *big.Int {
	pm := new(big.Int).Sub(p, bigOne)
	qm := new(big.Int).Sub(q, bigOne)
	return pm.Mul(pm, qm)
}

// Options configures key generation.
type Options struct {
	// Bits is the modulus size; DefaultBits if zero.
	Bits int
	// PrimeGen selects the prime-generation style.
	PrimeGen PrimeGen
	// MidEvent, if non-nil, is invoked after the first prime has been
	// generated and before the second. Flawed firmware effectively stirs
	// a low-entropy value (boot clock, packet count) here: devices with
	// identical RNG state share the first prime and diverge afterwards —
	// the exact mechanism in Section 2.4. The callback typically calls
	// Pool.MixTime on the pool also serving as Rand.
	MidEvent func()
}

// withDefaults fills in the default modulus size and rejects one no
// key can have: below 32 bits, or odd.
func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Bits == 0 {
		out.Bits = DefaultBits
	}
	if out.Bits < 32 || out.Bits%2 != 0 {
		return out, fmt.Errorf("weakrsa: invalid modulus size %d", out.Bits)
	}
	return out, nil
}

// NewKey assembles the RSA key with primes p and q and public exponent
// e, or returns nil when the pair makes none and must be redrawn: p = q,
// e has no inverse modulo φ(pq), or, for bits > 0, pq is not bits wide.
func NewKey(p, q *big.Int, e, bits int) *PrivateKey {
	if p.Cmp(q) == 0 {
		return nil
	}
	n := new(big.Int).Mul(p, q)
	d := new(big.Int).ModInverse(big.NewInt(int64(e)), phi(p, q))
	if d == nil || bits > 0 && n.BitLen() != bits {
		return nil
	}
	return &PrivateKey{PublicKey: PublicKey{N: n, E: e}, D: d, P: p, Q: q}
}

// redraw returns the first bits-wide key NewKey assembles, with
// DefaultExponent, from the primes draw returns, drawing again up to 64
// times.
func redraw(bits int, draw func() (p, q *big.Int, err error)) (*PrivateKey, error) {
	for attempt := 0; attempt < 64; attempt++ {
		p, q, err := draw()
		if err != nil {
			return nil, err
		}
		if k := NewKey(p, q, DefaultExponent, bits); k != nil {
			return k, nil
		}
	}
	return nil, errors.New("weakrsa: exhausted generation attempts")
}

// GenerateKey produces an RSA key with public exponent DefaultExponent
// from the entropy source rand using the flawed-firmware structure
// described in Options. The caller chooses how broken rand is; the
// function itself is a correct RSA generator.
func GenerateKey(rand io.Reader, opts Options) (*PrivateKey, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return redraw(o.Bits, func() (p, q *big.Int, err error) {
		if p, err = o.PrimeGen.Prime(rand, o.Bits/2); err != nil {
			return nil, nil, err
		}
		if o.MidEvent != nil {
			o.MidEvent()
		}
		q, err = o.PrimeGen.Prime(rand, o.Bits/2)
		return p, q, err
	})
}
