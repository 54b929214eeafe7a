package weakrsa

import (
	"errors"
	"fmt"
	"math/big"

	"github.com/factorable/weakkeys/internal/entropy"
)

// IBMCliquePrimes is the number of primes in the IBM Remote Supervisor
// Adapter II / BladeCenter Management Module prime pool: a bug in their
// prime-generation code left only nine possible primes, yielding 36
// possible public keys (Section 3.3.2).
const IBMCliquePrimes = 9

// Clique deterministically derives a fixed pool of primes from a firmware
// identity and hands out moduli built from pairs of them. It models the
// IBM implementation where every device in the field shares the same tiny
// prime pool.
type Clique struct {
	primes []*big.Int
	bits   int
	e      int
}

// NewClique derives nPrimes primes of half the given modulus size from the
// firmware seed, using the given prime-generation style (the real IBM
// implementation's primes satisfy the OpenSSL fingerprint, Table 5). The
// same seed always yields the same pool — every "device" shares it, which
// is the bug.
func NewClique(firmwareSeed []byte, nPrimes, modulusBits int, gen PrimeGen) (*Clique, error) {
	if nPrimes < 2 {
		return nil, errors.New("weakrsa: clique needs at least two primes")
	}
	pool := entropy.NewPool(firmwareSeed)
	seen := make(map[string]bool, nPrimes)
	primes := make([]*big.Int, 0, nPrimes)
	for len(primes) < nPrimes {
		p, err := gen.Prime(pool, modulusBits/2)
		if err != nil {
			return nil, err
		}
		if seen[p.String()] {
			continue
		}
		seen[p.String()] = true
		primes = append(primes, p)
	}
	return &Clique{primes: primes, bits: modulusBits, e: DefaultExponent}, nil
}

// Primes returns the shared prime pool. Shared storage; do not modify.
func (c *Clique) Primes() []*big.Int { return c.primes }

// KeyCount returns the number of distinct moduli the clique can produce.
func (c *Clique) KeyCount() int { return len(c.primes) * (len(c.primes) - 1) / 2 }

// Key returns the key for the unordered pair selected by index in
// [0, KeyCount). A device "chooses" its index from its (weak) RNG, so
// devices collide on whole keys, not just primes.
func (c *Clique) Key(index int) (*PrivateKey, error) {
	total := c.KeyCount()
	if index < 0 || index >= total {
		return nil, fmt.Errorf("weakrsa: clique index %d out of range [0,%d)", index, total)
	}
	// Enumerate pairs (i,j) with i<j in lexicographic order.
	i, j := 0, 1
	for k := 0; k < index; k++ {
		j++
		if j == len(c.primes) {
			i++
			j = i + 1
		}
	}
	k := NewKey(c.primes[i], c.primes[j], c.e, 0)
	if k == nil {
		return nil, fmt.Errorf("weakrsa: clique pair %d has gcd(e,phi)!=1", index)
	}
	return k, nil
}

// CorruptBits returns a copy of n with the given bit positions flipped,
// modeling the memory/wire/storage bit errors behind the 107 non-well-
// formed "moduli" in the paper's dataset (Section 3.3.5). Positions are
// bit indices from the least-significant bit; out-of-range positions
// extend the number.
func CorruptBits(n *big.Int, positions ...int) *big.Int {
	out := new(big.Int).Set(n)
	for _, pos := range positions {
		if pos < 0 {
			continue
		}
		out.SetBit(out, pos, out.Bit(pos)^1)
	}
	return out
}

// SharedPrimePair generates two keys the way two same-model devices with
// identical boot states do: both pools start identical, each key draws its
// first prime from the stream (identical), then each device stirs its own
// slightly-different timestamp, so the second primes diverge. It returns
// the two keys, which share P but not Q — the canonical weak-key pair.
// The helper exists for tests and examples; the population simulator
// drives the same machinery per-device.
func SharedPrimePair(firmwareSeed []byte, bits int, gen PrimeGen, divergeA, divergeB []byte) (*PrivateKey, *PrivateKey, error) {
	mk := func(diverge []byte) (*PrivateKey, error) {
		pool := entropy.NewPool(firmwareSeed)
		return GenerateKey(pool, Options{
			Bits:     bits,
			PrimeGen: gen,
			MidEvent: func() { pool.Mix(diverge) },
		})
	}
	a, err := mk(divergeA)
	if err != nil {
		return nil, nil, err
	}
	b, err := mk(divergeB)
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}
