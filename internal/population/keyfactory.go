package population

import (
	"fmt"
	"math/big"
	"math/rand"

	"github.com/factorable/weakkeys/internal/weakrsa"
)

// KeyFactory hands out RSA keys to simulated devices. It implements the
// three key-generation outcomes the ecosystem exhibits:
//
//   - healthy keys: fresh unique primes, never factorable;
//   - shared-prime keys: drawn from named pools, where devices join
//     "boot cohorts" that share their first prime (the entropy-hole
//     failure). Pool names let distinct vendors share prime material —
//     the Dell Imaging / Xerox overlap (Section 3.3.2) uses one pool;
//   - clique keys: drawn from a named tiny prime pool à la IBM, where
//     whole keys (not just primes) collide across devices.
//
// The factory is deterministic given its seed.
type KeyFactory struct {
	bits int
	rng  *rand.Rand

	cohorts map[string]*cohort
	cliques map[string]*cliqueState
	shared  map[string]*weakrsa.SharedModulusGroup
}

type cohort struct {
	prime   *big.Int
	gen     weakrsa.PrimeGen
	members int
	size    int // cohort closes when members == size
}

type cliqueState struct {
	clique *weakrsa.Clique
	draws  int
}

// NewKeyFactory returns a factory producing keys with the given modulus
// size. Sizes of 256 bits keep the full-study pipeline fast; all
// algorithms are size-agnostic.
func NewKeyFactory(seed int64, bits int) *KeyFactory {
	return &KeyFactory{
		bits:    bits,
		rng:     rand.New(rand.NewSource(seed)),
		cohorts: make(map[string]*cohort),
		cliques: make(map[string]*cliqueState),
		shared:  make(map[string]*weakrsa.SharedModulusGroup),
	}
}

// Healthy returns a key with two fresh primes. Healthy keys always use
// naive generation: their primes are never factored, so the OpenSSL
// fingerprint (which requires the private key via factoring) cannot see
// them — exactly the paper's observation that the fingerprint "only
// covers models generating vulnerable keys".
func (f *KeyFactory) Healthy() (*weakrsa.PrivateKey, error) {
	return weakrsa.GenerateKey(f.rng, weakrsa.Options{Bits: f.bits})
}

// SharedPrime returns a key whose first prime is the named pool's current
// cohort prime, generated with the pool's prime style. Cohort sizes are
// drawn uniformly from [2,6]; when a cohort fills, the next call opens a
// new one. Every key from the same cohort shares its first prime, so the
// batch GCD factors all of them once two or more exist.
func (f *KeyFactory) SharedPrime(pool string, gen weakrsa.PrimeGen) (*weakrsa.PrivateKey, error) {
	c := f.cohorts[pool]
	if c == nil || c.members >= c.size {
		prime, err := gen.Prime(f.rng, f.bits/2)
		// A prime ≡ 1 (mod e) leaves e no inverse with any partner, so
		// no key of its cohort could ever be assembled: draw another.
		e := big.NewInt(weakrsa.DefaultExponent)
		for err == nil && new(big.Int).Mod(prime, e).Int64() == 1 {
			prime, err = gen.Prime(f.rng, f.bits/2)
		}
		if err != nil {
			return nil, err
		}
		c = &cohort{prime: prime, gen: gen, size: 2 + f.rng.Intn(5)}
		f.cohorts[pool] = c
	}
	for attempt := 0; attempt < 16; attempt++ {
		q, err := c.gen.Prime(f.rng, f.bits/2)
		if err != nil {
			return nil, err
		}
		if k := weakrsa.NewKey(c.prime, q, weakrsa.DefaultExponent, f.bits); k != nil {
			c.members++
			return k, nil
		}
	}
	return nil, fmt.Errorf("population: shared-prime key generation failed for pool %q", pool)
}

// CliqueKey draws a key from the named clique (created on first use with
// weakrsa.IBMCliquePrimes primes in the given generation style). Draws
// cycle pseudo-randomly through the clique's finite key set, so whole-key
// collisions across devices are the norm — the IBM failure.
func (f *KeyFactory) CliqueKey(name string, gen weakrsa.PrimeGen) (*weakrsa.PrivateKey, error) {
	cs := f.cliques[name]
	if cs == nil {
		cl, err := weakrsa.NewClique([]byte("clique:"+name), weakrsa.IBMCliquePrimes, f.bits, gen)
		if err != nil {
			return nil, err
		}
		cs = &cliqueState{clique: cl}
		f.cliques[name] = cs
	}
	cs.draws++
	return cs.clique.Key(f.rng.Intn(cs.clique.KeyCount()))
}

// ClosePrimeKey returns a key whose primes were drawn from one narrow
// window (weakrsa.GenerateClosePrimes): Fermat-factorable, but invisible
// to batch GCD because no prime is shared with any other key.
func (f *KeyFactory) ClosePrimeKey(gen weakrsa.PrimeGen) (*weakrsa.PrivateKey, error) {
	return weakrsa.GenerateClosePrimes(f.rng, weakrsa.Options{Bits: f.bits, PrimeGen: gen})
}

// SmallFactorKey returns a key whose first prime is tiny — the
// broken-primality-test flaw; the anomaly probe's GCD splits it.
func (f *KeyFactory) SmallFactorKey(gen weakrsa.PrimeGen) (*weakrsa.PrivateKey, error) {
	return weakrsa.GenerateSmallFactor(f.rng, weakrsa.Options{Bits: f.bits, PrimeGen: gen}, 0)
}

// UnsafeExponentKey returns an honest modulus carrying the given broken
// public exponent (e = 1, even e, or a tiny unsafe e).
func (f *KeyFactory) UnsafeExponentKey(gen weakrsa.PrimeGen, e int) (*weakrsa.PrivateKey, error) {
	return weakrsa.GenerateUnsafeExponent(f.rng, weakrsa.Options{Bits: f.bits, PrimeGen: gen}, e)
}

// SharedModulusKey returns the named firmware group's single baked-in
// keypair: every device of the group serves the identical modulus.
func (f *KeyFactory) SharedModulusKey(name string, gen weakrsa.PrimeGen) (*weakrsa.PrivateKey, error) {
	g := f.shared[name]
	if g == nil {
		var err error
		g, err = weakrsa.NewSharedModulusGroup([]byte("firmware:"+name), f.bits, gen)
		if err != nil {
			return nil, err
		}
		f.shared[name] = g
	}
	return g.Key(), nil
}

// Clique exposes the named clique's generator (nil if never drawn from),
// so experiments can enumerate the ground-truth prime pool.
func (f *KeyFactory) Clique(name string) *weakrsa.Clique {
	if cs := f.cliques[name]; cs != nil {
		return cs.clique
	}
	return nil
}
