package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
)

// Everything the program under test sees is made here from -seed alone.
// Each consumer draws from its own stream (seed, domain, chunk), so adding
// a consumer never shifts another one's inputs, and chunk boundaries are
// fixed constants so the inputs do not depend on how many cores generated
// them.

const (
	domainCorpus = iota + 1
	domainShuffle
	domainNovel
	domainStream
	domainFleet
)

// genChunk is the number of keys one generation goroutine produces from
// one derived seed.
const genChunk = 2048

// deriveSeed mixes (seed, domain, chunk) into an independent stream seed
// with splitmix64 steps.
func deriveSeed(seed int64, domain, chunk int) int64 {
	x := uint64(seed)
	for _, v := range [...]uint64{uint64(domain), uint64(chunk)} {
		x += 0x9e3779b97f4a7c15 + v
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x)
}

func newRNG(seed int64, domain, chunk int) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(seed, domain, chunk)))
}

func mulmod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a, b < m, so hi < m and Div64 cannot overflow.
	_, r := bits.Div64(hi, lo, m)
	return r
}

func powmod(b, e, m uint64) uint64 {
	r := uint64(1)
	b %= m
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = mulmod(r, b, m)
		}
		b = mulmod(b, b, m)
	}
	return r
}

var smallPrimes = [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}

// mrBases is a witness set that makes Miller–Rabin deterministic for
// every n < 2^64 (Sinclair, 2011).
var mrBases = [...]uint64{2, 325, 9375, 28178, 450775, 9780504, 1795265022}

// isPrime64 is a deterministic primality test for uint64. math/big's
// ProbablyPrime costs ~0.1 ms per 64-bit prime found here, which at two
// primes per modulus would eat the benchmark's time budget.
func isPrime64(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range smallPrimes {
		if n%p == 0 {
			return n == p
		}
	}
	d, s := n-1, 0
	for d&1 == 0 {
		d >>= 1
		s++
	}
witness:
	for _, a := range mrBases {
		a %= n
		if a == 0 {
			continue
		}
		x := powmod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		for i := 1; i < s; i++ {
			x = mulmod(x, x, n)
			if x == n-1 {
				continue witness
			}
		}
		return false
	}
	return true
}

// genPrime draws a 64-bit prime with the top bit set, so every product
// of two is a 127- or 128-bit modulus.
func genPrime(rng *rand.Rand) uint64 {
	for {
		p := rng.Uint64() | 1<<63 | 1
		if isPrime64(p) {
			return p
		}
	}
}

// key is one generated modulus with its ground truth: both primes are
// known to the generator, so no code under test is needed to say what
// the right verdict is.
type key struct {
	n    *big.Int
	hex  string
	p, q uint64
	// weak marks a corpus member planted in a shared-prime pair (p is
	// the shared prime); batch GCD must factor it and nothing else.
	weak bool
}

func newKey(p, q uint64, weak bool) key {
	n := new(big.Int).Mul(new(big.Int).SetUint64(p), new(big.Int).SetUint64(q))
	return key{n: n, hex: n.Text(16), p: p, q: q, weak: weak}
}

// factorsHex returns the two primes as the service renders them:
// lowercase hex, smaller first.
func (k *key) factorsHex() (string, string) {
	lo, hi := k.p, k.q
	if lo > hi {
		lo, hi = hi, lo
	}
	return new(big.Int).SetUint64(lo).Text(16), new(big.Int).SetUint64(hi).Text(16)
}

// genCorpus returns n distinct 128-bit semiprimes, about 1% of them
// planted in shared-prime pairs, shuffled. Chunks are generated on up
// to nproc goroutines.
func genCorpus(seed int64, n int) []key {
	keys := make([]key, n)
	chunks := (n + genChunk - 1) / genChunk
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo, hi := c*genChunk, (c+1)*genChunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(c int, out []key) {
			defer wg.Done()
			defer func() { <-sem }()
			rng := newRNG(seed, domainCorpus, c)
			planted := len(out) / 100 &^ 1
			for i := 0; i < planted; i += 2 {
				shared := genPrime(rng)
				out[i] = newKey(shared, genPrime(rng), true)
				out[i+1] = newKey(shared, genPrime(rng), true)
			}
			for i := planted; i < len(out); i++ {
				out[i] = newKey(genPrime(rng), genPrime(rng), false)
			}
		}(c, keys[lo:hi])
	}
	wg.Wait()
	newRNG(seed, domainShuffle, 0).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// genNovel returns n moduli that are not in the corpus. One in eight
// shares a prime with a clean corpus member (distinct members), so the
// service must answer shared_factor with the exact split; the rest share
// nothing and must answer clean. For a shared key p is the shared prime.
func genNovel(seed int64, n int, corpus []key) []key {
	rng := newRNG(seed, domainNovel, 0)
	var clean []int
	for i := range corpus {
		if !corpus[i].weak {
			clean = append(clean, i)
		}
	}
	rng.Shuffle(len(clean), func(i, j int) { clean[i], clean[j] = clean[j], clean[i] })
	out := make([]key, n)
	for i := range out {
		if i%8 == 0 {
			out[i] = newKey(corpus[clean[i/8]].p, genPrime(rng), true)
		} else {
			out[i] = newKey(genPrime(rng), genPrime(rng), false)
		}
	}
	return out
}

func moduliOf(keys []key) []*big.Int {
	out := make([]*big.Int, len(keys))
	for i := range keys {
		out[i] = keys[i].n
	}
	return out
}

func hexesOf(keys []key) []string {
	out := make([]string, len(keys))
	for i := range keys {
		out[i] = keys[i].hex
	}
	return out
}

// streamDigest fingerprints an input stream so two runs can be compared
// byte for byte without keeping either.
func streamDigest(hexes []string) string {
	h := sha256.New()
	for _, s := range hexes {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
