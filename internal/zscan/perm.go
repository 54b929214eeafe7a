package zscan

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Cycle is a full-cycle pseudorandom permutation of an address space —
// the ZMap target generator. Instead of keeping per-target state (a
// visited bitmap over the space), the scan walks the multiplicative
// cyclic group of integers modulo a prime p chosen just above the
// space: starting from a seeded element, each step multiplies by a
// fixed generator, and because the generator is a primitive root the
// walk provably visits every group element {1, ..., p-1} exactly once
// before returning to its start. Group elements map to address indexes
// by e ↦ e-1; the few elements past the space (p-1 is the first prime
// ≥ space+1, so the overshoot is a prime gap) are skipped on the fly.
//
// The payoff is the one ZMap is built on: targets arrive in
// pseudorandom order (no destination network sees a sequential sweep),
// the iterator is O(1) state (current element, multiplier), and a scan
// can be split across processes with zero coordination — see Shard.
type Cycle struct {
	space uint64 // addresses are indexes [0, space)
	p     uint64 // prime modulus; the group is {1, ..., p-1}
	g     uint64 // seeded primitive root mod p: the step multiplier
	start uint64 // seeded first group element
}

// maxSpace bounds the address space. The limit keeps the group-order
// factorization (trial division below) trivially fast; an IPv4-sized
// space (2^32) sits well inside it.
const maxSpace = uint64(1) << 40

// NewCycle builds the permutation for a space of the given size. The
// seed selects both the generator (one of the φ(p-1) primitive roots)
// and the start element, so different seeds produce different visit
// orders over the identical covered set — each sweep of a standing
// scan can re-key its permutation while keeping full-cycle coverage.
func NewCycle(space uint64, seed int64) (*Cycle, error) {
	if space == 0 {
		return nil, fmt.Errorf("zscan: empty address space")
	}
	if space > maxSpace {
		return nil, fmt.Errorf("zscan: space %d exceeds the supported maximum %d", space, maxSpace)
	}
	p, factors := groupModulus(space + 1)
	m := p - 1
	r := primitiveRoot(p, factors)
	rng := rand.New(rand.NewSource(seed))
	// r^k is a primitive root exactly when gcd(k, p-1) = 1, so a seeded
	// coprime exponent picks a uniformly random generator.
	var g uint64
	for {
		k := 1 + uint64(rng.Int63n(int64(m)))
		if gcd64(k, m) == 1 {
			g = powmod(r, k, p)
			break
		}
	}
	start := 1 + uint64(rng.Int63n(int64(m)))
	return &Cycle{space: space, p: p, g: g, start: start}, nil
}

// Shard returns the walk for shard index of count coordination-free
// partitions. The full cycle is the sequence start·g^k for
// k = 0..p-2; shard i takes the positions k ≡ i (mod count), i.e. it
// starts at start·g^i and steps by g^count. The shards are disjoint
// and their union is the whole cycle by construction — N scanner
// processes agreeing only on (space, seed, count) split the space
// exactly, with no shared state and no handshake.
func (c *Cycle) Shard(index, count int) (*Walk, error) {
	if count < 1 {
		return nil, fmt.Errorf("zscan: shard count %d < 1", count)
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("zscan: shard index %d outside [0,%d)", index, count)
	}
	m := c.p - 1
	i, n := uint64(index), uint64(count)
	var remaining uint64
	if i < m {
		// Positions k in [0, m) with k ≡ i (mod n).
		remaining = (m - i + n - 1) / n
	}
	return &Walk{
		space:     c.space,
		p:         c.p,
		cur:       mulmod(c.start, powmod(c.g, i, c.p), c.p),
		mult:      powmod(c.g, n, c.p),
		remaining: remaining,
	}, nil
}

// Walk iterates one shard of a Cycle. Its entire state is the current
// group element, the stride multiplier and a countdown — the stateless-
// scanning property: nothing grows with the space or with progress.
type Walk struct {
	space, p, cur, mult uint64
	remaining           uint64
}

// Next returns the next address index in the shard's pseudorandom
// order, or ok=false when the shard's slice of the cycle is exhausted.
// Group elements beyond the space (the prime-gap overshoot) are skipped
// internally.
func (w *Walk) Next() (uint64, bool) {
	for w.remaining > 0 {
		e := w.cur
		w.remaining--
		w.cur = mulmod(w.cur, w.mult, w.p)
		if e-1 < w.space {
			return e - 1, true
		}
	}
	return 0, false
}

// Remaining reports how many group elements the walk has yet to
// examine — an upper bound on the indexes it will still yield.
func (w *Walk) Remaining() uint64 { return w.remaining }

// groupModulus finds the smallest usable prime p ≥ n together with the
// distinct prime factors of p-1 (needed for the primitive-root test).
// The rare prime whose p-1 resists the bounded trial division is
// skipped in favour of the next one.
func groupModulus(n uint64) (uint64, []uint64) {
	if n < 3 {
		n = 3
	}
	if n%2 == 0 {
		n++
	}
	for c := n; ; c += 2 {
		if !isPrime64(c) {
			continue
		}
		if f, ok := distinctFactors(c - 1); ok {
			return c, f
		}
	}
}

// distinctFactors returns the distinct prime factors of m by trial
// division up to 2^20, requiring any leftover cofactor to be prime.
// For m ≤ 2^40 a composite cofactor would need two factors above 2^20,
// which cannot both fit — so failure is only possible near the maxSpace
// ceiling, and the caller just tries the next prime.
func distinctFactors(m uint64) ([]uint64, bool) {
	var out []uint64
	if m%2 == 0 {
		out = append(out, 2)
		for m%2 == 0 {
			m /= 2
		}
	}
	for d := uint64(3); d <= 1<<20 && d*d <= m; d += 2 {
		if m%d == 0 {
			out = append(out, d)
			for m%d == 0 {
				m /= d
			}
		}
	}
	if m > 1 {
		if !isPrime64(m) {
			return nil, false
		}
		out = append(out, m)
	}
	return out, true
}

// primitiveRoot finds the smallest generator of the full group: h is a
// primitive root iff h^((p-1)/q) ≠ 1 for every distinct prime factor q
// of p-1.
func primitiveRoot(p uint64, factors []uint64) uint64 {
	m := p - 1
	if m == 1 {
		return 1
	}
	for h := uint64(2); ; h++ {
		ok := true
		for _, q := range factors {
			if powmod(h, m/q, p) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return h
		}
	}
}

// mulmod computes a·b mod m without overflow for any m < 2^64: the
// 128-bit product's high half is always below m, so the hardware
// 128/64 division cannot trap.
func mulmod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, m)
	return rem
}

// powmod computes b^e mod m by square-and-multiply.
func powmod(b, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	r := uint64(1)
	b %= m
	for e > 0 {
		if e&1 == 1 {
			r = mulmod(r, b, m)
		}
		b = mulmod(b, b, m)
		e >>= 1
	}
	return r
}

func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mrBases is a deterministic Miller-Rabin witness set covering every
// 64-bit integer.
var mrBases = [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// isPrime64 is a deterministic primality test for uint64.
func isPrime64(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, sp := range mrBases {
		if n == sp {
			return true
		}
		if n%sp == 0 {
			return false
		}
	}
	d, s := n-1, 0
	for d&1 == 0 {
		d >>= 1
		s++
	}
witness:
	for _, a := range mrBases {
		x := powmod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		for i := 0; i < s-1; i++ {
			x = mulmod(x, x, n)
			if x == n-1 {
				continue witness
			}
		}
		return false
	}
	return true
}
