// Package entropy models the operating-system random number generator
// subsystem whose failure modes produced the weak keys studied in the
// paper (Section 2.4).
//
// The core failure: on headless, embedded and low-resource devices the OS
// RNG may not have incorporated any external entropy by the time an
// application generates a long-term key, typically on first boot. Two
// devices of the same model then start from identical RNG states. If the
// key-generation process additionally stirs in a low-entropy source (the
// current time, arriving packets) *between* generating the two RSA primes,
// different devices agree on the first prime and diverge on the second —
// producing distinct moduli that share exactly one prime factor, the
// signature batch GCD detects.
//
// Pool is a deterministic cryptographic pool (SHA-256 based, stdlib only).
// Determinism is the point: it lets the simulation reproduce the flaw
// exactly.
package entropy

import (
	"crypto/sha256"
	"encoding/binary"
	"time"
)

// Pool is a deterministic entropy pool. The zero value is NOT usable; use
// NewPool. Pool is not safe for concurrent use — each simulated device
// owns its pool, as each real device owns its kernel RNG.
type Pool struct {
	state   [sha256.Size]byte
	counter uint64
	// buf holds unread bytes of the current output block.
	buf []byte
}

// NewPool returns a pool whose initial state is derived solely from seed.
// Passing the same seed reproduces the same output stream: this models a
// device model's firmware image booting with no hardware entropy, where
// "seed" is everything deterministic about the boot (kernel image, device
// model, default configuration).
func NewPool(seed []byte) *Pool {
	p := &Pool{}
	p.state = sha256.Sum256(seed)
	return p
}

// Mix stirs data into the pool.
func (p *Pool) Mix(data []byte) {
	h := sha256.New()
	h.Write(p.state[:])
	h.Write(data)
	sum := h.Sum(nil)
	copy(p.state[:], sum)
	p.buf = nil // output stream forks at every mix
}

// MixTime stirs a timestamp truncated to the given granularity: this is
// the "current time" stirring the paper identifies as the divergence
// source between the two primes. Coarse granularity (e.g. one second)
// means many devices mixing "the same" boot-relative time keep identical
// states, while finer jitter diverges them.
func (p *Pool) MixTime(t time.Time, granularity time.Duration) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(t.UnixNano()/int64(granularity)))
	p.Mix(b[:])
}

// Read fills b from the pool's output stream and never fails: this is
// /dev/urandom semantics, which returns data whether or not the pool has
// been seeded — the "boot-time entropy hole". Output is generated in
// SHA-256 counter mode over the current state.
func (p *Pool) Read(b []byte) (int, error) {
	n := len(b)
	for len(b) > 0 {
		if len(p.buf) == 0 {
			var ctr [8]byte
			binary.BigEndian.PutUint64(ctr[:], p.counter)
			p.counter++
			h := sha256.New()
			h.Write(p.state[:])
			h.Write(ctr[:])
			p.buf = h.Sum(nil)
		}
		c := copy(b, p.buf)
		p.buf = p.buf[c:]
		b = b[c:]
	}
	return n, nil
}
