package keycheck

import (
	"errors"
	"fmt"
	"math/big"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/telemetry"
)

func TestVerdictCacheLRU(t *testing.T) {
	c := newVerdictCache(2)
	va := Verdict{Status: StatusClean, ModulusBits: 1}
	vb := Verdict{Status: StatusClean, ModulusBits: 2}
	vc := Verdict{Status: StatusFactored, ModulusBits: 3}

	c.put("a", 1, va)
	c.put("b", 1, vb)
	c.put("c", 1, vc) // evicts a, the least recently used
	if _, ok := c.get("a", 1); ok {
		t.Error("a survived eviction")
	}
	if v, ok := c.get("b", 1); !ok || v.ModulusBits != 2 {
		t.Error("b lost")
	}
	c.put("d", 1, va) // b was just touched, so c is evicted
	if _, ok := c.get("c", 1); ok {
		t.Error("c survived eviction after b was touched")
	}
	if _, ok := c.get("b", 1); !ok {
		t.Error("recently used b evicted")
	}

	c.put("b", 1, vc) // update in place, no growth
	if v, _ := c.get("b", 1); v.Status != StatusFactored {
		t.Error("update lost")
	}
	if c.len() != 2 {
		t.Errorf("len %d, want 2", c.len())
	}
}

func TestVerdictCacheNil(t *testing.T) {
	for _, c := range []*verdictCache{newVerdictCache(0), newVerdictCache(-1)} {
		c.put("k", 1, Verdict{})
		if _, ok := c.get("k", 1); ok {
			t.Error("nil cache hit")
		}
		if c.len() != 0 {
			t.Error("nil cache has length")
		}
	}
}

// TestVerdictCacheGeneration: an entry tagged with one snapshot
// generation misses — and is evicted — when probed under another.
func TestVerdictCacheGeneration(t *testing.T) {
	c := newVerdictCache(4)
	c.put("k", 1, Verdict{Status: StatusFactored})
	if v, ok := c.get("k", 1); !ok || v.Status != StatusFactored {
		t.Fatal("same-generation hit lost")
	}
	if _, ok := c.get("k", 2); ok {
		t.Fatal("cross-generation entry served")
	}
	if c.len() != 0 {
		t.Errorf("stale entry not evicted: len %d", c.len())
	}
	// Re-put under the new generation wins.
	c.put("k", 2, Verdict{Status: StatusClean})
	if v, ok := c.get("k", 2); !ok || v.Status != StatusClean {
		t.Error("new-generation entry lost")
	}
}

func TestRateLimiterBurstAndRefill(t *testing.T) {
	l := NewRateLimiter(2, 3) // 2 tokens/sec, burst 3
	now := time.Unix(1_000_000, 0)
	l.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !l.Allow("c") {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if l.Allow("c") {
		t.Fatal("allowed past burst")
	}
	now = now.Add(500 * time.Millisecond) // refills one token
	if !l.Allow("c") {
		t.Error("denied after refill")
	}
	if l.Allow("c") {
		t.Error("allowed beyond refilled tokens")
	}
	now = now.Add(time.Hour) // refill caps at burst, not an hour of tokens
	for i := 0; i < 3; i++ {
		if !l.Allow("c") {
			t.Fatalf("post-idle request %d denied", i)
		}
	}
	if l.Allow("c") {
		t.Error("idle client accumulated more than burst")
	}
}

func TestRateLimiterNil(t *testing.T) {
	var l *RateLimiter
	if !l.Allow("anyone") || l.Clients() != 0 {
		t.Error("nil limiter must allow everything")
	}
	if NewRateLimiter(0, 5) != nil {
		t.Error("rate 0 should disable the limiter")
	}
}

// TestRateLimiterSweep: when the tracked-client map is full, buckets
// that have refilled to burst (idle clients) are evicted; an actively
// throttled client's bucket survives.
func TestRateLimiterSweep(t *testing.T) {
	l := NewRateLimiter(1, 2)
	now := time.Unix(2_000_000, 0)
	l.now = func() time.Time { return now }
	l.max = 2

	l.Allow("active")
	l.Allow("active") // exhausted: 0 tokens
	l.Allow("idle")
	now = now.Add(time.Hour) // idle's bucket refills fully; so does active's

	l.Allow("active") // active: back to burst, consumes one → 1 token
	if l.Clients() != 2 {
		t.Fatalf("tracked %d clients, want 2", l.Clients())
	}
	// A third client forces a sweep: idle (full bucket) is dropped,
	// active (partial bucket) kept.
	if !l.Allow("newcomer") {
		t.Fatal("newcomer denied")
	}
	if l.Clients() != 2 {
		t.Errorf("after sweep: %d clients, want 2 (active + newcomer)", l.Clients())
	}
	if !l.Allow("active") {
		t.Error("active client lost its bucket in the sweep")
	}
	if l.Allow("active") {
		t.Error("active client's token count reset by sweep")
	}
}

func TestParseModulusHex(t *testing.T) {
	hex := modN1.Text(16)
	for _, in := range []string{hex, "0x" + hex, "  0x" + hex + "\n", "0" + hex} {
		n, err := ParseModulusHex(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if n.Cmp(modN1) != 0 {
			t.Errorf("%q parsed to %s", in, n.Text(16))
		}
	}
	for _, in := range []string{
		"", "0x", "nothex", "ff", // empty / too small
		modN1.Text(16) + "00", // even
	} {
		if _, err := ParseModulusHex(in); !errors.Is(err, ErrMalformed) {
			t.Errorf("%q: err = %v, want ErrMalformed", in, err)
		}
	}
	// An oversized modulus is rejected before it reaches the GCD path.
	huge := new(big.Int).Lsh(big.NewInt(1), MaxModulusBits)
	huge.SetBit(huge, 0, 1)
	if _, err := ParseModulusHex(huge.Text(16)); !errors.Is(err, ErrMalformed) {
		t.Errorf("oversized modulus: err = %v, want ErrMalformed", err)
	}
}

// TestRateLimiterHardCap is the regression test for unbounded bucket
// growth: when every tracked client is actively throttled (nothing idle
// for the sweep to reclaim — an attacker cycling source addresses), the
// limiter force-evicts the stalest bucket instead of growing past max,
// and counts each forced eviction.
func TestRateLimiterHardCap(t *testing.T) {
	reg := telemetry.New()
	l := NewRateLimiter(0.001, 1) // refill so slow no bucket ever looks idle
	now := time.Unix(3_000_000, 0)
	l.now = func() time.Time { return now }
	l.max = 8
	l.evictions = reg.Counter("keycheck_ratelimit_evictions_total")

	for i := 0; i < 1000; i++ {
		client := fmt.Sprintf("198.51.100.%d", i)
		l.Allow(client) // consumes the single burst token
		l.Allow(client) // denied: bucket stays hot
		if got := l.Clients(); got > l.max {
			t.Fatalf("client %d: tracked %d buckets, cap %d", i, got, l.max)
		}
		now = now.Add(time.Millisecond) // distinct timestamps: eviction is stalest-first
	}
	if got := reg.CounterValue("keycheck_ratelimit_evictions_total"); got < 1000-int64(l.max) {
		t.Errorf("forced evictions = %d, want >= %d", got, 1000-l.max)
	}
	// The most recent clients — the freshest buckets — must have survived.
	if l.Allow("198.51.100.999") {
		t.Error("freshest throttled client's bucket was evicted (burst re-granted)")
	}
}
