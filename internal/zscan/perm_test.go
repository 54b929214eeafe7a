package zscan

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// collect drains a walk into a slice.
func collect(t *testing.T, w *Walk) []uint64 {
	t.Helper()
	var out []uint64
	for {
		idx, ok := w.Next()
		if !ok {
			return out
		}
		if idx >= uint64(cap(out)) && len(out) > 1<<24 {
			t.Fatal("walk did not terminate")
		}
		out = append(out, idx)
	}
}

func TestCycleCoversSpaceExactlyOnce(t *testing.T) {
	for _, space := range []uint64{1, 2, 3, 10, 97, 255, 1000, 4096} {
		c, err := NewCycle(space, 42)
		if err != nil {
			t.Fatalf("space %d: %v", space, err)
		}
		w, err := c.Shard(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]int)
		for _, idx := range collect(t, w) {
			if idx >= space {
				t.Fatalf("space %d: index %d out of range", space, idx)
			}
			seen[idx]++
		}
		if uint64(len(seen)) != space {
			t.Fatalf("space %d: visited %d distinct indexes, want %d", space, len(seen), space)
		}
		for idx, n := range seen {
			if n != 1 {
				t.Fatalf("space %d: index %d visited %d times", space, idx, n)
			}
		}
	}
}

// TestShardsDisjointAndComplete is the core sharding property: for any
// shard count, every index is visited by exactly one shard exactly
// once — zero overlap, zero omission. Shards walk concurrently so the
// race detector also certifies that walks share no state. The last row
// is a production-sized space (one count byte per address), where the
// split must also be even: a shard is every shards-th step of the cycle
// less its share of the prime-gap overshoot.
func TestShardsDisjointAndComplete(t *testing.T) {
	for _, tc := range []struct {
		space  uint64
		shards int
		seed   int64
	}{
		{100, 2, 7}, {1000, 2, 7}, {1000, 3, 7}, {4096, 7, 7}, {5000, 16, 7}, {10, 32, 7},
		{1 << 21, 2, 2016},
	} {
		c, err := NewCycle(tc.space, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		// Disjoint walks touch disjoint bytes; an overlap that loses an
		// update here still shows in the size total below.
		counts := make([]uint8, tc.space)
		sizes := make([]uint64, tc.shards)
		var wg sync.WaitGroup
		for s := 0; s < tc.shards; s++ {
			w, err := c.Shard(s, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(s int, w *Walk) {
				defer wg.Done()
				for {
					idx, ok := w.Next()
					if !ok {
						return
					}
					if idx >= tc.space {
						t.Errorf("space %d/%d shards: index %d out of range", tc.space, tc.shards, idx)
						return
					}
					counts[idx]++
					sizes[s]++
				}
			}(s, w)
		}
		wg.Wait()
		for idx, n := range counts {
			if n != 1 {
				t.Fatalf("space %d/%d shards: index %d visited %d times", tc.space, tc.shards, idx, n)
			}
		}
		total, even := uint64(0), float64(tc.space)/float64(tc.shards)
		for s, n := range sizes {
			total += n
			if dev := math.Abs(float64(n)-even) / even; tc.space >= 1<<20 && dev > 1e-5 {
				t.Errorf("space %d/%d shards: shard %d holds %d targets, %.4f%% off even", tc.space, tc.shards, s, n, 100*dev)
			}
		}
		if total != tc.space {
			t.Fatalf("space %d/%d shards: %d visits, want %d (overlap)", tc.space, tc.shards, total, tc.space)
		}
	}
}

func TestOrderDiffersPerSeed(t *testing.T) {
	const space = 1000
	order := func(seed int64) []uint64 {
		c, err := NewCycle(space, seed)
		if err != nil {
			t.Fatal(err)
		}
		w, err := c.Shard(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return collect(t, w)
	}
	a, b := order(1), order(2)
	if len(a) != space || len(b) != space {
		t.Fatalf("lengths %d/%d, want %d", len(a), len(b), space)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical visit orders")
	}
	// And the same seed replays exactly — the cross-process agreement
	// sharding depends on.
	c := order(1)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("seed 1 not deterministic at position %d", i)
		}
	}
}

// TestRandomizedShardProperty fuzzes (space, seed, shards) combinations
// against the exactly-once invariant.
func TestRandomizedShardProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		space := 1 + uint64(rng.Intn(3000))
		seed := rng.Int63()
		shards := 1 + rng.Intn(9)
		c, err := NewCycle(space, seed)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]bool)
		total := uint64(0)
		for s := 0; s < shards; s++ {
			w, err := c.Shard(s, shards)
			if err != nil {
				t.Fatal(err)
			}
			for {
				idx, ok := w.Next()
				if !ok {
					break
				}
				if seen[idx] {
					t.Fatalf("space=%d seed=%d shards=%d: duplicate index %d", space, seed, shards, idx)
				}
				seen[idx] = true
				total++
			}
		}
		if total != space {
			t.Fatalf("space=%d seed=%d shards=%d: covered %d", space, seed, shards, total)
		}
	}
}

func TestShardValidation(t *testing.T) {
	c, err := NewCycle(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ index, count int }{
		{0, 0}, {-1, 2}, {2, 2}, {5, 3},
	} {
		if _, err := c.Shard(tc.index, tc.count); err == nil {
			t.Errorf("Shard(%d, %d) must fail", tc.index, tc.count)
		}
	}
	if _, err := NewCycle(0, 1); err == nil {
		t.Error("empty space must be rejected")
	}
	if _, err := NewCycle(maxSpace+1, 1); err == nil {
		t.Error("oversized space must be rejected")
	}
}

func TestWalkRemainingIsUpperBound(t *testing.T) {
	c, err := NewCycle(500, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Shard(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := w.Remaining()
	n := uint64(len(collect(t, w)))
	if n > before {
		t.Fatalf("walk yielded %d > Remaining %d", n, before)
	}
	if w.Remaining() != 0 {
		t.Fatalf("exhausted walk Remaining = %d", w.Remaining())
	}
}

func TestNumberTheoryHelpers(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 101, 65537, 4294967291, 1<<32 + 15}
	for _, p := range primes {
		if !isPrime64(p) {
			t.Errorf("isPrime64(%d) = false", p)
		}
	}
	composites := []uint64{0, 1, 4, 9, 91, 65539 * 3, 4294967291 * 2}
	for _, n := range composites {
		if isPrime64(n) {
			t.Errorf("isPrime64(%d) = true", n)
		}
	}
	// Generator order check: for a sample cycle the generator must have
	// full order p-1, i.e. g^((p-1)/q) != 1 for every prime factor q.
	c, err := NewCycle(1<<16, 12345)
	if err != nil {
		t.Fatal(err)
	}
	p := c.p
	factors, ok := distinctFactors(p - 1)
	if !ok {
		t.Fatalf("factoring %d-1 failed", p)
	}
	for _, q := range factors {
		if powmod(c.g, (p-1)/q, p) == 1 {
			t.Fatalf("generator %d has order dividing (p-1)/%d: not primitive", c.g, q)
		}
	}
}
