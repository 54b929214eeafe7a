package distgcd

import (
	"context"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/factorable/weakkeys/internal/batchgcd"
)

// TestPropertyDistributedMatchesSingleTree fuzzes random corpus shapes —
// random mixes of disjoint and shared primes, duplicates, and subset
// counts — and requires the cluster-partitioned algorithm to agree with
// the single-tree algorithm on both membership and divisors.
func TestPropertyDistributedMatchesSingleTree(t *testing.T) {
	// A fixed pool of smallish primes keeps each trial fast while still
	// exercising every sharing topology.
	pool := primes(t, 99, 14, 40)
	f := func(seed int64, kRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 2
		k := int(kRaw%9) + 1
		moduli := make([]*big.Int, n)
		for i := range moduli {
			a := rng.Intn(len(pool))
			b := rng.Intn(len(pool))
			if a == b {
				b = (b + 1) % len(pool)
			}
			moduli[i] = new(big.Int).Mul(pool[a], pool[b])
		}
		single, err := batchgcd.Factor(moduli)
		if err != nil {
			return false
		}
		dist, _, err := Run(context.Background(), moduli, Options{Subsets: k})
		if err != nil {
			return false
		}
		if len(single) != len(dist) {
			return false
		}
		sdiv := make(map[int]string, len(single))
		for _, r := range single {
			sdiv[r.Index] = r.Divisor.String()
		}
		for _, r := range dist {
			if sdiv[r.Index] != r.Divisor.String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}

	// At 12,288 two-limb values every node's tree reaches the transform
	// multiply and the scaled descent, and each takes k−1 foreign
	// products at its root.
	moduli := randomOdd(29, 12288)
	single, err := batchgcd.Factor(moduli)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		dist, _, err := Run(context.Background(), moduli, Options{Subsets: k})
		if err != nil {
			t.Fatal(err)
		}
		if len(dist) != len(single) {
			t.Fatalf("k=%d: %d results, single tree %d", k, len(dist), len(single))
		}
		for i, r := range dist {
			if r.Index != single[i].Index || r.Divisor.Cmp(single[i].Divisor) != 0 {
				t.Fatalf("k=%d: result %d {%d %v}, single tree {%d %v}", k, i, r.Index, r.Divisor, single[i].Index, single[i].Divisor)
			}
		}
	}
}

// TestPropertyDistributedMatchesPairwiseMembership checks the distributed
// algorithm against the ground-truth quadratic baseline.
func TestPropertyDistributedMatchesPairwiseMembership(t *testing.T) {
	pool := primes(t, 123, 10, 40)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25) + 2
		moduli := make([]*big.Int, n)
		for i := range moduli {
			a := rng.Intn(len(pool))
			b := (a + 1 + rng.Intn(len(pool)-1)) % len(pool)
			moduli[i] = new(big.Int).Mul(pool[a], pool[b])
		}
		dist, _, err := Run(context.Background(), moduli, Options{Subsets: 4})
		if err != nil {
			return false
		}
		pair, err := batchgcd.FactorPairwise(moduli)
		if err != nil {
			return false
		}
		dSet := make(map[int]bool)
		for _, r := range dist {
			dSet[r.Index] = true
		}
		pSet := make(map[int]bool)
		for _, r := range pair {
			pSet[r.Index] = true
		}
		if len(dSet) != len(pSet) {
			return false
		}
		for i := range pSet {
			if !dSet[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
