package prodtree

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"github.com/factorable/weakkeys/internal/kernel"
)

// roughOdd returns a random odd number of the given bits, top bit set,
// with no prime factor below 2^12, so two of them share a factor seldom
// and a leaf made of them is clean unless a factor is planted twice.
func roughOdd(rng *rand.Rand, bits int) *big.Int {
	var g big.Int
	for {
		if v := randVals(rng, 1, bits)[0]; g.GCD(nil, nil, v, smallPrimorial).Cmp(one) == 0 {
			return v
		}
	}
}

// smallPrimorial is the product of the odd primes below 2^12.
var smallPrimorial = func() *big.Int {
	p := big.NewInt(1)
	composite := make([]bool, 1<<12)
	for i := 3; i < len(composite); i += 2 {
		if !composite[i] {
			p.Mul(p, big.NewInt(int64(i)))
			for j := i * i; j < len(composite); j += 2 * i {
				composite[j] = true
			}
		}
	}
	return p
}()

// roughFactors returns two rough factors per leaf, of half its width in
// limbs each.
func roughFactors(rng *rand.Rand, widths []int) [][2]*big.Int {
	factors := make([][2]*big.Int, len(widths))
	for i, w := range widths {
		factors[i] = [2]*big.Int{roughOdd(rng, 32*w), roughOdd(rng, 32*w)}
	}
	return factors
}

// plant shares factors between leaves, as far as their count allows: a
// pair of mates inside one pruning block of block leaves, a pair in two
// neighbouring blocks, and a leaf whose two factors both sit in other
// leaves, so its residue under the cofactor sum is 0 and its divisor the
// leaf itself. Leaves of one width keep it.
func plant(rng *rand.Rand, factors [][2]*big.Int, block int) {
	n := len(factors)
	share := func(i, j int) { factors[j][0] = factors[i][0] }
	if block >= 2 && n >= 2 {
		share(0, min(block, n)-1) // one block
	}
	if n > block {
		b := rng.Intn((n-1)/block) * block
		share(b+rng.Intn(block), min(b+block+rng.Intn(block), n-1)) // two blocks
	}
	if n >= 5 {
		factors[n/2] = [2]*big.Int{factors[1][1], factors[n-1][1]} // both shared
	}
}

func leavesOf(factors [][2]*big.Int) []*big.Int {
	leaves := make([]*big.Int, len(factors))
	for i, f := range factors {
		leaves[i] = new(big.Int).Mul(f[0], f[1])
	}
	return leaves
}

// TestDivisorsMatchUnprunedDescent holds DivisorsCtx to gcd(leaf,
// residue) off the unpruned descent, on a serial and a pooled engine:
// 1 to 300 leaves, odd counts among them (carried nodes), leaves of 1 to
// 17 limbs and of mixed widths, mates inside one pruning block and across
// two, a leaf whose two factors are both shared, for x the cofactor sum
// (with and without foreign products, one of which holds a leaf's
// factor), a random value below the root, and 0 (every leaf its own
// divisor); and the trees whose tops take the scaled descent. Some
// pruning block must hold a leaf that shares and one that does not, or
// a pass that stopped at a node's GCD would pass too.
func TestDivisorsMatchUnprunedDescent(t *testing.T) {
	serial := kernel.New(1)
	pooled := kernel.New(4)
	defer serial.Close()
	defer pooled.Close()
	sctx := kernel.With(context.Background(), serial)
	pctx := kernel.With(context.Background(), pooled)

	rng := rand.New(rand.NewSource(53))
	type shape struct {
		n     int
		limbs int // 0: mixed, 1 to 17 a leaf
	}
	shapes := []shape{{1, 2}, {2, 1}, {3, 2}, {5, 1}, {17, 2}, {33, 1}, {64, 2}, {129, 3}, {255, 1}, {300, 2}, {77, 5}, {41, 8}, {19, 9}, {9, 16}, {7, 17}, {150, 0}, {31, 0}}
	for range 6 {
		shapes = append(shapes, shape{1 + 2*rng.Intn(150), 1 + rng.Intn(17)})
	}
	mixed := 0
	for _, sh := range shapes {
		widths := make([]int, sh.n)
		for i := range widths {
			widths[i] = sh.limbs
			if sh.limbs == 0 {
				widths[i] = 1 + rng.Intn(17)
			}
		}
		factors := roughFactors(rng, widths)
		probe, err := NewCtx(sctx, leavesOf(factors))
		if err != nil {
			t.Fatal(err)
		}
		prune := probe.pruneLevel()
		plant(rng, factors, 1<<prune)
		leaves := leavesOf(factors)
		tree, err := NewCtx(pctx, leaves)
		if err != nil {
			t.Fatal(err)
		}
		if tree.pruneLevel() != prune && sh.limbs != 0 {
			t.Fatalf("%d×%d limbs: planting moved the pruning level from %d to %d", sh.n, sh.limbs, prune, tree.pruneLevel())
		}
		f1 := new(big.Int).Mul(factors[sh.n-1][0], roughOdd(rng, 200))
		cases := []struct {
			name    string
			x       *big.Int
			foreign []*big.Int
		}{
			{"cofactors", tree.cofactors, nil},
			{"cofactors+foreign", tree.cofactors, []*big.Int{f1, roughOdd(rng, 3000)}},
			{"random", new(big.Int).Rand(rng, tree.Root()), nil},
			{"zero", new(big.Int), nil},
		}
		for _, c := range cases {
			what := fmt.Sprintf("%d leaves × %d limbs, x=%s", sh.n, sh.limbs, c.name)
			rems, err := descent(sctx, tree, c.x, c.foreign...)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]*big.Int, sh.n)
			for i, r := range rems {
				if g := new(big.Int).GCD(nil, nil, leaves[i], r); g.Cmp(one) != 0 {
					want[i] = g
				}
			}
			for _, ctx := range []context.Context{sctx, pctx} {
				got, err := tree.DivisorsCtx(ctx, c.x, c.foreign...)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if (got[i] == nil) != (want[i] == nil) || got[i] != nil && got[i].Cmp(want[i]) != 0 {
						t.Fatalf("%s: leaf %d (pruning at level %d): divisor %v, want %v", what, i, tree.pruneLevel(), got[i], want[i])
					}
				}
			}
			if c.name == "cofactors" && sh.n >= 5 && (want[sh.n/2] == nil || want[sh.n/2].Cmp(leaves[sh.n/2]) != 0) {
				t.Fatalf("%s: both factors shared: divisor %v, want the leaf", what, want[sh.n/2])
			}
			block := 1 << tree.pruneLevel()
			for lo := 0; lo < sh.n; lo += block {
				dirty := 0
				for _, d := range want[lo:min(lo+block, sh.n)] {
					if d != nil {
						dirty++
					}
				}
				if dirty > 0 && dirty < min(block, sh.n-lo) {
					mixed++
				}
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no pruning block held both a leaf that shares and one that does not")
	}

	// Roots past scaledCrossover: the scaled top ends above the pruning
	// level, or, with leaves past the crossover, at it.
	for name, vals := range scaledShapes(rng) {
		tree, err := NewCtx(pctx, vals)
		if err != nil {
			t.Fatal(err)
		}
		rems, err := descent(pctx, tree, tree.cofactors)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tree.DivisorsCtx(pctx, tree.cofactors)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rems {
			want := new(big.Int).GCD(nil, nil, vals[i], r)
			if want.Cmp(one) == 0 && got[i] != nil || want.Cmp(one) != 0 && (got[i] == nil || got[i].Cmp(want) != 0) {
				t.Fatalf("%s: leaf %d: divisor %v, want %v (nil for 1)", name, i, got[i], want)
			}
		}
	}
}
