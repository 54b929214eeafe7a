package prodtree

import (
	"context"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"github.com/factorable/weakkeys/internal/kernel"
)

// randVals returns n pseudorandom odd values of about bits width.
func randVals(rng *rand.Rand, n, bits int) []*big.Int {
	vals := make([]*big.Int, n)
	for i := range vals {
		v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		v.SetBit(v, 0, 1).SetBit(v, bits-1, 1)
		vals[i] = v
	}
	return vals
}

// TestPooledBuildsMatchSerial is the bit-identical equivalence
// property: every tree and remainder computed on a wide pooled engine
// must equal the GOMAXPROCS=1 serial baseline, across New, Forest appends
// and both remainder-tree variants, for a spread of sizes including odd
// node counts. Run under -race this also exercises the pool for data
// races on shared levels.
func TestPooledBuildsMatchSerial(t *testing.T) {
	serial := kernel.New(1)
	pooled := kernel.New(8)
	defer serial.Close()
	defer pooled.Close()
	sctx := kernel.With(context.Background(), serial)
	pctx := kernel.With(context.Background(), pooled)

	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{1, 2, 3, 5, 8, 33, 257, 1000} {
		vals := randVals(rng, n, 96)
		st, err := NewCtx(sctx, vals)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := NewCtx(pctx, vals)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualTrees(t, "New", n, st, pt)

		// Forests both ways over a split of the same inputs.
		if n >= 2 {
			cut := 1 + rng.Intn(n-1)
			var forests [2]*Forest
			for w, ctx := range []context.Context{sctx, pctx} {
				base, err := NewForest(ctx, vals[:cut])
				if err != nil {
					t.Fatal(err)
				}
				if forests[w], err = base.Append(ctx, vals[cut:]); err != nil {
					t.Fatal(err)
				}
			}
			if len(forests[0].levels) != len(forests[1].levels) {
				t.Fatalf("Append n=%d: level counts %d vs %d", n, len(forests[0].levels), len(forests[1].levels))
			}
			for lvl := range forests[0].levels {
				mustEqualSlices(t, "Append", n, forests[0].levels[lvl], forests[1].levels[lvl])
			}
			mustEqualSlices(t, "Append-vs-New", n, []*big.Int{forests[1].Root()}, []*big.Int{st.Root()})
		}

		// Remainder trees: the canonical squared call (x = root, which
		// exercises the top-level skip) and a plain reduction of an
		// arbitrary larger value.
		srem, err := st.RemainderTreeSquaredCtx(sctx, st.Root())
		if err != nil {
			t.Fatal(err)
		}
		prem, err := pt.RemainderTreeSquaredCtx(pctx, pt.Root())
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSlices(t, "RemainderTreeSquared", n, srem, prem)

		x := new(big.Int).Add(st.Root(), big.NewInt(12345))
		sr2, err := descent(sctx, st, x)
		if err != nil {
			t.Fatal(err)
		}
		pr2, err := descent(pctx, pt, x)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSlices(t, "RemainderTree", n, sr2, pr2)
	}
}

func mustEqualTrees(t *testing.T, what string, n int, a, b *Tree) {
	t.Helper()
	if len(a.Levels) != len(b.Levels) {
		t.Fatalf("%s n=%d: level counts %d vs %d", what, n, len(a.Levels), len(b.Levels))
	}
	for lvl := range a.Levels {
		mustEqualSlices(t, what, n, a.Levels[lvl], b.Levels[lvl])
	}
}

func mustEqualSlices(t *testing.T, what string, n int, a, b []*big.Int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s n=%d: lengths %d vs %d", what, n, len(a), len(b))
	}
	for i := range a {
		if a[i].Cmp(b[i]) != 0 {
			t.Fatalf("%s n=%d: value %d differs:\n  %v\n  %v", what, n, i, a[i], b[i])
		}
	}
}

// TestSquaredSkipCorrectness pins the top-level skip against the
// brute-force definition for both the skip case (x < root²) and the
// no-skip case (x >= root²).
func TestSquaredSkipCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 9, 64} {
		vals := randVals(rng, n, 64)
		tree, err := New(vals)
		if err != nil {
			t.Fatal(err)
		}
		root := tree.Root()
		rootSq := new(big.Int).Mul(root, root)
		huge := new(big.Int).Add(new(big.Int).Mul(rootSq, big.NewInt(3)), big.NewInt(17))
		for _, x := range []*big.Int{root, new(big.Int).Sub(root, big.NewInt(1)), huge} {
			got := remainders(t, tree, x, true)
			for i, leaf := range vals {
				sq := new(big.Int).Mul(leaf, leaf)
				want := new(big.Int).Mod(x, sq)
				if got[i].Cmp(want) != 0 {
					t.Fatalf("n=%d leaf %d: x mod leaf² = %v, want %v", n, i, got[i], want)
				}
			}
		}
	}
}

// TestNoArenaAliasingInResults is the aliasing regression test: after
// building trees and remainders on an engine, a scribble job overwrites
// every scratch value the engine's arenas can hand out. If any returned
// tree node or remainder aliased arena storage it would be clobbered.
func TestNoArenaAliasingInResults(t *testing.T) {
	eng := kernel.New(4)
	defer eng.Close()
	ctx := kernel.With(context.Background(), eng)

	rng := rand.New(rand.NewSource(99))
	vals := randVals(rng, 300, 96)
	tree, err := NewCtx(ctx, vals)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewForest(ctx, vals)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := base.Append(ctx, randVals(rng, 37, 96))
	if err != nil {
		t.Fatal(err)
	}
	rems, err := tree.RemainderTreeSquaredCtx(ctx, tree.Root())
	if err != nil {
		t.Fatal(err)
	}
	// The build sums an arena product into each pair's derivative below
	// the transform, the descent divides with an arena quotient, and the
	// divisor pass takes its GCDs into arena values.
	divs, err := tree.DivisorsCtx(ctx, tree.CofactorSum())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range divs {
		if d != nil {
			rems = append(rems, d)
		}
	}

	// Deep-copy the expected values, then scribble over every arena
	// scratch slot the engine can produce.
	treeVals := append(slices.Clip(tree.Levels), []*big.Int{tree.cofactors})
	snapTree := copyLevels(treeVals)
	forestVals := append(slices.Clip(forest.levels), []*big.Int{forest.root})
	snapForest := copyLevels(forestVals)
	snapRems := copySlice(rems)
	garbage := new(big.Int).Lsh(big.NewInt(-1), 512)
	err = eng.Run(ctx, 64, func(i int, a *kernel.Arena) {
		for k := 0; k < 256; k++ {
			a.Get().Set(garbage)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	checkLevels(t, "New tree", treeVals, snapTree)
	checkLevels(t, "Forest", forestVals, snapForest)
	for i := range rems {
		if rems[i].Cmp(snapRems[i]) != 0 {
			t.Fatalf("remainder %d shares storage with a scratch arena", i)
		}
	}
}

func copyLevels(levels [][]*big.Int) [][]*big.Int {
	out := make([][]*big.Int, len(levels))
	for i, lvl := range levels {
		out[i] = copySlice(lvl)
	}
	return out
}

func copySlice(vals []*big.Int) []*big.Int {
	out := make([]*big.Int, len(vals))
	for i, v := range vals {
		out[i] = new(big.Int).Set(v)
	}
	return out
}

func checkLevels(t *testing.T, what string, got, want [][]*big.Int) {
	t.Helper()
	for lvl := range got {
		for i := range got[lvl] {
			if got[lvl][i].Cmp(want[lvl][i]) != 0 {
				t.Fatalf("%s: level %d node %d shares storage with a scratch arena", what, lvl, i)
			}
		}
	}
}
