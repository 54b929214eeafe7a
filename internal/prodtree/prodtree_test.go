package prodtree

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/factorable/weakkeys/internal/kernel"
)

func randInts(seed int64, n, bits int) []*big.Int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*big.Int, n)
	max := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	for i := range out {
		out[i] = new(big.Int).Rand(rng, max)
		out[i].Add(out[i], big.NewInt(2)) // avoid 0 and 1
	}
	return out
}

// remainders runs the plain or squared remainder tree uncancelled.
func remainders(t *testing.T, tr *Tree, x *big.Int, squared bool) []*big.Int {
	t.Helper()
	run := tr.RemainderTreeCtx
	if squared {
		run = tr.RemainderTreeSquaredCtx
	}
	rems, err := run(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	return rems
}

func TestNewEmpty(t *testing.T) {
	if _, err := New(nil); err != ErrEmpty {
		t.Errorf("got %v, want ErrEmpty", err)
	}
}

func TestSingleLeaf(t *testing.T) {
	tr, err := New([]*big.Int{big.NewInt(42)})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root().Int64() != 42 {
		t.Errorf("root = %v, want 42", tr.Root())
	}
	if len(tr.Levels) != 1 {
		t.Errorf("levels = %d, want 1", len(tr.Levels))
	}
	rems := remainders(t, tr, big.NewInt(100), false)
	if len(rems) != 1 || rems[0].Int64() != 100%42 {
		t.Errorf("remainders = %v", rems)
	}
}

func TestRootMatchesLinearProduct(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 33, 100} {
		vals := randInts(int64(n), n, 64)
		tr, err := New(vals)
		if err != nil {
			t.Fatal(err)
		}
		want := big.NewInt(1)
		for _, v := range vals {
			want.Mul(want, v)
		}
		if tr.Root().Cmp(want) != 0 {
			t.Errorf("n=%d: root mismatch", n)
		}
	}
}

func TestLevelStructure(t *testing.T) {
	vals := randInts(9, 9, 32)
	tr, _ := New(vals)
	wantSizes := []int{9, 5, 3, 2, 1}
	if len(tr.Levels) != len(wantSizes) {
		t.Fatalf("levels = %d, want %d", len(tr.Levels), len(wantSizes))
	}
	for i, w := range wantSizes {
		if len(tr.Levels[i]) != w {
			t.Errorf("level %d has %d nodes, want %d", i, len(tr.Levels[i]), w)
		}
	}
	// Every parent is the product of its children (or a carried odd node).
	for lvl := 0; lvl+1 < len(tr.Levels); lvl++ {
		cur, up := tr.Levels[lvl], tr.Levels[lvl+1]
		for i := 0; i+1 < len(cur); i += 2 {
			prod := new(big.Int).Mul(cur[i], cur[i+1])
			if prod.Cmp(up[i/2]) != 0 {
				t.Errorf("level %d parent %d is not the product of its children", lvl, i/2)
			}
		}
		if len(cur)%2 == 1 && up[len(up)-1].Cmp(cur[len(cur)-1]) != 0 {
			t.Errorf("level %d odd node not carried up", lvl)
		}
	}
}

func TestRemainderTreeMatchesDirectMod(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17, 50} {
		vals := randInts(int64(100+n), n, 48)
		tr, _ := New(vals)
		x := new(big.Int).Lsh(big.NewInt(0xDEADBEEF), 300)
		x.Add(x, big.NewInt(12345))
		rems := remainders(t, tr, x, false)
		for i, v := range vals {
			want := new(big.Int).Mod(x, v)
			if rems[i].Cmp(want) != 0 {
				t.Errorf("n=%d leaf %d: got %v want %v", n, i, rems[i], want)
			}
		}
	}
}

func TestRemainderTreeSquaredMatchesDirectMod(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 31} {
		vals := randInts(int64(200+n), n, 48)
		tr, _ := New(vals)
		x := tr.Root() // the batch-GCD usage: reduce the full product
		rems := remainders(t, tr, x, true)
		for i, v := range vals {
			sq := new(big.Int).Mul(v, v)
			want := new(big.Int).Mod(x, sq)
			if rems[i].Cmp(want) != 0 {
				t.Errorf("n=%d leaf %d: squared remainder mismatch", n, i)
			}
		}
	}
}

func TestRemainderTreeDoesNotMutateInput(t *testing.T) {
	vals := randInts(5, 5, 32)
	tr, _ := New(vals)
	x := big.NewInt(1 << 40)
	want := new(big.Int).Set(x)
	remainders(t, tr, x, false)
	remainders(t, tr, x, true)
	if x.Cmp(want) != 0 {
		t.Error("remainder tree mutated x")
	}
	for i, v := range randInts(5, 5, 32) {
		if vals[i].Cmp(v) != 0 {
			t.Error("remainder tree mutated a leaf")
		}
	}
}

func TestBytesPositive(t *testing.T) {
	tr, _ := New(randInts(1, 64, 512))
	if tr.Bytes() <= 0 {
		t.Error("Bytes() should be positive")
	}
	// Root alone is ~64*512 bits = 4096 bytes; the whole tree must exceed it.
	if tr.Bytes() < 4096 {
		t.Errorf("Bytes() = %d, implausibly small", tr.Bytes())
	}
}

func TestPropertyRootDivisibleByEveryLeaf(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		vals := randInts(seed, n, 40)
		tr, err := New(vals)
		if err != nil {
			return false
		}
		var m big.Int
		for _, v := range vals {
			if m.Mod(tr.Root(), v).Sign() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPooledTreeBuild(t *testing.T) {
	// Force the pooled path even on single-core machines by pinning a
	// wide engine on the context.
	eng := kernel.New(4)
	defer eng.Close()
	ctx := kernel.With(context.Background(), eng)
	vals := randInts(77, 257, 64)
	tr, err := NewCtx(ctx, vals)
	if err != nil {
		t.Fatal(err)
	}
	want := big.NewInt(1)
	for _, v := range vals {
		want.Mul(want, v)
	}
	if tr.Root().Cmp(want) != 0 {
		t.Error("parallel tree build produced a wrong product")
	}
	if len(tr.Leaves()) != len(vals) {
		t.Errorf("Leaves() = %d", len(tr.Leaves()))
	}
}

// TestExtendMatchesFullBuild grows trees leaf-batch by leaf-batch and
// checks every level against a from-scratch build over the same leaves.
func TestExtendMatchesFullBuild(t *testing.T) {
	for _, tc := range []struct{ old, add int }{
		{1, 1}, {1, 7}, {2, 2}, {3, 1}, {4, 4}, {5, 3}, {5, 8},
		{7, 1}, {16, 16}, {17, 5}, {33, 9}, {100, 5}, {100, 100},
	} {
		vals := randInts(int64(tc.old*1000+tc.add), tc.old+tc.add, 64)
		base, err := New(vals[:tc.old])
		if err != nil {
			t.Fatal(err)
		}
		ext, err := ExtendCtx(context.Background(), base, vals[tc.old:])
		if err != nil {
			t.Fatal(err)
		}
		full, err := New(vals)
		if err != nil {
			t.Fatal(err)
		}
		if len(ext.Levels) != len(full.Levels) {
			t.Fatalf("old=%d add=%d: extend has %d levels, full %d", tc.old, tc.add, len(ext.Levels), len(full.Levels))
		}
		for lvl := range full.Levels {
			if len(ext.Levels[lvl]) != len(full.Levels[lvl]) {
				t.Fatalf("old=%d add=%d level %d: %d nodes, want %d",
					tc.old, tc.add, lvl, len(ext.Levels[lvl]), len(full.Levels[lvl]))
			}
			for i := range full.Levels[lvl] {
				if ext.Levels[lvl][i].Cmp(full.Levels[lvl][i]) != 0 {
					t.Fatalf("old=%d add=%d: node (%d,%d) differs from full build", tc.old, tc.add, lvl, i)
				}
			}
		}
	}
}

// TestExtendSharesStructure asserts Extend reuses the unaffected left
// part of the base tree by reference and never mutates the base.
func TestExtendSharesStructure(t *testing.T) {
	vals := randInts(42, 64+8, 64)
	base, err := New(vals[:64])
	if err != nil {
		t.Fatal(err)
	}
	baseRoot := new(big.Int).Set(base.Root())
	ext, err := ExtendCtx(context.Background(), base, vals[64:])
	if err != nil {
		t.Fatal(err)
	}
	// 64 old leaves, 8 new: shared prefix halves per level
	// (64, 32, 16, 8, 4, 2, 1, then the old tree is exhausted).
	wantShared := 64 + 32 + 16 + 8 + 4 + 2 + 1
	if got := SharedNodes(base, ext); got != wantShared {
		t.Errorf("SharedNodes = %d, want %d", got, wantShared)
	}
	if ext.Nodes() <= wantShared {
		t.Errorf("Nodes() = %d, must exceed the shared count", ext.Nodes())
	}
	if base.Root().Cmp(baseRoot) != 0 {
		t.Error("Extend mutated the base tree's root")
	}
	if len(base.Leaves()) != 64 {
		t.Errorf("base leaves grew to %d", len(base.Leaves()))
	}
}

func TestExtendEdgeCases(t *testing.T) {
	vals := randInts(7, 6, 64)
	base, err := New(vals[:3])
	if err != nil {
		t.Fatal(err)
	}
	// Empty extension returns the base unchanged.
	same, err := ExtendCtx(context.Background(), base, nil)
	if err != nil || same != base {
		t.Errorf("ExtendCtx(base, nil) = %v, %v; want the base tree itself", same, err)
	}
	// Nil base is a fresh build.
	fresh, err := ExtendCtx(context.Background(), nil, vals[3:])
	if err != nil {
		t.Fatal(err)
	}
	full, _ := New(vals[3:])
	if fresh.Root().Cmp(full.Root()) != 0 {
		t.Error("ExtendCtx(nil, leaves) root differs from New")
	}
	// Nil base and no leaves is the usual empty error.
	if _, err := ExtendCtx(context.Background(), nil, nil); err != ErrEmpty {
		t.Errorf("ExtendCtx(nil, nil) err = %v, want ErrEmpty", err)
	}
}

func TestExtendCtxCancelled(t *testing.T) {
	base, err := New(randInts(9, 32, 64))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExtendCtx(ctx, base, randInts(10, 8, 64)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExtendCtx err = %v, want wrapped context.Canceled", err)
	}
}

func TestNewCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewCtx(ctx, randInts(1, 64, 64)); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewCtx err = %v, want wrapped context.Canceled", err)
	}
	// The uncancelled path matches New.
	vals := randInts(2, 33, 64)
	a, err := NewCtx(context.Background(), vals)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(vals)
	if err != nil {
		t.Fatal(err)
	}
	if a.Root().Cmp(b.Root()) != 0 {
		t.Error("NewCtx root differs from New root")
	}
}

func TestRemainderTreeCtxCancelled(t *testing.T) {
	vals := randInts(3, 32, 64)
	tr, err := New(vals)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.RemainderTreeCtx(ctx, tr.Root()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RemainderTreeCtx err = %v, want wrapped context.Canceled", err)
	}
	if _, err := tr.RemainderTreeSquaredCtx(ctx, tr.Root()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RemainderTreeSquaredCtx err = %v, want wrapped context.Canceled", err)
	}
}
