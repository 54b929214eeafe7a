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

// descent is the unpruned plain descent DivisorsCtx stops short of:
// x·∏foreign mod every leaf.
func descent(ctx context.Context, tr *Tree, x *big.Int, foreign ...*big.Int) ([]*big.Int, error) {
	_, rems, err := tr.remainderTree(ctx, x, false, foreign, 0)
	return rems, err
}

// remainders runs the plain or squared remainder tree uncancelled.
func remainders(t *testing.T, tr *Tree, x *big.Int, squared bool) []*big.Int {
	t.Helper()
	var rems []*big.Int
	var err error
	if squared {
		rems, err = tr.RemainderTreeSquaredCtx(context.Background(), x)
	} else {
		rems, err = descent(context.Background(), tr, x)
	}
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
	if len(tr.Levels[0]) != len(vals) {
		t.Errorf("leaf level holds %d", len(tr.Levels[0]))
	}
}

// sharedNodes counts the nodes of b that are a's by pointer, at the same
// level and position.
func sharedNodes(a, b *Forest) int {
	shared := 0
	for k := 0; k < len(a.levels) && k < len(b.levels); k++ {
		for i := 0; i < len(a.levels[k]) && i < len(b.levels[k]); i++ {
			if a.levels[k][i] == b.levels[k][i] {
				shared++
			}
		}
	}
	return shared
}

// TestExtendMatchesFullBuild grows Forests leaf-batch by leaf-batch and
// checks every level against a from-scratch Forest over the same leaves,
// and the root against the batch-built tree's.
func TestExtendMatchesFullBuild(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ old, add int }{
		{1, 1}, {1, 7}, {2, 2}, {3, 1}, {4, 4}, {5, 3}, {5, 8},
		{7, 1}, {16, 16}, {17, 5}, {33, 9}, {100, 5}, {100, 100},
	} {
		vals := randInts(int64(tc.old*1000+tc.add), tc.old+tc.add, 64)
		base, err := NewForest(ctx, vals[:tc.old])
		if err != nil {
			t.Fatal(err)
		}
		ext, err := base.Append(ctx, vals[tc.old:])
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewForest(ctx, vals)
		if err != nil {
			t.Fatal(err)
		}
		if len(ext.levels) != len(full.levels) {
			t.Fatalf("old=%d add=%d: extend has %d levels, full %d", tc.old, tc.add, len(ext.levels), len(full.levels))
		}
		for lvl := range full.levels {
			mustEqualSlices(t, "Append-vs-NewForest", tc.old+tc.add, ext.levels[lvl], full.levels[lvl])
		}
		tree, err := New(vals)
		if err != nil {
			t.Fatal(err)
		}
		if ext.Root().Cmp(tree.Root()) != 0 || full.Root().Cmp(tree.Root()) != 0 {
			t.Errorf("old=%d add=%d: root differs from the batch-built tree's", tc.old, tc.add)
		}
	}
}

// TestExtendSharesStructure asserts Append reuses every node of its
// receiver by pointer, multiplies only the nodes the new leaves complete,
// and never mutates the receiver.
func TestExtendSharesStructure(t *testing.T) {
	ctx := context.Background()
	vals := randInts(42, 64+8, 64)
	base, err := NewForest(ctx, vals[:64])
	if err != nil {
		t.Fatal(err)
	}
	baseRoot := new(big.Int).Set(base.Root())
	ext, err := base.Append(ctx, vals[64:])
	if err != nil {
		t.Fatal(err)
	}
	// 64 old leaves: every one of the 127 nodes stays; 8 new leaves
	// complete 8 + 4 + 2 + 1 more (72, 36, 18, 9, 4, 2, 1 in all).
	if got, want := sharedNodes(base, ext), 64+32+16+8+4+2+1; got != want || base.Nodes() != want {
		t.Errorf("shared %d nodes of the base's %d, want all %d", got, base.Nodes(), want)
	}
	if got, want := ext.Nodes(), 72+36+18+9+4+2+1; got != want {
		t.Errorf("Nodes() = %d, want %d", got, want)
	}
	if base.Root().Cmp(baseRoot) != 0 {
		t.Error("Append mutated the base's root")
	}
	if len(base.Leaves()) != 64 {
		t.Errorf("base leaves grew to %d", len(base.Leaves()))
	}
}

func TestExtendEdgeCases(t *testing.T) {
	ctx := context.Background()
	vals := randInts(7, 6, 64)
	base, err := NewForest(ctx, vals[:3])
	if err != nil {
		t.Fatal(err)
	}
	// An empty append returns the receiver itself.
	if same, err := base.Append(ctx, nil); err != nil || same != base {
		t.Errorf("Append(nil) = %v, %v; want the receiver itself", same, err)
	}
	// The nil Forest is the empty one: appending to it is NewForest.
	var empty *Forest
	fresh, err := empty.Append(ctx, vals[3:])
	if err != nil {
		t.Fatal(err)
	}
	full, _ := New(vals[3:])
	if fresh.Root().Cmp(full.Root()) != 0 {
		t.Error("nil Forest's Append root differs from New")
	}
	if f, err := NewForest(ctx, nil); f != nil || err != nil || empty.Root() != nil || empty.Nodes() != 0 || empty.Leaves() != nil || empty.LeavesSharing(one) != nil {
		t.Errorf("NewForest(nil) = %v, %v; want the nil, empty Forest", f, err)
	}
}

func TestForestAppendCancelled(t *testing.T) {
	base, err := NewForest(context.Background(), randInts(9, 32, 64))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := base.Append(ctx, randInts(10, 8, 64)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Append err = %v, want wrapped context.Canceled", err)
	}
	// The cancelled append claimed base's arrays; the next one copies them.
	vals := append(base.Leaves()[:32:32], randInts(11, 5, 64)...)
	next, err := base.Append(context.Background(), vals[32:])
	if err != nil {
		t.Fatal(err)
	}
	checkForest(t, next, vals)
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
	if _, err := descent(ctx, tr, tr.Root()); !errors.Is(err, context.Canceled) {
		t.Fatalf("plain descent err = %v, want wrapped context.Canceled", err)
	}
	if _, err := tr.DivisorsCtx(ctx, tr.Root()); !errors.Is(err, context.Canceled) {
		t.Fatalf("DivisorsCtx err = %v, want wrapped context.Canceled", err)
	}
	if _, err := tr.RemainderTreeSquaredCtx(ctx, tr.Root()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RemainderTreeSquaredCtx err = %v, want wrapped context.Canceled", err)
	}
}
