package prodtree

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/telemetry"
)

func randPrime(rng *rand.Rand, bits int) *big.Int {
	for {
		p := randVals(rng, 1, bits)[0]
		if p.ProbablyPrime(10) {
			return p
		}
	}
}

// mixedModuli returns n moduli 64 to 1024 bits wide: random odd
// integers (which share small factors, so residues vary) and, from
// n = 3, a planted chain p·q, p·r, q·s whose first modulus shares both
// of its primes.
func mixedModuli(rng *rand.Rand, n int) []*big.Int {
	widths := []int{64, 128, 256, 512, 1024}
	vals := make([]*big.Int, n)
	for i := range vals {
		vals[i] = randVals(rng, 1, widths[rng.Intn(len(widths))])[0]
	}
	if n >= 3 {
		p, q, r, s := randPrime(rng, 32), randPrime(rng, 256), randPrime(rng, 96), randPrime(rng, 512)
		vals[0] = new(big.Int).Mul(p, q)
		vals[1] = new(big.Int).Mul(p, r)
		vals[2] = new(big.Int).Mul(q, s)
	}
	return vals
}

// squaredOracle is the cofactor residue by Bernstein's route, the
// differential oracle: (P mod Ni²) / Ni.
func squaredOracle(t *testing.T, ctx context.Context, tree *Tree) []*big.Int {
	t.Helper()
	rems, err := tree.RemainderTreeSquaredCtx(ctx, tree.Root())
	if err != nil {
		t.Fatal(err)
	}
	for i, leaf := range tree.Leaves() {
		rems[i].Quo(rems[i], leaf)
	}
	return rems
}

// TestCofactorResiduesMatchSquaredOracle pins the product-rule tree to
// the squared remainder tree it replaced in production, on a serial and
// a pooled engine (which must agree bit for bit), at sizes either side
// of every carry pattern.
func TestCofactorResiduesMatchSquaredOracle(t *testing.T) {
	serial := kernel.New(1)
	pooled := kernel.New(8)
	defer serial.Close()
	defer pooled.Close()
	sctx := kernel.With(context.Background(), serial)
	pctx := kernel.With(context.Background(), pooled)

	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 2, 3, 5, 31, 32, 33, 1000} {
		vals := mixedModuli(rng, n)
		tree, err := NewCtx(pctx, vals)
		if err != nil {
			t.Fatal(err)
		}
		want := squaredOracle(t, sctx, tree)
		got, err := tree.CofactorResiduesCtx(sctx)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSlices(t, "CofactorResidues vs squared oracle", n, want, got)
		pgot, err := tree.CofactorResiduesCtx(pctx)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSlices(t, "CofactorResidues pooled vs serial", n, got, pgot)
		for i, r := range got {
			if r.Sign() < 0 || r.Cmp(vals[i]) >= 0 {
				t.Fatalf("n=%d: residue %d = %v outside [0, N)", n, i, r)
			}
		}
		if n >= 3 && got[0].Sign() != 0 {
			t.Fatalf("n=%d: both primes shared, residue = %v, want 0", n, got[0])
		}
	}
}

// TestCofactorResiduesSingleLeafIsFresh: callers fold into the returned
// slice in place, so the lone 1 must be theirs alone — not the D(leaf)
// value the leaves share, and not a previous call's.
func TestCofactorResiduesSingleLeafIsFresh(t *testing.T) {
	tree, err := New([]*big.Int{big.NewInt(77)})
	if err != nil {
		t.Fatal(err)
	}
	first, err := tree.CofactorResiduesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || first[0].Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("single leaf residues = %v, want [1]", first)
	}
	first[0].SetInt64(42)
	second, err := tree.CofactorResiduesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second[0] == first[0] || second[0].Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("writing a returned residue leaked into the next call: %v", second[0])
	}
}

// countdownCtx reports Canceled from its (left+1)th Err call on, which
// on a 1-worker engine is a fixed chunk of a fixed level.
type countdownCtx struct {
	context.Context
	left *atomic.Int64
}

func (c countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCofactorResiduesCancelledMidPass cancels at every checkpoint of
// the build and the descent in turn: each must surface as an error
// wrapping the context's, and both the build, which forms the cofactor
// sum, and the descent must be reached.
func TestCofactorResiduesCancelledMidPass(t *testing.T) {
	eng := kernel.New(1)
	defer eng.Close()
	vals := randInts(4, 40, 64)
	seen := map[string]int{}
	for k := int64(0); ; k++ {
		left := new(atomic.Int64)
		left.Store(k)
		ctx := countdownCtx{kernel.With(context.Background(), eng), left}
		tree, err := NewCtx(ctx, vals)
		if err == nil {
			_, err = tree.CofactorResiduesCtx(ctx)
		}
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at checkpoint %d: err = %v, want wrapped context.Canceled", k, err)
		}
		for _, pass := range []string{"build", "remainder tree"} {
			if strings.Contains(err.Error(), pass) {
				seen[pass]++
			}
		}
	}
	if seen["build"] == 0 || seen["remainder tree"] == 0 {
		t.Fatalf("cancellations seen per pass: %v, want both passes", seen)
	}
}

// TestTreeCarriesCofactorSum holds the cofactor sum the build carries to
// Σj P/Nj computed leaf by leaf: over one leaf, odd counts whose carried
// nodes keep their D, leaves long enough that pairs go through the
// transform, and on a pooled engine against a 1-worker one.
func TestTreeCarriesCofactorSum(t *testing.T) {
	serial := kernel.New(1)
	pooled := kernel.New(4)
	defer serial.Close()
	defer pooled.Close()
	sctx := kernel.With(context.Background(), serial)
	pctx := kernel.With(context.Background(), pooled)
	rng := rand.New(rand.NewSource(17))
	long := 64*pairCrossover + 9 // pairs of two of these transform, D and all
	for _, c := range []struct{ n, bits int }{{1, 64}, {2, 64}, {3, 128}, {7, 96}, {33, 1024}, {1000, 128}, {7, long}, {5, long / 2}} {
		vals := randVals(rng, c.n, c.bits)
		st, err := NewCtx(sctx, vals)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := NewCtx(pctx, vals)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int)
		for _, v := range vals {
			want.Add(want, new(big.Int).Quo(st.Root(), v))
		}
		if st.cofactors.Cmp(want) != 0 {
			t.Fatalf("%d × %d bits: D(root) differs from Σ P/Nj", c.n, c.bits)
		}
		if pt.cofactors.Cmp(want) != 0 {
			t.Fatalf("%d × %d bits: pooled D(root) differs from the 1-worker one", c.n, c.bits)
		}
	}
}

// TestPerLevelSpans: under a tracer every pass opens one span per level
// it works on, carrying the level's shape; without one the span
// plumbing allocates nothing.
func TestPerLevelSpans(t *testing.T) {
	vals := randInts(5, 37, 64)
	tracer := telemetry.NewTracer()
	root := tracer.Start("test")
	ctx := telemetry.ContextWithSpan(context.Background(), root)
	tree, err := NewCtx(ctx, vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.CofactorResiduesCtx(ctx); err != nil {
		t.Fatal(err)
	}
	levels := len(tree.Levels)
	count := map[string]int{}
	for _, ev := range tracer.Events() {
		count[ev.Name]++
		lvl, _ := ev.Args["level"].(int)
		if nodes, _ := ev.Args["nodes"].(int); nodes != len(tree.Levels[lvl]) {
			t.Errorf("%s level %d: nodes = %v, want %d", ev.Name, lvl, ev.Args["nodes"], len(tree.Levels[lvl]))
		}
		if words, _ := ev.Args["words"].(int64); words <= 0 {
			t.Errorf("%s level %d: words = %v", ev.Name, lvl, ev.Args["words"])
		}
	}
	// The build produces every level above the leaves, with its
	// derivatives; down reduces against every level, the root included.
	// There is no other pass.
	want := map[string]int{"prodtree.build": levels - 1, "prodtree.down": levels}
	for name, n := range count {
		if want[name] != n {
			t.Errorf("%s spans = %d, want %d (tree has %d levels)", name, n, want[name], levels)
		}
	}
	if len(count) != len(want) {
		t.Errorf("span names %v, want %v", count, want)
	}

	bare := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		endLevel(telemetry.SpanFrom(bare).Child("prodtree.down"), 3, tree.Levels[3])
	})
	if allocs != 0 {
		t.Errorf("untraced level span allocates %v times, want 0", allocs)
	}
}
