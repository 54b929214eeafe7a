package prodtree

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"github.com/factorable/weakkeys/internal/kernel"
)

// scaledShapes are trees whose roots reach scaledCrossover: 128-bit
// leaves in a power-of-two count, odd counts whose carried nodes skip
// levels, one-word leaves, and leaves so long that the scaled steps run
// down to them, on the transform or, for the shorter, on big.Int.
func scaledShapes(rng *rand.Rand) map[string][]*big.Int {
	return map[string][]*big.Int{
		"4096x128": randVals(rng, 4096, 128),
		"1601x120": randVals(rng, 1601, 120),
		"1601x64":  randVals(rng, 1601, 64),
		"5x40000":  randVals(rng, 5, 40000),
		"3xlong":   randVals(rng, 3, 64*scaledCrossover+7),
	}
}

// TestScaledDescentMatchesDivision holds the scaled top of the plain
// descent to the squared oracle's division descent at every leaf and to
// big.Int division at a sample of them,
// for x = 0, root−1, random below the root, 3·root, the root itself and
// a product of some leaves (zero remainders), and with foreign products
// folded in at the root.
func TestScaledDescentMatchesDivision(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	for name, vals := range scaledShapes(rng) {
		tree, err := NewCtx(ctx, vals)
		if err != nil {
			t.Fatal(err)
		}
		root := tree.Root()
		if limbs(root.Bits()) < scaledCrossover {
			t.Fatalf("%s: root of %d limbs does not reach the crossover", name, limbs(root.Bits()))
		}
		some := big.NewInt(1)
		for i := 0; i < len(vals); i += 3 {
			some.Mul(some, vals[i])
		}
		xs := map[string]*big.Int{
			"zero":     new(big.Int),
			"root-1":   new(big.Int).Sub(root, one),
			"random":   new(big.Int).Rand(rng, root),
			"3root":    new(big.Int).Mul(root, big.NewInt(3)),
			"root":     root,
			"someleaf": some,
		}
		for xname, x := range xs {
			got, err := descent(ctx, tree, x)
			if err != nil {
				t.Fatal(err)
			}
			sq, err := tree.RemainderTreeSquaredCtx(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			for i, leaf := range vals {
				want := new(big.Int).Mod(sq[i], leaf)
				if got[i].Cmp(want) != 0 {
					t.Fatalf("%s, x=%s: leaf %d: scaled descent %x, squared oracle %x", name, xname, i, got[i], want)
				}
				if i%97 == 0 || i == len(vals)-1 {
					if new(big.Int).Mod(x, leaf).Cmp(want) != 0 {
						t.Fatalf("%s, x=%s: leaf %d: squared oracle disagrees with big.Int division", name, xname, i)
					}
				}
			}
		}

		// Foreign products at the root: one as long as the root, one
		// longer, one a multiple of some leaves.
		f1 := new(big.Int).Rand(rng, root)
		f2 := new(big.Int).Rand(rng, new(big.Int).Mul(root, root))
		got, err := descent(ctx, tree, tree.cofactors, f1, f2, some)
		if err != nil {
			t.Fatal(err)
		}
		own, err := descent(ctx, tree, tree.cofactors)
		if err != nil {
			t.Fatal(err)
		}
		for i, leaf := range vals {
			if i%7 != 0 && i != len(vals)-1 {
				continue
			}
			want := new(big.Int).Set(own[i])
			for _, f := range []*big.Int{f1, f2, some} {
				want.Mul(want, new(big.Int).Mod(f, leaf)).Mod(want, leaf)
			}
			if got[i].Cmp(want) != 0 {
				t.Fatalf("%s: leaf %d: residues with foreign products %x, want %x", name, i, got[i], want)
			}
		}
	}
}

// TestReciprocalWithinUnits checks the Newton reciprocal against the
// exact quotient at precisions either side of its base case, and long
// enough that its products run on the transform.
func TestReciprocalWithinUnits(t *testing.T) {
	m := newMultiplier(context.Background())
	rng := rand.New(rand.NewSource(31))
	cases := [][2]int{{7000, 7000 + guard}, {2*mulCrossover + 5, 3 * mulCrossover}}
	for _, n := range []int{1, 2, 60, 200, 3000} {
		for _, h := range []int{1, recipBase, recipBase + 1, n + guard, 2*n + 5} {
			cases = append(cases, [2]int{n, h})
		}
	}
	for _, c := range cases {
		n, h := c[0], c[1]
		d := operand(rng, n*wpl, rng.Intn(3))
		got, err := m.reciprocal(context.Background(), d, h)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Lsh(one, uint(64*(n+h)))
		want.Quo(want, d)
		if diff := new(big.Int).Sub(got, want); diff.CmpAbs(big.NewInt(8)) > 0 {
			t.Fatalf("%d limbs, precision %d: reciprocal off by %v", n, h, diff)
		}
	}
}

// cancelAfter is a context whose Err reports cancellation from its n-th
// call on, so a test can stop a computation between two given checks.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestReciprocalCancelledBetweenSteps stops a reciprocal after its first
// Newton step.
func TestReciprocalCancelledBetweenSteps(t *testing.T) {
	m := newMultiplier(context.Background())
	d := operand(rand.New(rand.NewSource(32)), 4096*wpl, 0)
	ctx := kernel.With(&cancelAfter{Context: context.Background(), n: 1}, kernel.New(1))
	if _, err := m.reciprocal(ctx, d, 4096+guard); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
