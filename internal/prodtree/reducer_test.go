package prodtree

import (
	"bytes"
	"context"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// checkReducer holds one Reducer for n to big.Int.Mod over x and a run
// of operands derived from it that first grow (so the constants are
// extended under a live Reducer) and then shrink (so constants and
// scratch sized for a longer operand serve a shorter one), and checks
// that no operand's words were written.
func checkReducer(t *testing.T, x, n *big.Int) {
	t.Helper()
	sq := new(big.Int).Mul(x, x)
	operands := []*big.Int{
		x, sq, new(big.Int).Mul(sq, x), sq, x,
		new(big.Int).Rsh(x, uint(x.BitLen()/2)),
		new(big.Int),
		new(big.Int).Neg(x),
		new(big.Int).Mul(sq, n), // a multiple of n
	}
	r := NewReducer(n)
	got, want := new(big.Int), new(big.Int)
	for i, op := range operands {
		before := slices.Clone(op.Bits())
		r.Mod(got, op)
		if want.Mod(op, n); got.Cmp(want) != 0 {
			t.Fatalf("operand %d (%d words) mod %d-word n: Reducer %x, big.Int.Mod %x", i, len(op.Bits()), len(n.Bits()), got, want)
		}
		if !slices.Equal(before, op.Bits()) {
			t.Fatalf("operand %d (%d words) was written", i, len(before))
		}
	}
}

// ones returns 2^(words·wordBits) − 1: every bit set in exactly
// that many words.
func ones(words int) *big.Int {
	x := new(big.Int).Lsh(one, uint(words*wordBits))
	return x.Sub(x, one)
}

// TestReducerAroundFoldPoints walks operand lengths one word either side
// of every fold point, and of twice it (where the starting level
// changes), for moduli of one to five words and of 16 and 41 (past
// math/big's Karatsuba threshold, where the fold's multiply changes
// algorithm).
func TestReducerAroundFoldPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{1, 2, 3, 4, 5, 16, 41} {
		n := new(big.Int).Rand(rng, ones(k))
		n.SetBit(n, k*wordBits-1, 1)
		levels := 6
		if k > 5 {
			levels = 3
		}
		for j := 0; j < levels; j++ {
			m := foldBase * k << j
			for _, words := range []int{m - 1, m, m + 1, 2*m - 1, 2*m + 1} {
				x := new(big.Int).Rand(rng, ones(words))
				x.SetBit(x, words*wordBits-1, 1)
				checkReducer(t, x, n)
				checkReducer(t, ones(words), n)
			}
		}
	}
}

// TestReducerModulusShapes: n = 1, a power of two (every constant is 0),
// all ones, top bit clear, and a modulus longer than the operand.
func TestReducerModulusShapes(t *testing.T) {
	x := new(big.Int).Rand(rand.New(rand.NewSource(5)), ones(300))
	for name, n := range map[string]*big.Int{
		"one":           big.NewInt(1),
		"two":           big.NewInt(2),
		"power of two":  new(big.Int).Lsh(one, 3*wordBits),
		"all ones":      ones(2),
		"top bit clear": new(big.Int).Rsh(ones(3), wordBits-1),
		"longer than x": ones(400),
		"x itself":      x,
		"x plus one":    new(big.Int).Add(x, one),
	} {
		t.Run(name, func(t *testing.T) { checkReducer(t, x, n) })
	}
	defer func() {
		if recover() == nil {
			t.Error("NewReducer(0) did not panic")
		}
	}()
	NewReducer(new(big.Int))
}

// FuzzReducerMatchesMod: Reducer.Mod equals big.Int.Mod for arbitrary x
// and arbitrary n ≥ 1, one Reducer reused across operands of growing and
// shrinking length (checkReducer).
func FuzzReducerMatchesMod(f *testing.F) {
	f.Add([]byte{}, []byte{7})
	f.Add([]byte{5}, []byte{7})
	f.Add(bytes.Repeat([]byte{0xff}, 200), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, xb, nb []byte) {
		if len(xb) > 4096 {
			xb = xb[:4096]
		}
		n := new(big.Int).SetBytes(nb)
		if n.Sign() == 0 {
			n.SetInt64(1)
		}
		checkReducer(t, new(big.Int).SetBytes(xb), n)
	})
}

// leavesSharingLinear is LeavesSharing's oracle: one GCD per leaf.
func leavesSharingLinear(leaves []*big.Int, d *big.Int) []int {
	var hits []int
	g := new(big.Int)
	for i, leaf := range leaves {
		if g.GCD(nil, nil, leaf, d).Cmp(one) > 0 {
			hits = append(hits, i)
		}
	}
	return hits
}

// somePrimes returns count distinct primes of the given width.
func somePrimes(count, bits int) []*big.Int {
	out := make([]*big.Int, 0, count)
	for c := new(big.Int).SetBit(big.NewInt(1), bits-1, 1); len(out) < count; c.Add(c, big.NewInt(2)) {
		if c.ProbablyPrime(20) {
			out = append(out, new(big.Int).Set(c))
		}
	}
	return out
}

// TestLeavesSharingMatchesLinearScan compares the descent with the
// per-leaf scan on Forests of 1 to 257 leaves — every set of peaks — built
// at once and grown by one to three appends, for d = 1, d coprime to
// every leaf, d a leaf, d a product of up to five leaf primes with
// repeats, and d wider than the root.
func TestLeavesSharingMatchesLinearScan(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	// Leaf i is primes[a]·primes[b] with primes drawn from a pool about
	// as large as the tree, so some primes recur across leaves (several
	// hits per divisor) and most do not.
	primes := somePrimes(600, 48)
	stranger := primes[len(primes)-1]
	primes = primes[:len(primes)-1]
	check := func(f *Forest, what string, size int, d *big.Int) {
		t.Helper()
		got, want := f.LeavesSharing(d), leavesSharingLinear(f.Leaves(), d)
		if !slices.Equal(got, want) {
			t.Fatalf("%d leaves, d = %s: descent %v, linear scan %v", size, what, got, want)
		}
	}
	for size := 1; size <= 257; size++ {
		leaves, used := semiprimes(rng, primes[:2*size+3], size)
		// Build the same leaf set at once and grown in one to three appends.
		whole, err := NewForest(ctx, leaves)
		if err != nil {
			t.Fatal(err)
		}
		forests := []*Forest{whole}
		if size >= 2 {
			cuts := []int{1 + rng.Intn(size-1)}
			for len(cuts) < 1+size%3 && cuts[len(cuts)-1] < size-1 {
				cuts = append(cuts, cuts[len(cuts)-1]+1+rng.Intn(size-1-cuts[len(cuts)-1]))
			}
			grown, prev := (*Forest)(nil), 0
			for _, cut := range append(cuts, size) {
				if grown, err = grown.Append(ctx, leaves[prev:cut]); err != nil {
					t.Fatal(err)
				}
				prev = cut
			}
			if len(grown.Leaves()) != size {
				t.Fatalf("grown Forest holds %d leaves, want %d", len(grown.Leaves()), size)
			}
			forests = append(forests, grown)
		}
		several := big.NewInt(1)
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			several.Mul(several, used[rng.Intn(len(used))])
		}
		for _, f := range forests {
			check(f, "1", size, one)
			check(f, "a prime no leaf has", size, stranger)
			check(f, "a leaf", size, leaves[rng.Intn(size)])
			check(f, "a leaf prime squared", size, new(big.Int).Mul(used[0], used[0]))
			check(f, "several leaf primes", size, several)
			check(f, "the root times a stranger", size, new(big.Int).Mul(f.Root(), stranger))
		}
	}
}
