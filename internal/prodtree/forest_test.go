package prodtree

import (
	"bytes"
	"context"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// forestState deep-copies every value a Forest holds, for the check that
// an Append left its receiver byte-for-byte alone.
func forestState(f *Forest) [][][]byte {
	if f == nil {
		return nil
	}
	state := [][][]byte{{f.root.Bytes()}}
	for _, lvl := range f.levels {
		vals := make([][]byte, len(lvl))
		for i, v := range lvl {
			vals[i] = v.Bytes()
		}
		state = append(state, vals)
	}
	return state
}

func sameState(a, b [][][]byte) bool {
	return slices.EqualFunc(a, b, func(x, y [][]byte) bool { return slices.EqualFunc(x, y, bytes.Equal) })
}

// checkForest holds f, the Forest over leaves, to its oracles: level k
// holds exactly n>>k nodes, the leaves are leaves and every node above is
// the product of its two children — so, by induction, of its leaf range;
// the root is a batch-built tree's; and LeavesSharing names the leaves a
// per-leaf GCD scan names, for each probe d.
func checkForest(t testing.TB, f *Forest, leaves []*big.Int, probes ...*big.Int) {
	t.Helper()
	n := len(leaves)
	if n == 0 {
		if f != nil || f.Root() != nil || f.Nodes() != 0 || f.Leaves() != nil || f.LeavesSharing(one) != nil {
			t.Fatalf("the empty Forest is %+v, want nil", f)
		}
		return
	}
	if len(f.levels) != bits.Len(uint(n)) {
		t.Fatalf("%d leaves in %d levels, want %d", n, len(f.levels), bits.Len(uint(n)))
	}
	var prod big.Int
	for k, lvl := range f.levels {
		if len(lvl) != n>>k {
			t.Fatalf("%d leaves: level %d holds %d nodes, want %d", n, k, len(lvl), n>>k)
		}
		for i, v := range lvl {
			want := leaves[i]
			if k > 0 {
				want = prod.Mul(f.levels[k-1][2*i], f.levels[k-1][2*i+1])
			}
			if v.Cmp(want) != 0 {
				t.Fatalf("%d leaves: node (%d,%d) is not the product of its leaf range", n, k, i)
			}
		}
	}
	tree, err := New(leaves)
	if err != nil {
		t.Fatal(err)
	}
	if f.Root().Cmp(tree.Root()) != 0 {
		t.Fatalf("%d leaves: root differs from the batch-built tree's", n)
	}
	for _, d := range probes {
		if got, want := f.LeavesSharing(d), leavesSharingLinear(leaves, d); !slices.Equal(got, want) {
			t.Fatalf("%d leaves, d = %v: descent %v, linear scan %v", n, d, got, want)
		}
	}
}

// appendChecked appends leaves[len(f.Leaves()):upto] to f, then checks
// the successor against checkForest and f against its own state before
// the append.
func appendChecked(t testing.TB, f *Forest, leaves []*big.Int, upto int, probes ...*big.Int) *Forest {
	t.Helper()
	before := forestState(f)
	next, err := f.Append(context.Background(), leaves[len(f.Leaves()):upto])
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(forestState(f), before) {
		t.Fatalf("appending %d leaves to %d changed the predecessor", upto-len(f.Leaves()), len(f.Leaves()))
	}
	checkForest(t, next, leaves[:upto], probes...)
	return next
}

// semiprimes returns n leaves, each the product of two primes drawn from
// a pool about as large as n, so primes recur across leaves and a probe
// has several hits or none; used lists the primes drawn.
func semiprimes(rng *rand.Rand, pool []*big.Int, n int) (leaves, used []*big.Int) {
	for i := 0; i < n; i++ {
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		leaves = append(leaves, new(big.Int).Mul(a, b))
		used = append(used, a, b)
	}
	return leaves, used
}

// TestForestAppendProperty grows Forests from empty by random appends —
// totals up to past 2⁸, with single-leaf steps around powers of two
// mixed in — and holds every successor to checkForest and every
// predecessor to its state before the append.
func TestForestAppendProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pool := somePrimes(300, 40)
	stranger := pool[len(pool)-1]
	pool = pool[:len(pool)-1]
	for trial := 0; trial < 40; trial++ {
		total := 1 + rng.Intn(300)
		leaves, used := semiprimes(rng, pool, total)
		var f *Forest
		for len(f.Leaves()) < total {
			have := len(f.Leaves())
			upto := have + rng.Intn(total-have+1)
			if trial%4 == 0 { // land on powers of two and one past them
				upto = 1 << bits.Len(uint(have))
				if have&(have-1) == 0 && rng.Intn(2) == 0 {
					upto = have + 1
				}
				upto = min(upto, total)
			}
			f = appendChecked(t, f, leaves, upto, one, stranger, used[rng.Intn(len(used))], leaves[rng.Intn(total)])
		}
	}
}

// TestForestSiblingAppends appends to one parent from two goroutines at
// once, and then once more: the first to claim the parent extends its
// arrays in place, the others copy, and under -race no sibling may write
// what another or the parent reads.
func TestForestSiblingAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := somePrimes(200, 40)
	base, used := semiprimes(rng, pool, 49)
	parent, err := NewForest(context.Background(), base[:48])
	if err != nil {
		t.Fatal(err)
	}
	parent = appendChecked(t, parent, base, 49) // spare capacity to extend into
	before := forestState(parent)
	grow := make([][]*big.Int, 3)
	kids := make([]*Forest, len(grow))
	errs := make([]error, len(grow))
	for s := range grow {
		extra, _ := semiprimes(rng, pool, 1+rng.Intn(40))
		grow[s] = append(slices.Clone(base), extra...)
	}
	var wg sync.WaitGroup
	for s := range grow[:2] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kids[s], errs[s] = parent.Append(context.Background(), grow[s][49:])
		}()
	}
	wg.Wait()
	kids[2], errs[2] = parent.Append(context.Background(), grow[2][49:])
	for s, kid := range kids {
		if errs[s] != nil {
			t.Fatal(errs[s])
		}
		checkForest(t, kid, grow[s], used[0], used[len(used)-1])
	}
	if !sameState(forestState(parent), before) {
		t.Fatal("sibling appends changed the parent")
	}
}

// fuzzPool is FuzzForestAppend's prime pool: few enough that leaves
// share primes often.
var fuzzPool = somePrimes(64, 40)

// fuzzLeaf is leaf i of every fuzzed Forest.
func fuzzLeaf(i int) *big.Int {
	return new(big.Int).Mul(fuzzPool[i*7%len(fuzzPool)], fuzzPool[(i*i+5)%len(fuzzPool)])
}

// FuzzForestAppend: a Forest started over sizes[0] leaves (none: the
// empty start) and grown by one Append per later byte, at most 512 leaves
// in all, meets checkForest after every append, and every predecessor
// keeps its state.
func FuzzForestAppend(f *testing.F) {
	f.Fuzz(func(t *testing.T, sizes []byte) {
		var leaves []*big.Int
		var forest *Forest
		for _, size := range sizes {
			if len(leaves)+int(size) > 512 {
				break
			}
			for range size {
				leaves = append(leaves, fuzzLeaf(len(leaves)))
			}
			d := fuzzPool[len(leaves)%len(fuzzPool)]
			forest = appendChecked(t, forest, leaves, len(leaves), d, fuzzLeaf(len(leaves)))
		}
	})
}
