package prodtree

import (
	"cmp"
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"sync/atomic"

	"github.com/factorable/weakkeys/internal/kernel"
)

// Forest is an append-only product tree: the product of a leaf list that
// only ever grows, the shape keycheck keeps per shard. Level k holds the
// complete nodes only — node i is the product of leaves i·2ᵏ through
// (i+1)·2ᵏ−1 — so a node, once multiplied, never changes, and n leaves
// end in one peak per set bit of n: the last node of each level k whose
// bit k is set. The peaks cover the leaves left to right from the highest
// level down, and the root, their product, is carried from one Forest to
// the next as the old root times the appended leaves' product.
//
// A Forest is immutable once returned and safe for concurrent readers;
// the nil *Forest is the empty one.
type Forest struct {
	levels [][]*big.Int // levels[k] holds n>>k nodes
	root   *big.Int
	// grown is set by the first Append to f. That successor alone extends
	// f's level arrays in place, past the lengths f ever reads; any later
	// successor of f copies them, so no two siblings share a backing array.
	grown atomic.Bool
}

// NewForest returns the Forest over leaves (nil for none). The leaf slice
// is copied; the *big.Int leaves are aliased and never written.
func NewForest(ctx context.Context, leaves []*big.Int) (*Forest, error) {
	return (*Forest)(nil).Append(ctx, leaves)
}

// Append returns the Forest over f's leaves followed by leaves. f is
// never modified and stays valid; every node of f is shared with the
// result by pointer, and only the nodes the new leaves complete are
// multiplied — each node once in its life, as a batch-built tree would.
// The root costs one multiplication of f's root by the appended leaves'
// product, linear in f. An empty leaves returns f itself.
//
// Each level's new nodes are scheduled on the shared kernel pool, and a
// cancelled context stops the append between levels.
func (f *Forest) Append(ctx context.Context, leaves []*big.Int) (*Forest, error) {
	if len(leaves) == 0 {
		return f, nil
	}
	var old [][]*big.Int
	var parts []*big.Int // multiplied together into the new root
	n0, inPlace := 0, true
	if f != nil {
		old, n0, parts = f.levels, len(f.levels[0]), []*big.Int{f.root}
		inPlace = f.grown.CompareAndSwap(false, true)
	}
	n := n0 + len(leaves)
	nf := &Forest{levels: make([][]*big.Int, bits.Len(uint(n)))}
	eng := kernel.FromContext(ctx)
	for k := range nf.levels {
		var lvl []*big.Int
		if k < len(old) {
			lvl = old[k]
			if !inPlace { // a sibling extends f's arrays: copy
				lvl = slices.Clip(lvl)
			}
		}
		if k == 0 {
			nf.levels[0] = append(lvl, leaves...)
			continue
		}
		from, to, below := n0>>k, n>>k, nf.levels[k-1]
		lvl = slices.Grow(lvl, to-from)[:to]
		err := eng.Run(ctx, to-from, func(i int, _ *kernel.Arena) {
			j := from + i
			lvl[j] = new(big.Int).Mul(below[2*j], below[2*j+1])
		})
		if err != nil {
			return nil, fmt.Errorf("prodtree: append cancelled at level %d: %w", k, err)
		}
		nf.levels[k] = lvl
	}
	if n&(n-1) == 0 { // one peak: the top node is the root
		nf.root = nf.levels[len(nf.levels)-1][0]
		return nf, nil
	}
	// The new leaves [n0, n) split into aligned blocks that are whole
	// nodes now; the largest block starting at lo is the node at the
	// level of lo's lowest set bit, cut down until it ends by n.
	for lo := n0; lo < n; {
		k := min(bits.TrailingZeros(uint(lo)), len(nf.levels)-1)
		for lo+1<<k > n {
			k--
		}
		parts = append(parts, nf.levels[k][lo>>k])
		lo += 1 << k
	}
	// Two parts at least: an old root and a block, or two peaks.
	slices.SortFunc(parts, func(a, b *big.Int) int { return cmp.Compare(a.BitLen(), b.BitLen()) })
	nf.root = new(big.Int).Mul(parts[0], parts[1])
	for _, p := range parts[2:] {
		nf.root.Mul(nf.root, p)
	}
	return nf, nil
}

// Root returns the product of all leaves, nil for the empty Forest. The
// value is shared and must not be modified.
func (f *Forest) Root() *big.Int {
	if f == nil {
		return nil
	}
	return f.root
}

// Leaves returns the leaves in append order. Shared storage; do not modify.
func (f *Forest) Leaves() []*big.Int {
	if f == nil {
		return nil
	}
	return f.levels[0]
}

// Nodes returns the number of nodes stored in the levels, leaves
// included; a carried root that is no level's node is not counted.
func (f *Forest) Nodes() int {
	if f == nil {
		return 0
	}
	n := 0
	for _, level := range f.levels {
		n += len(level)
	}
	return n
}

// LeavesSharing returns the indexes, ascending, of the leaves that share
// a factor with d: gcd(leaf, d) > 1. A leaf set nobody shares with is
// dismissed at the root; otherwise it descends each peak, entering a
// subtree only when its product shares a factor with d, so it costs a few
// reductions of geometrically shorter nodes per hit — each node mod d
// through one Reducer — where testing every leaf costs a GCD per leaf.
// d must be positive.
func (f *Forest) LeavesSharing(d *big.Int) []int {
	if f == nil {
		return nil
	}
	r := NewReducer(d)
	var rem, g big.Int
	shares := func(node *big.Int) bool {
		return g.GCD(nil, nil, r.Mod(&rem, node), d).Cmp(one) > 0
	}
	if !shares(f.root) {
		return nil
	}
	var hits []int
	var walk func(k, i int) // over nodes known to share
	walk = func(k, i int) {
		if k == 0 {
			hits = append(hits, i)
			return
		}
		kids := f.levels[k-1]
		left := shares(kids[2*i])
		if left {
			walk(k-1, 2*i)
		}
		// A factor of the parent that the left child lacks is the right's.
		if !left || shares(kids[2*i+1]) {
			walk(k-1, 2*i+1)
		}
	}
	// Likewise a factor of the root that no earlier peak has is the last's.
	n := len(f.levels[0])
	last, hit := bits.TrailingZeros(uint(n)), false
	for k := len(f.levels) - 1; k >= last; k-- {
		if n>>k&1 == 1 && (k == last && !hit || shares(f.levels[k][n>>k-1])) {
			hit = true
			walk(k, n>>k-1)
		}
	}
	return hits
}
