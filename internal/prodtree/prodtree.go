// Package prodtree implements product trees and remainder trees over
// math/big integers, the two primitives behind Bernstein's quasilinear
// batch GCD algorithm ("How to find smooth parts of integers").
//
// A product tree stores, level by level, the pairwise products of its
// inputs up to the single root product. A remainder tree then pushes a
// value (a foreign product, or the cofactor sum Σj P/Nj carried up the
// tree by the product rule) back down it, reducing modulo each node, so
// that the value modulo every individual leaf is obtained in quasilinear
// total time instead of n independent divisions by a huge number.
//
// The paper scaled this computation to 81 million moduli by splitting the
// input into k subsets (see internal/distgcd); this package provides the
// within-subset trees.
package prodtree

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// Tree is a product tree. Levels[0] is the input leaves; each higher level
// halves the node count (odd nodes are carried up unchanged); the last
// level holds a single root equal to the product of all leaves.
type Tree struct {
	Levels [][]*big.Int
}

// ErrEmpty is returned when a tree is requested over no inputs.
var ErrEmpty = errors.New("prodtree: no inputs")

// New builds the product tree of vals. The leaf slice is copied (shallow:
// the *big.Int leaves are aliased, never written). Each level's
// independent multiplications are scheduled on the shared
// internal/kernel worker pool, mirroring the threaded arithmetic of the
// original factorable.net implementation without spawning goroutines
// per call.
func New(vals []*big.Int) (*Tree, error) {
	return NewCtx(context.Background(), vals)
}

// NewCtx is New with cancellation, checked per scheduled work chunk: a
// cancelled build returns — with an error wrapping the context's —
// without waiting for the current level to finish. At the paper's scale
// a single upper level is minutes of work, and sub-level checks are
// what let an operator abort an 81M-moduli run without waiting for the
// central product.
func NewCtx(ctx context.Context, vals []*big.Int) (*Tree, error) {
	if len(vals) == 0 {
		return nil, ErrEmpty
	}
	eng := kernel.FromContext(ctx)
	leaves := make([]*big.Int, len(vals))
	copy(leaves, vals)
	t := &Tree{Levels: [][]*big.Int{leaves}}
	for cur := leaves; len(cur) > 1; {
		next := make([]*big.Int, (len(cur)+1)/2)
		sp := telemetry.SpanFrom(ctx).Child("prodtree.build")
		err := eng.Run(ctx, len(cur)/2, func(i int, _ *kernel.Arena) {
			next[i] = new(big.Int).Mul(cur[2*i], cur[2*i+1])
		})
		if err != nil {
			return nil, fmt.Errorf("prodtree: build cancelled at level %d: %w", len(t.Levels), err)
		}
		if len(cur)%2 == 1 {
			next[len(next)-1] = cur[len(cur)-1]
		}
		endLevel(sp, len(t.Levels), next)
		t.Levels = append(t.Levels, next)
		cur = next
	}
	return t, nil
}

// ExtendCtx returns the product tree over t's leaves followed by newLeaves,
// reusing every node of t whose subtree is unaffected by the extension.
// Only the right spine — the nodes whose subtree gained at least one new
// leaf — is recomputed; at each level the unchanged prefix is shared with
// t by reference. This is the incremental-ingest primitive: folding a
// monthly delta into an existing corpus product costs O(log n) spine
// multiplications plus a tree over the delta, instead of rebuilding the
// whole tree from scratch.
//
// t is never modified; a nil or empty t builds a fresh tree. The shared
// nodes make the returned tree an overlay over t: both trees stay valid,
// and neither may have its node values mutated.
//
// Cancellation is checked per scheduled work chunk, like NewCtx.
func ExtendCtx(ctx context.Context, t *Tree, newLeaves []*big.Int) (*Tree, error) {
	if t == nil || len(t.Levels) == 0 || len(t.Levels[0]) == 0 {
		return NewCtx(ctx, newLeaves)
	}
	if len(newLeaves) == 0 {
		return t, nil
	}
	eng := kernel.FromContext(ctx)
	old := t.Levels[0]
	leaves := make([]*big.Int, 0, len(old)+len(newLeaves))
	leaves = append(append(leaves, old...), newLeaves...)
	nt := &Tree{Levels: [][]*big.Int{leaves}}
	// shared is the length of the prefix of the current level that is
	// identical to t's same level: parents of fully-old pairs stay valid,
	// so the prefix halves per level while everything to its right — the
	// spine absorbing the new leaves — is recomputed.
	shared := len(old)
	for cur := leaves; len(cur) > 1; {
		shared /= 2
		lvl := len(nt.Levels)
		if lvl >= len(t.Levels) {
			shared = 0
		}
		next := make([]*big.Int, (len(cur)+1)/2)
		if shared > 0 {
			copy(next[:shared], t.Levels[lvl][:shared])
		}
		err := eng.Run(ctx, len(next)-shared, func(i int, _ *kernel.Arena) {
			j := shared + i
			if 2*j+1 < len(cur) {
				next[j] = new(big.Int).Mul(cur[2*j], cur[2*j+1])
			} else {
				next[j] = cur[2*j]
			}
		})
		if err != nil {
			return nil, fmt.Errorf("prodtree: extend cancelled at level %d: %w", len(nt.Levels), err)
		}
		nt.Levels = append(nt.Levels, next)
		cur = next
	}
	return nt, nil
}

// Nodes returns the total node count across all levels (leaves included).
func (t *Tree) Nodes() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, level := range t.Levels {
		n += len(level)
	}
	return n
}

// SharedNodes counts the nodes of b that are shared with a by reference
// (same *big.Int), level-aligned from the leaves up. It quantifies the
// structural sharing ExtendCtx achieves: an unchanged subtree contributes
// all of its nodes, a rebuilt spine none.
func SharedNodes(a, b *Tree) int {
	if a == nil || b == nil {
		return 0
	}
	shared := 0
	for lvl := 0; lvl < len(a.Levels) && lvl < len(b.Levels); lvl++ {
		av, bv := a.Levels[lvl], b.Levels[lvl]
		for i := 0; i < len(av) && i < len(bv); i++ {
			if av[i] == bv[i] {
				shared++
			}
		}
	}
	return shared
}

// Root returns the product of all leaves. The returned value is shared
// with the tree and must not be modified.
func (t *Tree) Root() *big.Int {
	top := t.Levels[len(t.Levels)-1]
	return top[0]
}

// Leaves returns the leaf level. Shared storage; do not modify.
func (t *Tree) Leaves() []*big.Int {
	return t.Levels[0]
}

// LeavesSharing returns the indexes, ascending, of the leaves that share
// a factor with d: gcd(leaf, d) > 1. It descends from the root and
// enters a subtree only when its product shares a factor with d, so it
// costs a few reductions of geometrically shorter nodes per hit — each
// node mod d through one Reducer — where testing every leaf costs a GCD
// per leaf. A leaf set nobody shares with is dismissed at the root.
// d must be positive.
func (t *Tree) LeavesSharing(d *big.Int) []int {
	r := NewReducer(d)
	var rem, g big.Int
	shares := func(node *big.Int) bool {
		return g.GCD(nil, nil, r.Mod(&rem, node), d).Cmp(one) > 0
	}
	var hits []int
	var walk func(lvl, i int) // over nodes known to share
	walk = func(lvl, i int) {
		if lvl == 0 {
			hits = append(hits, i)
			return
		}
		kids := t.Levels[lvl-1]
		if 2*i+1 == len(kids) {
			walk(lvl-1, 2*i) // an odd node carried up: the same value
			return
		}
		left := shares(kids[2*i])
		if left {
			walk(lvl-1, 2*i)
		}
		// A factor of the parent that the left child lacks is the right's.
		if !left || shares(kids[2*i+1]) {
			walk(lvl-1, 2*i+1)
		}
	}
	if top := len(t.Levels) - 1; shares(t.Levels[top][0]) {
		walk(top, 0)
	}
	return hits
}

// Bytes returns the approximate memory footprint of all node values in
// bytes. The paper reports 70-100 GB per node at the 81M-moduli scale; the
// benchmark harness uses this to reproduce the memory column of that
// comparison at simulation scale.
func (t *Tree) Bytes() int64 {
	var total int64
	for _, level := range t.Levels {
		total += levelWords(level) * wordBytes
	}
	return total
}

const wordBytes = 32 << (^big.Word(0) >> 63) / 8 // 4 or 8

func levelWords(level []*big.Int) (n int64) {
	for _, v := range level {
		n += int64(len(v.Bits()))
	}
	return n
}

// endLevel closes a pass's per-level trace span with the level's shape,
// so a trace shows which levels are the cost; untraced, sp is nil.
func endLevel(sp *telemetry.Span, lvl int, nodes []*big.Int) {
	if sp == nil {
		return
	}
	sp.SetArg("level", lvl)
	sp.SetArg("nodes", len(nodes))
	sp.SetArg("words", levelWords(nodes))
	sp.End()
}

// RemainderTreeCtx pushes x down the product tree: it returns x mod leaf
// for every leaf, computed with one reduction per tree node. x is not
// modified. Cancellation is checked between tree levels like NewCtx.
//
// This is the plain variant (reduce modulo N); batch GCD pushes the
// cofactor sum down it (see CofactorResiduesCtx).
func (t *Tree) RemainderTreeCtx(ctx context.Context, x *big.Int) ([]*big.Int, error) {
	return t.remainderTree(ctx, x, false)
}

// RemainderTreeSquaredCtx returns x mod leaf² for every leaf. Bernstein's
// batch GCD trick: computing P mod Ni² and then gcd(Ni, (P mod Ni²)/Ni)
// finds the common factor of Ni with the rest of the batch without ever
// forming the exact cofactor P/Ni. Production code takes the cheaper
// CofactorResiduesCtx; this stays as the oracle its tests compare against.
func (t *Tree) RemainderTreeSquaredCtx(ctx context.Context, x *big.Int) ([]*big.Int, error) {
	return t.remainderTree(ctx, x, true)
}

func (t *Tree) remainderTree(ctx context.Context, x *big.Int, squared bool) ([]*big.Int, error) {
	eng := kernel.FromContext(ctx)
	cur := []*big.Int{x}
	top := len(t.Levels) - 1
	if squared && top >= 1 {
		// The first descent step would reduce x mod root². For the
		// canonical batch-GCD call x IS the root product, so x < root²
		// and the reduction is a no-op — yet forming root² is a
		// full-width squaring of the largest number in the tree. Skip
		// the level whenever x < root² is certain from bit lengths
		// alone: bitlen(x) <= 2*bitlen(root)-2 implies
		// x < 2^(2b-2) <= root².
		root := t.Levels[top][0]
		if x.BitLen() <= 2*root.BitLen()-2 {
			top--
		}
	}
	for lvl := top; lvl >= 0; lvl-- {
		nodes := t.Levels[lvl]
		next := make([]*big.Int, len(nodes))
		sp := telemetry.SpanFrom(ctx).Child("prodtree.down")
		err := eng.Run(ctx, len(nodes), func(i int, a *kernel.Arena) {
			// An odd trailing node was carried up unchanged, so the parent
			// may literally be the same value; reduce anyway (cheap) to
			// keep the control flow uniform.
			parent := cur[i/2]
			mod := nodes[i]
			if squared {
				sq := a.Get()
				sq.Mul(nodes[i], nodes[i])
				mod = sq
			}
			// The quotient, as wide as the remainder kept, lands in scratch.
			next[i] = new(big.Int)
			a.Get().DivMod(parent, mod, next[i])
		})
		if err != nil {
			return nil, fmt.Errorf("prodtree: remainder tree cancelled at level %d: %w", lvl, err)
		}
		endLevel(sp, lvl, nodes)
		cur = next
	}
	return cur, nil
}

// CofactorResiduesCtx returns (P/leaf) mod leaf for every leaf, P the
// root: the value gcd'd against each modulus by batch GCD. Going up the
// tree it carries D(leaf) = 1, D(a·b) = D(a)·b + a·D(b), so D(root) =
// Σj P/Nj, and every term but P/Ni is a multiple of Ni: pushing D(root)
// down the plain remainder tree leaves (P/Ni) mod Ni at leaf i — the
// same value as (P mod Ni²)/Ni, with operands half as wide and no
// squarings. Cancellation is checked per work chunk in both passes.
func (t *Tree) CofactorResiduesCtx(ctx context.Context) ([]*big.Int, error) {
	eng := kernel.FromContext(ctx)
	d := make([]*big.Int, len(t.Levels[0]))
	for i := range d {
		d[i] = one // shared: a D is only ever read, carried or reduced into a fresh value
	}
	for lvl, cur := range t.Levels[:len(t.Levels)-1] {
		// term h of node i is D(a)·b (h = 0) or a·D(b) (h = 1).
		term := func(z *big.Int, i, h int) *big.Int { return z.Mul(d[2*i+h], cur[2*i+1-h]) }
		pairs := len(cur) / 2
		next := append(make([]*big.Int, pairs, pairs+1), d[2*pairs:]...) // an odd node carries its D
		sp := telemetry.SpanFrom(ctx).Child("prodtree.up")
		var err error
		if pairs >= eng.Workers() {
			err = eng.Run(ctx, pairs, func(i int, a *kernel.Arena) {
				next[i] = term(new(big.Int), i, 0)
				next[i].Add(next[i], term(a.Get(), i, 1))
			})
		} else {
			// Too few nodes to occupy the pool, and these are the widest:
			// schedule a node's two products as separate ops.
			terms := make([]*big.Int, 2*pairs)
			err = eng.Run(ctx, 2*pairs, func(k int, _ *kernel.Arena) { terms[k] = term(new(big.Int), k/2, k%2) })
			for i := 0; i < pairs && err == nil; i++ {
				next[i] = terms[2*i].Add(terms[2*i], terms[2*i+1])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("prodtree: cofactor tree cancelled at level %d: %w", lvl+1, err)
		}
		endLevel(sp, lvl+1, next)
		d = next
	}
	return t.remainderTree(ctx, d[0], false)
}
