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
// within-subset trees, and Forest, the append-only product of a leaf list
// that grows by deltas (keycheck's shards). The widest levels of a tree
// multiply on a number-theoretic transform (ntt.go), and the plain
// descent takes them without dividing (scaled.go).
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
	m := newMultiplier(ctx)
	leaves := make([]*big.Int, len(vals))
	copy(leaves, vals)
	t := &Tree{Levels: [][]*big.Int{leaves}}
	for cur := leaves; len(cur) > 1; {
		next := make([]*big.Int, (len(cur)+1)/2)
		sp := telemetry.SpanFrom(ctx).Child("prodtree.build")
		err := eng.Run(ctx, len(cur)/2, func(i int, _ *kernel.Arena) {
			next[i] = m.mul(new(big.Int), cur[2*i], cur[2*i+1])
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
// for every leaf, computed with one reduction per tree node; the first,
// x mod root, through a Reducer, so x may be many roots long. From a
// root of scaledCrossover limbs the top levels take multiplications
// instead of divisions (see scaledTop). x is not modified. Cancellation
// is checked between tree levels like NewCtx.
//
// This is the plain variant (reduce modulo N); batch GCD pushes the
// cofactor sum down it (see CofactorResiduesCtx).
func (t *Tree) RemainderTreeCtx(ctx context.Context, x *big.Int) ([]*big.Int, error) {
	return t.remainderTree(ctx, x, false, nil)
}

// RemainderTreeSquaredCtx returns x mod leaf² for every leaf. Bernstein's
// batch GCD trick: computing P mod Ni² and then gcd(Ni, (P mod Ni²)/Ni)
// finds the common factor of Ni with the rest of the batch without ever
// forming the exact cofactor P/Ni. Production code takes the cheaper
// CofactorResiduesCtx; this stays as the oracle its tests compare against.
func (t *Tree) RemainderTreeSquaredCtx(ctx context.Context, x *big.Int) ([]*big.Int, error) {
	return t.remainderTree(ctx, x, true, nil)
}

// remainderTree returns x·∏foreign mod each leaf (mod leaf² if squared,
// which takes no foreign products).
func (t *Tree) remainderTree(ctx context.Context, x *big.Int, squared bool, foreign []*big.Int) ([]*big.Int, error) {
	eng := kernel.FromContext(ctx)
	cur := []*big.Int{x}
	top := len(t.Levels) - 1
	root := t.Levels[top][0]
	switch {
	case !squared && top >= 1 && limbs(root.Bits()) >= scaledCrossover:
		// Multiplications only, down to the first level below the
		// crossover; the division descent takes over below that.
		lvl, rems, err := t.scaledTop(ctx, x, foreign)
		if err != nil {
			return nil, err
		}
		cur, top = rems, lvl-1
	case len(foreign) > 0:
		red := NewReducer(root)
		z := red.Mod(new(big.Int), x)
		for _, f := range foreign {
			z.Mul(z, red.Mod(new(big.Int), f))
			z.Mod(z, root)
		}
		cur = []*big.Int{z}
	}
	if squared && top >= 1 {
		// The first descent step would reduce x mod root². For the
		// canonical batch-GCD call x IS the root product, so x < root²
		// and the reduction is a no-op — yet forming root² is a
		// full-width squaring of the largest number in the tree. Skip
		// the level whenever x < root² is certain from bit lengths
		// alone: bitlen(x) <= 2*bitlen(root)-2 implies
		// x < 2^(2b-2) <= root².
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
			next[i] = new(big.Int)
			switch {
			case squared:
				sq := a.Get()
				sq.Mul(nodes[i], nodes[i])
				a.Get().DivMod(parent, sq, next[i])
			case lvl == len(t.Levels)-1:
				// x mod root, remainder only: a shard product against a
				// delta batch is many roots long. An x of about a root —
				// FactorCtx's D(root) under a short root — takes the
				// Reducer's plain division, the arithmetic of the levels
				// below.
				NewReducer(nodes[i]).Mod(next[i], parent)
			default:
				// The quotient, as wide as the remainder kept, lands in scratch.
				a.Get().DivMod(parent, nodes[i], next[i])
			}
		})
		if err != nil {
			return nil, fmt.Errorf("prodtree: remainder tree cancelled at level %d: %w", lvl, err)
		}
		endLevel(sp, lvl, nodes)
		cur = next
	}
	return cur, nil
}

// CofactorResiduesCtx returns (P/leaf)·∏foreign mod leaf for every leaf,
// P the root: the value gcd'd against each modulus by batch GCD. Going
// up the tree it carries D(leaf) = 1, D(a·b) = D(a)·b + a·D(b), so
// D(root) = Σj P/Nj, and every term but P/Ni is a multiple of Ni: pushing
// D(root) down the plain remainder tree leaves (P/Ni) mod Ni at leaf i —
// the same value as (P mod Ni²)/Ni, with operands half as wide and no
// squarings. The foreign products are multiplied into D(root) mod P at
// the root, so however many there are the tree is descended once.
// Cancellation is checked per work chunk in both passes.
func (t *Tree) CofactorResiduesCtx(ctx context.Context, foreign ...*big.Int) ([]*big.Int, error) {
	eng := kernel.FromContext(ctx)
	m := newMultiplier(ctx)
	d := make([]*big.Int, len(t.Levels[0]))
	for i := range d {
		d[i] = one // shared: a D is only ever read, carried or reduced into a fresh value
	}
	for lvl, cur := range t.Levels[:len(t.Levels)-1] {
		pairs := len(cur) / 2
		next := append(make([]*big.Int, pairs, pairs+1), d[2*pairs:]...) // an odd node carries its D
		sp := telemetry.SpanFrom(ctx).Child("prodtree.up")
		var err error
		if pairs >= eng.Workers() || limbs(cur[0].Bits()) >= mulCrossover {
			// A node whose products transform fans out across the pool
			// on its own.
			err = eng.Run(ctx, pairs, func(i int, a *kernel.Arena) {
				next[i] = m.mulAdd(new(big.Int), d[2*i], cur[2*i+1], cur[2*i], d[2*i+1], a.Get())
			})
		} else {
			// Too few nodes to occupy the pool, and these are the widest:
			// schedule a node's two products, D(a)·b and a·D(b), as
			// separate ops.
			terms := make([]*big.Int, 2*pairs)
			err = eng.Run(ctx, 2*pairs, func(k int, _ *kernel.Arena) {
				i, h := k/2, k%2
				terms[k] = new(big.Int).Mul(d[2*i+h], cur[2*i+1-h])
			})
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
	return t.remainderTree(ctx, d[0], false, foreign)
}
