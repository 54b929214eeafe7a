// Package prodtree implements product trees and remainder trees over
// math/big integers, the two primitives behind Bernstein's quasilinear
// batch GCD algorithm ("How to find smooth parts of integers").
//
// A product tree stores, level by level, the pairwise products of its
// inputs up to the single root product. Its build carries each node's
// derivative by the product rule, D(leaf) = 1, D(a·b) = D(a)·b + a·D(b),
// so the tree holds the cofactor sum D(root) = Σj P/Nj beside its root.
// A remainder tree then pushes a value (a foreign product, or that
// cofactor sum) back down it, reducing modulo each node, so that the
// value modulo every individual leaf is obtained in quasilinear total
// time instead of n independent divisions by a huge number.
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
	// cofactors is D(root) = Σj P/Nj, built with the levels: the value
	// CofactorResiduesCtx pushes down them. Shared; never modified.
	cofactors *big.Int
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
//
// Each level forms its nodes' derivatives with their products (see
// mulPair): on the transform one convolution per pair makes both. A
// level with fewer pairs than workers, below the transform, schedules
// each pair's three products a·b, D(a)·b and a·D(b) as separate ops.
func NewCtx(ctx context.Context, vals []*big.Int) (*Tree, error) {
	if len(vals) == 0 {
		return nil, ErrEmpty
	}
	eng := kernel.FromContext(ctx)
	m := newMultiplier(ctx)
	leaves := make([]*big.Int, len(vals))
	copy(leaves, vals)
	t := &Tree{Levels: [][]*big.Int{leaves}}
	d := make([]*big.Int, len(leaves))
	for i := range d {
		d[i] = one // shared: a D is only ever read, carried or multiplied into a fresh value
	}
	for cur := leaves; len(cur) > 1; {
		pairs := len(cur) / 2
		next := make([]*big.Int, (len(cur)+1)/2)
		dn := make([]*big.Int, len(next))
		sp := telemetry.SpanFrom(ctx).Child("prodtree.build")
		var err error
		if pairs >= eng.Workers() || limbs(cur[0].Bits()) >= pairCrossover {
			err = eng.Run(ctx, pairs, func(i int, a *kernel.Arena) {
				next[i], dn[i] = m.mulPair(cur[2*i], cur[2*i+1], d[2*i], d[2*i+1], a.Get())
			})
		} else {
			terms := make([]*big.Int, 3*pairs)
			err = eng.Run(ctx, 3*pairs, func(k int, _ *kernel.Arena) {
				i := k / 3
				x, y := cur[2*i], cur[2*i+1] // a·b, then D(a)·b, then a·D(b)
				switch k % 3 {
				case 1:
					x = d[2*i]
				case 2:
					y = d[2*i+1]
				}
				terms[k] = new(big.Int).Mul(x, y)
			})
			for i := 0; i < pairs && err == nil; i++ {
				next[i], dn[i] = terms[3*i], terms[3*i+1].Add(terms[3*i+1], terms[3*i+2])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("prodtree: build cancelled at level %d: %w", len(t.Levels), err)
		}
		if len(cur)%2 == 1 { // an odd node is carried up with its D
			next[len(next)-1], dn[len(dn)-1] = cur[len(cur)-1], d[len(d)-1]
		}
		endLevel(sp, len(t.Levels), next)
		t.Levels = append(t.Levels, next)
		cur, d = next, dn
	}
	t.cofactors = d[0]
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

// Bytes returns the approximate memory footprint of all node values and
// the cofactor sum in bytes. The paper reports 70-100 GB per node at the
// 81M-moduli scale; the benchmark harness uses this to reproduce the
// memory column of that comparison at simulation scale.
func (t *Tree) Bytes() int64 {
	total := int64(len(t.cofactors.Bits())) * wordBytes
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
// P the root: the value gcd'd against each modulus by batch GCD. The
// tree's cofactor sum D(root) = Σj P/Nj has every term but P/Ni a
// multiple of Ni, so pushing it down the plain remainder tree leaves
// (P/Ni) mod Ni at leaf i — the same value as (P mod Ni²)/Ni, with
// operands half as wide and no squarings. The foreign products are
// multiplied into D(root) mod P at the root, so however many there are
// the tree is descended once. Cancellation is checked per work chunk.
func (t *Tree) CofactorResiduesCtx(ctx context.Context, foreign ...*big.Int) ([]*big.Int, error) {
	return t.remainderTree(ctx, t.cofactors, false, foreign)
}
