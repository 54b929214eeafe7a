package batchgcd

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/prodtree"
)

// Batch is the arithmetic core every batch-GCD caller shares: a set of
// distinct moduli N1..Nn under their product tree, with product
// P = ∏Ni. Residues of any product over the batch multiply, so for a
// corpus split into batches with products P, Q1..Qm the single-tree
// divisor gcd(Ni, G/Ni) of the global product G = P·Q1·…·Qm is
//
//	OwnDivisors(Q1, …, Qm)[i]  =  gcd(Ni, (P/Ni)·Q1·…·Qm)
//
// exactly what one tree over the whole corpus reports (the paper's
// Section 3.2). The callers differ only in how they partition: one
// batch (FactorCtx), k round-robin batches exchanging products
// (internal/distgcd), or a delta batch against standing shard products
// (keycheck's Snapshot.Ingest, which needs each shard's divisors apart:
// ForeignDivisors; a novel check reduces every shard product mod its one
// key instead).
//
// A Batch is immutable once built; its methods may run concurrently.
type Batch struct {
	moduli   []*big.Int
	backrefs [][]int
	tree     *prodtree.Tree
}

// NewBatch deduplicates moduli (see Dedup) and builds their product
// tree on the shared kernel pool. Input values are not modified. A
// modulus below 1 is an error naming its index: nothing could be reduced
// modulo it. Even moduli are legal (bit errors make them; fingerprinting
// sets them aside).
func NewBatch(ctx context.Context, moduli []*big.Int) (*Batch, error) {
	if len(moduli) == 0 {
		return nil, ErrNoInput
	}
	for i, n := range moduli {
		if n.Sign() <= 0 {
			return nil, fmt.Errorf("batchgcd: modulus %d is not positive", i)
		}
	}
	distinct, backrefs := Dedup(moduli)
	tree, err := prodtree.NewCtx(ctx, distinct)
	if err != nil {
		return nil, err
	}
	return &Batch{moduli: distinct, backrefs: backrefs, tree: tree}, nil
}

// Len is the number of distinct moduli; every slice the methods below
// take or return has this length and the batch's first-seen order.
func (b *Batch) Len() int { return len(b.moduli) }

// Product returns P, shared with the tree; do not modify.
func (b *Batch) Product() *big.Int { return b.tree.Root() }

// Bytes is the product tree's approximate memory footprint.
func (b *Batch) Bytes() int64 { return b.tree.Bytes() }

// OwnDivisors returns gcd(Ni, (P/Ni)·∏foreign) per modulus, nil where
// it is 1: what Ni shares with the rest of the batch — NewBatch's tree
// carried Σj P/Nj up with its products, and every term but P/Ni is a
// multiple of Ni (see prodtree.Tree.CofactorSum) — and with each foreign
// product of moduli outside the batch, multiplied in at the root so the
// tree is descended once however many there are. A subtree whose node
// shares nothing is cleared by one GCD (see prodtree.Tree.DivisorsCtx).
// A modulus both of whose primes are shared gets itself. foreign is not
// modified.
func (b *Batch) OwnDivisors(ctx context.Context, foreign ...*big.Int) ([]*big.Int, error) {
	return b.tree.DivisorsCtx(ctx, b.tree.CofactorSum(), foreign...)
}

// ForeignDivisors returns, for each product qs[s] of moduli outside the
// batch, gcd(Ni, qs[s]) per modulus, nil where it is 1: the primes Ni
// shares with each product, apart. Every q is reduced mod P once, side
// by side under one set of P's fold constants (Reducer.ModEach). The
// residues' product mod P takes one divisor pass of the tree: a prime
// divides it exactly when it divides some q, so a modulus whose divisor
// of it is 1 shares with no q. Only the others are split back per q, as
// gcd(Ni, q mod P), through a product tree of those moduli alone (the
// batch's own when every modulus shares): each q mod P takes a divisor
// pass of it, so the split costs a small tree's passes where few moduli
// share and no more than a pass per q where all do. Both kinds of pass
// clear a subtree that shares nothing with one GCD. qs is not modified.
func (b *Batch) ForeignDivisors(ctx context.Context, qs []*big.Int) ([][]*big.Int, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	tops, err := prodtree.NewReducer(b.Product()).ModEach(ctx, qs)
	if err != nil {
		return nil, err
	}
	combined, err := b.tree.DivisorsCtx(ctx, tops[0], tops[1:]...)
	if err != nil {
		return nil, err
	}
	var hits []int
	var shared []*big.Int
	for i, d := range combined {
		if d != nil {
			hits = append(hits, i)
			shared = append(shared, b.moduli[i])
		}
	}
	divs := make([][]*big.Int, len(qs))
	for s := range divs {
		divs[s] = make([]*big.Int, len(b.moduli))
	}
	if len(hits) == 0 {
		return divs, nil
	}
	sub := b.tree
	if len(hits) < len(b.moduli) {
		if sub, err = prodtree.NewCtx(ctx, shared); err != nil {
			return nil, err
		}
	}
	errs := make([]error, len(tops))
	err = kernel.FromContext(ctx).Run(ctx, len(tops), func(s int, _ *kernel.Arena) {
		got, err := sub.DivisorsCtx(ctx, tops[s])
		if err != nil {
			errs[s] = err
			return
		}
		for k, g := range got {
			divs[s][hits[k]] = g
		}
	})
	if err = errors.Join(append(errs, err)...); err != nil {
		return nil, fmt.Errorf("batchgcd: split cancelled: %w", err)
	}
	return divs, nil
}

// Results expands index-aligned divisors into one Result per input
// index that held a vulnerable modulus, in first-seen order of the
// distinct moduli (byte-stable regardless of pool scheduling).
func (b *Batch) Results(divs []*big.Int) []Result {
	var results []Result
	for i, d := range divs {
		if d == nil {
			continue
		}
		for _, orig := range b.backrefs[i] {
			results = append(results, Result{Index: orig, Divisor: d})
		}
	}
	return results
}
