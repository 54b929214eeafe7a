package batchgcd

import (
	"context"
	"fmt"
	"math/big"

	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/prodtree"
)

// Batch is the arithmetic core every batch-GCD caller shares: a set of
// distinct moduli N1..Nn under their product tree, with product
// P = ∏Ni. Residues of any product over the batch multiply, so for a
// corpus split into batches with products P, Q1..Qm the single-tree
// quantity (G/Ni) mod Ni of the global product G = P·Q1·…·Qm is
//
//	OwnResidues(Q1, …, Qm)[i]  =  (P/Ni)·Q1·…·Qm  mod Ni
//
// and Divisors of it is exactly what one tree over the whole corpus
// reports (the paper's Section 3.2). The callers differ only in how
// they partition: one batch (FactorCtx), k round-robin batches
// exchanging products (internal/distgcd), or a delta batch against
// standing shard products (keycheck's Snapshot.Ingest, which needs each
// shard's Residues apart).
//
// A Batch is immutable once built; its methods may run concurrently.
type Batch struct {
	moduli   []*big.Int
	backrefs [][]int
	tree     *prodtree.Tree
}

// NewBatch deduplicates moduli (see Dedup) and builds their product
// tree on the shared kernel pool. Input values are not modified.
func NewBatch(ctx context.Context, moduli []*big.Int) (*Batch, error) {
	if len(moduli) == 0 {
		return nil, ErrNoInput
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

// OwnResidues returns (P/Ni)·∏foreign mod Ni for every modulus: the
// batch's own evidence by the product rule — NewBatch's tree carried
// Σj P/Nj up with its products, it is reduced down the tree here, and
// every term but P/Ni vanishes mod Ni (see prodtree.CofactorResiduesCtx)
// — and that of each foreign product of moduli outside the batch,
// multiplied in at the root so the tree is descended once however many
// there are. foreign is not modified.
func (b *Batch) OwnResidues(ctx context.Context, foreign ...*big.Int) ([]*big.Int, error) {
	return b.tree.CofactorResiduesCtx(ctx, foreign...)
}

// Residues returns q mod Ni for a product q of moduli outside the
// batch. q is not modified.
func (b *Batch) Residues(ctx context.Context, q *big.Int) ([]*big.Int, error) {
	return b.tree.RemainderTreeCtx(ctx, q)
}

// Divisors returns gcd(Ni, acc[i]) per modulus, nil where it is 1. A
// zero residue yields Ni itself: every prime of Ni is in the product.
func (b *Batch) Divisors(ctx context.Context, acc []*big.Int) ([]*big.Int, error) {
	divs := make([]*big.Int, len(acc))
	err := kernel.FromContext(ctx).Run(ctx, len(acc), func(i int, a *kernel.Arena) {
		g := a.Get()
		g.GCD(nil, nil, acc[i], b.moduli[i])
		if g.Cmp(bigOne) != 0 {
			divs[i] = new(big.Int).Set(g)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("batchgcd: gcd sweep cancelled: %w", err)
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
